#!/usr/bin/env python
"""Lint: one parallel executor, one co-simulation loop, one injection home,
one MNA assembly, one checkpoint writer, one rate table per population,
no caller of the propensity-table cache, one place that materialises
occupancy traces, no per-trap objects in sampled populations, no
re-exports from package ``__init__``s, no private NumPy/SciPy API.

Usage::

    python scripts/check_layers.py [SRC_DIR]

The scenario layer only pays off if the engine stays the *single* road
to parallel execution: a module that quietly opens its own
``multiprocessing`` pool or ``concurrent.futures`` executor bypasses
the backends, the retry/timeout resilience, checkpoint/resume, fault
injection and observability that :mod:`repro.core.scenario` and
:mod:`repro.core.engine` provide — and its results stop being
backend-invariant.  This script fails the build when any module under
``src/repro/`` other than the exempt ones below imports
``multiprocessing``, and when *any* module imports
``concurrent.futures`` (including ``from multiprocessing import ...``
and function-local imports).

The check is syntactic (AST, no imports), so it cannot be fooled by
import-time side effects and needs no dependencies.

Exemptions cover ``multiprocessing`` only and carry their rationale:

- ``core/engine.py`` — hosts the ``shared`` backend, the package's one
  parallel executor;
- ``testing/faults.py`` — the ``worker`` fault site needs
  ``multiprocessing.parent_process()`` to decide whether killing the
  hosting process is survivable; it dispatches nothing.

The same holds for RTN/circuit co-simulation: a transient ``pre_step``
hook is how traps are coupled to a live circuit, and
``cosim/engine.py`` (:func:`repro.cosim.engine.run_trap_coupled`) is
the one loop that does it.  A call passing ``pre_step=`` anywhere else
is a second co-simulation loop and fails the check; circuit-specific
co-simulators are adapters over the engine.

Likewise for the Fig.-8 injected SPICE pass: ``core/methodology.py``
(:class:`repro.core.methodology.PatternBench`) is the one place that
calls ``attach_rtn_sources(``.  A call anywhere else is a second copy of
the methodology's step 3 and fails the check; array paths run the
bench instead.

And for MNA assembly: ``spice/mna.py``
(:class:`repro.spice.mna.StampProgram`) is the one place that stamps a
netlist, and the SPICE package's private (``_``-prefixed) names are its
internals.  An import of a private name from ``repro.spice`` (absolute
or relative, of a module or of a name) anywhere outside
``src/repro/spice/`` reaches past the program's public assemblers and
fails the check; use ``StampProgram.dc_assembler`` /
``transient_assembler`` instead.

And for checkpoints: ``core/scenario.py``
(:func:`repro.core.scenario.run_scenario`) is the one place that
constructs a ``RunCheckpoint(``.  A construction anywhere else is a
second checkpoint writer with its own record format and fails the
check; a resumable workload runs as a scenario and passes
``checkpoint_dir=`` / ``resume=`` to ``run_scenario`` instead.

And for trap propensities: every trap of a transistor shares its
surface potential, so a population's Eq.-(1)/(2) rates come from one
table (:func:`repro.traps.propensity.population_propensity`), and a
single trap's propensity is a row of it
(:meth:`repro.markov.batch.BatchPropensity.single`).  A
``SampledTwoStatePropensity(`` call outside ``src/repro/markov/`` is a
per-trap rate builder beside the table and fails the check; build the
population table instead, or go through ``make_propensity``.

And for that table's cache: the population table is lazy (rates are
evaluated only around the kernel's candidates), so the content-keyed
:class:`repro.core.engine.PropensityTableCache` in front of it only
costs its key hash and never hits.  It stays defined in
``core/engine.py`` until the benchmark harness stops clearing it, but a
``propensity_cache(`` call anywhere else under ``src/repro/`` picks the
dead cache up again and fails the check; call ``population_propensity``
directly instead.

And for occupancy traces: the kernels return a population's flips as
one flat :class:`repro.markov.occupancy.PopulationOccupancy`, and
``number_filled`` counts from those arrays.  Per-trap
:class:`~repro.markov.occupancy.OccupancyTrace` objects are materialised
on demand by that class, the one caller of the unvalidated
``OccupancyTrace._trusted`` constructor.  A ``._trusted(`` call anywhere
else under ``src/repro/`` is a second trace builder beside the flat
type and fails the check; return a ``PopulationOccupancy`` (or build a
validated ``OccupancyTrace``) instead.

And for trap populations: the profiler samples a device's traps as
columns, one :class:`repro.traps.trap.TrapPopulation`, and the rate
table and the ensemble read those columns directly; a ``Trap`` is
built only when a caller indexes or iterates a population.  A
``Trap(`` call in ``traps/profiling.py`` or anywhere under ``core/`` is
a per-trap object layer back on the sampling or screening path and
fails the check; return or concatenate ``TrapPopulation`` columns
instead.

And for the public surface: :mod:`repro.api` is the one facade, and a
package ``__init__.py`` holds only its docstring, the package guide.
An import statement in any package ``__init__.py`` other than the
root's (which binds ``api``, ``constants`` and ``errors``) and
``obs/__init__.py`` (the instrumentation module itself) is a second
way in beside the facade, and it loads every submodule it names
whenever any one of them is imported; it fails the check.  Import from
the defining submodule or from ``repro.api`` instead.

And for NumPy and SciPy: the SPICE engine's seeded waveforms are
bit-identical to its scalar reference through public calls such as
``np.linalg.solve``, and only the public API keeps that contract
portable across builds and versions.  A private module or name of
either (any dotted part starting with ``_`` that is not a dunder, such
as ``numpy.linalg._umath_linalg``), imported or reached as an attribute of
an imported NumPy/SciPy name, fails the check anywhere under
``src/repro/``; use the public function instead.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Module prefixes whose import marks a layering violation.
BANNED = ("multiprocessing", "concurrent.futures")

#: path (relative to src/repro) -> why it may import multiprocessing.
#: No file may import concurrent.futures.
EXEMPT = {
    "core/engine.py":
        "hosts the shared backend, the one parallel executor",
    "testing/faults.py":
        "worker fault site probes multiprocessing.parent_process() only",
}


#: The one module that may pass a transient ``pre_step=`` hook.
PRE_STEP_HOME = "cosim/engine.py"

#: The one module that may call ``attach_rtn_sources``.
INJECTION_HOME = "core/methodology.py"

#: The one module that may construct a ``RunCheckpoint``.
CHECKPOINT_HOME = "core/scenario.py"

#: The package that may construct a ``SampledTwoStatePropensity``.
PROPENSITY_HOME = "markov/"

#: The one module that may call ``propensity_cache`` (it defines it).
CACHE_HOME = "core/engine.py"

#: The one module that may call ``OccupancyTrace._trusted``.
TRACE_HOME = "markov/occupancy.py"

#: Paths (relative to src/repro; a trailing ``/`` is a package) that
#: may not construct a ``Trap``: sampled populations are columns.
TRAP_FREE = ("traps/profiling.py", "core/")

#: The package ``__init__``s that may import (paths relative to src/repro).
IMPORTING_INITS = ("__init__.py", "obs/__init__.py")

#: The package whose private names no module outside it may import.
SPICE_PACKAGE = "repro.spice"

#: Third-party packages whose private modules and names no module may use.
FOREIGN_PACKAGES = ("numpy", "scipy")


def _banned(module: str | None) -> str | None:
    if module is None:
        return None
    for prefix in BANNED:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    # `from concurrent import futures` smuggles in the same executor.
    if module == "concurrent":
        return "concurrent.futures"
    return None


def banned_imports(path: Path) -> list:
    """(line, module) pairs of banned imports anywhere in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                prefix = _banned(alias.name)
                if prefix:
                    hits.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "concurrent" and any(
                    alias.name == "futures" for alias in node.names):
                hits.append((node.lineno, "concurrent.futures"))
            elif _banned(node.module):
                hits.append((node.lineno, node.module))
    return hits


def pre_step_calls(path: Path) -> list:
    """Lines of calls passing a ``pre_step=`` keyword."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and any(kw.arg == "pre_step" for kw in node.keywords)]


def calls_to(path: Path, name: str) -> list:
    """Lines of calls to ``name`` (bare or attribute)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id",
                        getattr(node.func, "attr", None)) == name]


def import_lines(path: Path) -> list:
    """Lines of every import statement anywhere in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def _absolute(relative: str, node: ast.ImportFrom) -> str:
    """Absolute module of a ``from ... import`` in ``repro/<relative>``."""
    if node.level == 0:
        return node.module or ""
    package = ["repro", *relative.split("/")[:-1]]
    base = package[:len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _private_part(part: str) -> bool:
    """``_name`` is private; a dunder (``__version__``) is not."""
    return part.startswith("_") and not (
        part.startswith("__") and part.endswith("__"))


def _private(dotted: str) -> bool:
    return any(_private_part(part) for part in dotted.split("."))


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def private_imports(path: Path, relative: str, packages: tuple) -> list:
    """(line, name) pairs importing a private name of one of ``packages``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(relative, node)
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if any(_within(name, package) for package in packages) \
                    and _private(name):
                hits.append((node.lineno, name))
    return hits


def private_attributes(path: Path, packages: tuple) -> list:
    """(line, name) pairs reaching a private attribute of a name bound
    by an import of one of ``packages`` (``np._core``, ``linalg._x``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import numpy.linalg` binds `numpy`.
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    bound = {local: name for local, name in bound.items()
             if any(_within(name, package) for package in packages)}
    hits = []
    for node in ast.walk(tree):
        parts = []
        target = node
        while isinstance(target, ast.Attribute):
            parts.append(target.attr)
            target = target.value
        if (isinstance(node, ast.Attribute) and isinstance(target, ast.Name)
                and target.id in bound
                and any(_private_part(part) for part in parts)):
            hits.append((node.lineno,
                         ".".join([bound[target.id], *reversed(parts)])))
    # An outer attribute and its inner chain are one use: keep the
    # longest name per line.
    longest = {}
    for line, name in hits:
        if len(name) > len(longest.get(line, "")):
            longest[line] = name
    return sorted(longest.items())


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent \
        / "src" / "repro"
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"{root}: no source files found", file=sys.stderr)
        return 2
    violations = []
    for path in files:
        relative = path.relative_to(root).as_posix()
        for line, module in banned_imports(path):
            if not (relative in EXEMPT
                    and module.startswith("multiprocessing")):
                violations.append((
                    path, line, f"imports {module} — parallel dispatch "
                    "belongs to repro.core.engine; route the work "
                    "through repro.core.scenario instead"))
        if relative != PRE_STEP_HOME:
            for line in pre_step_calls(path):
                violations.append((
                    path, line, "passes pre_step= — co-simulation "
                    "belongs to repro.cosim.engine; write an adapter "
                    "over run_trap_coupled instead"))
        if relative != INJECTION_HOME:
            for line in calls_to(path, "attach_rtn_sources"):
                violations.append((
                    path, line, "calls attach_rtn_sources — the injected "
                    "SPICE pass belongs to repro.core.methodology; run a "
                    "PatternBench instead"))
        if relative != CHECKPOINT_HOME:
            for line in calls_to(path, "RunCheckpoint"):
                violations.append((
                    path, line, "constructs RunCheckpoint — checkpoints "
                    "belong to repro.core.scenario; pass checkpoint_dir= "
                    "to run_scenario instead"))
        if not relative.startswith(PROPENSITY_HOME):
            for line in calls_to(path, "SampledTwoStatePropensity"):
                violations.append((
                    path, line, "constructs SampledTwoStatePropensity — "
                    "trap rates come from one population table; use "
                    "population_propensity(...).single(k) instead"))
        if relative != CACHE_HOME:
            for line in calls_to(path, "propensity_cache"):
                violations.append((
                    path, line, "calls propensity_cache — the population "
                    "rate table is lazy and its cache never hits; call "
                    "population_propensity directly instead"))
        if relative != TRACE_HOME:
            for line in calls_to(path, "_trusted"):
                violations.append((
                    path, line, "calls OccupancyTrace._trusted — traces "
                    "are materialised by PopulationOccupancy in "
                    "repro.markov.occupancy; return one instead"))
        if relative.startswith(TRAP_FREE):
            for line in calls_to(path, "Trap"):
                violations.append((
                    path, line, "constructs Trap — sampled populations "
                    "are columns; build or concatenate a TrapPopulation "
                    "instead"))
        if path.name == "__init__.py" and relative not in IMPORTING_INITS:
            for line in import_lines(path):
                violations.append((
                    path, line, "imports in a package __init__ — it "
                    "holds only the package guide; import from the "
                    "defining submodule or repro.api instead"))
        if not relative.startswith("spice/"):
            for line, name in private_imports(path, relative,
                                              (SPICE_PACKAGE,)):
                violations.append((
                    path, line, f"imports private {name} — MNA assembly "
                    "belongs to repro.spice.mna; use a public "
                    "StampProgram assembler instead"))
        for line, name in private_imports(path, relative, FOREIGN_PACKAGES) \
                + private_attributes(path, FOREIGN_PACKAGES):
            violations.append((
                path, line, f"uses private {name} — only the public "
                "NumPy/SciPy API keeps bit-identical results portable "
                "across builds; call the public function instead"))
    for path, line, message in violations:
        print(f"{path}:{line}: {message}", file=sys.stderr)
    print(f"{len(files)} modules checked ({len(EXEMPT)} may import "
          f"multiprocessing): {len(violations)} layering violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
