#!/usr/bin/env python
"""Lint: one parallel executor and one co-simulation loop.

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
``cosim/engine.py`` (:func:`repro.cosim.run_trap_coupled`) is the one
loop that does it.  A call passing ``pre_step=`` anywhere else is a
second co-simulation loop and fails the check; circuit-specific
co-simulators are adapters over the engine.
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
    for path, line, message in violations:
        print(f"{path}:{line}: {message}", file=sys.stderr)
    print(f"{len(files)} modules checked ({len(EXEMPT)} may import "
          f"multiprocessing): {len(violations)} layering violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
