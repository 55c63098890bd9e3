"""Outside-in layer timing: wrap public functions of the loaded program.

The benchmark adds no tracing inside ``src/``.  Instead, for each
function in :data:`PROBES` it replaces the original object everywhere it
is bound in a loaded ``repro.*`` module -- the defining module, package
re-exports and aliases such as ``from ..spice.transient import
simulate_transient`` alike -- with a wrapper that times the call, and
puts every original back afterwards.

The wrappers keep one stack, so a layer's *self* time is its inclusive
time minus the time of wrapped calls made inside it, and the self times
of one run add up to the inclusive time of its outermost calls.  A traced
run is a ``workers=1`` run on the serial backend, so every wrapped call
happens on the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "PROBES",
    "LayerTrace",
    "Patch",
    "Probe",
    "capture_returns",
    "traced",
]


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    Attributes
    ----------
    layer:
        Metric prefix, named after the repo module that owns the code.
    module, attribute:
        Where the original lives; ``attribute`` is ``"name"`` or
        ``"Class.method"``.
    """

    layer: str
    module: str
    attribute: str


#: Every wrapped function.  Entry points first, then the layers beneath.
PROBES = (
    Probe("core.ensemble", "repro.core.ensemble", "EnsembleRunner.run"),
    Probe("core.scenario", "repro.core.scenario", "run_scenario"),
    Probe("core.scenario.job", "repro.core.scenario", "execute_scenario_job"),
    Probe("core.resilience", "repro.core.resilience", "run_jobs"),
    Probe("traps.sample", "repro.traps.profiling", "TrapProfiler.sample"),
    Probe("traps.population_propensity", "repro.traps.propensity",
          "population_propensity"),
    Probe("traps.rates_from_bias", "repro.traps.propensity",
          "rates_from_bias"),
    Probe("markov.batch", "repro.markov.batch", "simulate_traps_batch"),
    Probe("markov.uniformization", "repro.markov.uniformization",
          "simulate_trap"),
    Probe("markov.number_filled", "repro.markov.occupancy", "number_filled"),
    Probe("rtn.current", "repro.rtn.current", "rtn_current_samples"),
    Probe("rtn.generator", "repro.rtn.generator", "generate_device_rtn"),
    Probe("spice.transient", "repro.spice.transient", "simulate_transient"),
    Probe("spice.newton", "repro.spice.newton", "solve_newton"),
    Probe("sram.detectors", "repro.sram.detectors", "classify_operations"),
    Probe("sram.biases", "repro.sram.biases", "extract_biases"),
    Probe("sram.margins", "repro.sram.margins", "static_noise_margin"),
    Probe("dram.retention", "repro.dram.cell", "simulate_retention"),
)

#: The probe whose calls are jobs: its spans carry the job index as id.
JOB_PROBE = "core.scenario.job"


def _program_modules() -> list:
    """Every loaded module of the program (``repro`` and ``repro.*``)."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def resolve(probe: Probe):
    """``(owner, name, original)`` of a probe; imports its module."""
    owner = importlib.import_module(probe.module)
    *path, name = probe.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class Patch:
    """Replacements of objects in the program, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._bindings: list = []
        self._originals: dict = {}  # id(replacement) -> (replacement, original)

    def everywhere(self, original, replacement) -> None:
        """Bind ``replacement`` wherever a program module binds ``original``."""
        self._originals[id(replacement)] = (replacement, original)
        for module in _program_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is original:
                    self._bindings.append((module, name, original))
                    setattr(module, name, replacement)

    def attribute(self, owner, name: str, replacement) -> None:
        """Bind ``replacement`` as ``owner.name`` (a class method)."""
        original = vars(owner)[name]
        self._originals[id(replacement)] = (replacement, original)
        self._bindings.append((owner, name, original))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every original back, including copies taken meanwhile.

        A module first imported while the patch was active may have
        bound a replacement with ``from x import f``; those bindings are
        reset too.
        """
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        for module in _program_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._bindings.clear()
        self._originals.clear()


@contextmanager
def capture_returns(module, attribute: str):
    """Collect the return values of ``module.attribute`` in a block.

    Used to read the ``ScenarioRun`` that ``EnsembleRunner.run`` makes
    internally for its verification fan-out.
    """
    original = getattr(module, attribute)
    returns: list = []

    def capturing(*args, **kwargs):
        value = original(*args, **kwargs)
        returns.append(value)
        return value

    patch = Patch()
    patch.everywhere(original, capturing)
    try:
        yield returns
    finally:
        patch.restore()


class LayerTrace:
    """Calls, inclusive and self time per probe for one traced run.

    Parameters
    ----------
    tracer:
        A :class:`repro.obs.Tracer` receiving one complete span per
        wrapped call; ``None`` records none.
    clock:
        Monotonic time source [s], in the time base of ``tracer``.
    """

    def __init__(self, tracer=None, clock=time.monotonic) -> None:
        self.tracer = tracer
        self.clock = clock
        self.calls = {probe.layer: 0 for probe in PROBES}
        self.inclusive = {probe.layer: 0.0 for probe in PROBES}
        self.self_time = {probe.layer: 0.0 for probe in PROBES}
        #: Inclusive time of the outermost wrapped calls [s].
        self.root_time = 0.0
        self._children: list = []  # wrapped-child time of each open call
        self._jobs: list = []      # job index of each open job call

    def wrap(self, probe: Probe, fn):
        """The timing wrapper of ``fn`` for ``probe``."""
        layer = probe.layer
        children = self._children
        jobs = self._jobs
        tracer = self.tracer
        is_job = layer == JOB_PROBE
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            children.append(inner)
            if is_job:
                jobs.append(int(args[0].index))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children.pop()
                if children:
                    children[-1][0] += elapsed
                else:
                    self.root_time += elapsed
                self.calls[layer] += 1
                self.inclusive[layer] += elapsed
                self.self_time[layer] += elapsed - inner[0]
                if tracer is not None:
                    tracer.complete(layer, start, elapsed,
                                    job=jobs[-1] if jobs else -1,
                                    self_us=round((elapsed - inner[0]) * 1e6,
                                                  3))
                if is_job:
                    jobs.pop()

        return wrapper

    @property
    def total_self_time(self) -> float:
        return sum(self.self_time.values())


@contextmanager
def traced(tracer=None):
    """Wrap every probe for the duration of the block.

    Yields the :class:`LayerTrace` that accumulates the timings; every
    original is restored on exit, even when the block raises.
    """
    trace = LayerTrace(tracer)
    resolved = [(probe, *resolve(probe)) for probe in PROBES]
    patch = Patch()
    try:
        for probe, owner, name, original in resolved:
            wrapper = trace.wrap(probe, original)
            if isinstance(owner, type):
                patch.attribute(owner, name, wrapper)
            else:
                patch.everywhere(original, wrapper)
        yield trace
    finally:
        patch.restore()
