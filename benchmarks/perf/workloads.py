"""The benchmark workloads: inputs from a seed, one timed run, output checks.

Each workload is one batch job submitted through the public API that
``repro ensemble`` and ``repro scenario run`` call (``EnsembleRunner.run``
and ``run_scenario``) by one caller that waits for the result: a closed
loop with concurrency 1.  The program receives only the generated
inputs; every output is checked here.

The program is always called through module attributes
(``scenario.run_scenario``), never through a name bound in this module,
so that the wrappers of a traced run (:mod:`benchmarks.perf.layers`)
see the call.

Sizes are chosen so that one serial plus one parallel run takes 1.5-3 s
on a 2-core machine, which lets ten or more pairs fit in one benchmark
run; README.md records why.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .layers import capture_returns

__all__ = ["Outcome", "Workload", "WORKLOADS", "fingerprint", "pair_seed"]

#: Job statuses that count as failed operations.
FAILED = ("failed", "timeout")

#: Tolerance of the DRAM retention-window check.
VRT_TOLERANCE = 0.01


@dataclass
class Outcome:
    """One run of a workload.

    Attributes
    ----------
    wall:
        Seconds spent in the API call, nothing else.
    backend:
        Execution backend that carried the jobs.
    digest:
        :func:`fingerprint` of every output value.
    attempted, failed:
        Cells or jobs attempted, and those ending ``failed``/``timeout``.
    timings:
        ``EnsembleResult.timings`` ({} for scenarios).
    scenario_timings:
        ``ScenarioRun.timings``; for the ensemble, of the ``sram.verify``
        run it makes for its verification fan-out.
    job_elapsed:
        ``JobResult.elapsed`` of every job [s].
    value:
        The domain result, for the output checks.
    problems:
        Errors raised by the program instead of a result.
    """

    wall: float
    backend: str
    digest: str
    attempted: int
    failed: int
    timings: dict = field(default_factory=dict)
    scenario_timings: dict = field(default_factory=dict)
    job_elapsed: list = field(default_factory=list)
    value: object = None
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    name:
        As declared in ``BENCHMARK.json``, which also says why the
        workload was chosen.
    build:
        ``build(scale) -> config``: the program's configuration at
        ``scale`` times the full size (1 for timed runs, 1/8 to warm up).
    run:
        ``run(config, seed, workers) -> Outcome``.
    check:
        ``check(config, outcome) -> problems``: what is wrong with the
        output, empty when it is right.
    """

    name: str
    build: Callable
    run: Callable
    check: Callable


def pair_seed(seed: int, index: int) -> int:
    """Input seed of the ``index``-th run pair of a benchmark run.

    Every pair of a run gets its own inputs, so that a run's medians
    average over several inputs drawn from ``seed``.
    """
    state = np.random.SeedSequence([int(seed), int(index)])
    return int(state.generate_state(1, dtype=np.uint32)[0])


def fingerprint(value) -> str:
    """Digest of a result that compares every float bit for bit."""
    digest = hashlib.blake2b(digest_size=16)
    _feed(digest, value)
    return digest.hexdigest()


def _feed(digest, value) -> None:
    if isinstance(value, (bool, np.bool_, str)) or value is None:
        digest.update(f"{type(value).__name__}:{value};".encode())
    elif isinstance(value, (int, np.integer)):
        digest.update(f"i:{int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        digest.update(f"f:{float(value).hex()};".encode())
    elif isinstance(value, np.ndarray):
        digest.update(f"a:{value.dtype.str}{value.shape};".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        digest.update(f"d:{len(value)};".encode())
        for key in sorted(value, key=repr):
            _feed(digest, key)
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(f"l:{len(value)};".encode())
        for item in value:
            _feed(digest, item)
    elif dataclasses.is_dataclass(value):
        digest.update(f"c:{type(value).__name__};".encode())
        for item in dataclasses.fields(value):
            _feed(digest, item.name)
            _feed(digest, getattr(value, item.name))
    else:
        raise TypeError(f"cannot fingerprint {type(value).__name__}")


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


# ----------------------------------------------------------------------
# Ensemble workloads: EnsembleRunner.run (what `repro ensemble` calls).

def _ensemble_config(n_cells: int, max_verified: int | None) -> Callable:
    def build(scale: float):
        from repro.core import ensemble, experiments

        return ensemble.EnsembleConfig(
            n_cells=_scaled(n_cells, scale),
            spec=experiments.fig8_cell_spec(),
            pattern=experiments.fig8_pattern(bits=(1,)),
            rtn_scale=30.0, max_verified_cells=max_verified)
    return build


def _run_ensemble(config, seed: int, workers: int) -> Outcome:
    from repro.core import ensemble, scenario

    runner = ensemble.EnsembleRunner(
        dataclasses.replace(config, workers=workers))
    rng = np.random.default_rng(seed)
    with capture_returns(scenario, "run_scenario") as verification:
        started = time.perf_counter()
        result = runner.run(rng)
        wall = time.perf_counter() - started
    fan_out = verification[-1]
    return Outcome(
        wall=wall, backend=fan_out.backend,
        digest=fingerprint([result.outcomes, result.nominal_snm_hold,
                            result.clean_failures, result.kernel_stats]),
        attempted=result.n_cells,
        failed=sum(1 for o in result.outcomes if o.status in FAILED),
        timings=dict(result.timings),
        scenario_timings=dict(fan_out.timings),
        job_elapsed=[r.elapsed for r in fan_out.results], value=result)


def _check_ensemble(config, outcome: Outcome) -> list:
    result = outcome.value
    problems = []
    if result.n_cells != config.n_cells:
        problems.append(f"{result.n_cells} outcomes for {config.n_cells} "
                        "cells")
    if not result.complete:
        problems.append(f"incomplete run: {result.telemetry.counts}")
    cap = config.max_verified_cells
    expected = result.flagged_cells if cap is None \
        else min(result.flagged_cells, cap)
    if result.verified_cells != expected:
        problems.append(f"verified {result.verified_cells} cells, expected "
                        f"min(flagged={result.flagged_cells}, cap={cap})")
    return problems


# ----------------------------------------------------------------------
# Scenario workloads: run_scenario (what `repro scenario run` calls).

def _default_config(name: str, n: int) -> Callable:
    def build(scale: float):
        from repro.core import scenario

        return scenario.get_scenario(name).default_config(_scaled(n, scale))
    return build


def _scenario_runner(name: str) -> Callable:
    def run(config, seed: int, workers: int) -> Outcome:
        from repro.core import scenario
        from repro.errors import SimulationError

        started = time.perf_counter()
        try:
            scenario_run = scenario.run_scenario(name, config, seed=seed,
                                                 workers=workers)
        except SimulationError as exc:
            # The reducers refuse results with failed jobs; count every
            # job of such a run as failed.
            wall = time.perf_counter() - started
            jobs = len(scenario.get_scenario(name).plan(config))
            return Outcome(wall=wall, backend="?", digest="", attempted=jobs,
                           failed=jobs, problems=[f"{name}: {exc}"])
        wall = time.perf_counter() - started
        results = scenario_run.results
        return Outcome(
            wall=wall, backend=scenario_run.backend,
            digest=fingerprint([(r.status, r.value, r.attempts)
                                for r in results]),
            attempted=len(results),
            failed=sum(1 for r in results if r.status in FAILED),
            scenario_timings=dict(scenario_run.timings),
            job_elapsed=[r.elapsed for r in results],
            value=scenario_run.value)
    return run


@functools.lru_cache(maxsize=4)
def _retention_window(spec) -> tuple:
    from repro.dram.cell import vrt_levels

    slow, fast = vrt_levels(spec)
    return fast * (1.0 - VRT_TOLERANCE), slow * (1.0 + VRT_TOLERANCE)


def _check_retention(config, outcome: Outcome) -> list:
    low, high = _retention_window(config.spec)
    times = np.asarray(outcome.value)
    finite = times[np.isfinite(times)]
    outside = finite[(finite < low) | (finite > high)]
    if outside.size:
        return [f"{outside.size} retention times outside the VRT levels "
                f"[{low:.4g}, {high:.4g}] s, e.g. {outside[0]:.4g} s"]
    return []


WORKLOADS = {workload.name: workload for workload in (
    Workload("ensemble_screen", _ensemble_config(64, 2), _run_ensemble,
             _check_ensemble),
    Workload("ensemble_verify", _ensemble_config(6, None), _run_ensemble,
             _check_ensemble),
    Workload("dram_fanout", _default_config("dram.retention", 300),
             _scenario_runner("dram.retention"), _check_retention),
)}
