"""Child processes of the benchmark; each prints one JSON line last.

``python -m benchmarks.perf.child MODE WORKLOAD --seed N [...]`` with

``setup``
    Build the workload config in a fresh interpreter and exit; the
    parent times the whole launch.
``measure``
    Warm up at 1/8 size, then time pairs of one ``workers=1`` and one
    ``workers=2`` run on the same inputs, alternating which goes first,
    for about ``--seconds`` (a pair starts only if it should end in
    time) and at least ``--min-reps`` pairs.
    :func:`benchmarks.perf.speed.calibrate` runs before the first run
    and after every run; each run records the mean of the two around it.
    Every pair is checked: the two outputs must be bit-identical, and
    the workload's own output checks must pass.
``trace``
    Time pairs of one untraced and one traced ``workers=1`` run on the
    inputs of pair 0, alternating which goes first, until ``--seconds``
    have passed and 3 pairs are done, with every probe of
    :mod:`benchmarks.perf.layers` wrapped during the traced runs; write
    the last traced run's spans as a Chrome trace, then time the
    spin-up of the shared backend.

The parent sets ``PYTHONPATH`` (``src`` and the repository root) and
one BLAS/OpenMP thread per process, so that ``workers=2`` keeps exactly
two threads busy.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import sys
import time
from pathlib import Path

from . import speed
from .harness import WORKERS
from .workloads import WORKLOADS, pair_seed

#: Size of the untimed warm-up run, relative to the timed runs.
WARM_UP_SCALE = 1.0 / 8.0

#: Untraced/traced run pairs per trace child, at least.
TRACE_MIN_PAIRS = 3

#: Spin-up timings of the shared backend per trace child.
SPINUP_SAMPLES = 3

#: Longest wait for the previous run's worker processes to exit [s].
POOL_EXIT_WAIT = 2.0


def _fresh() -> None:
    """State every CLI invocation starts from: cold propensity cache, no
    garbage left over from the previous run, and no worker of its pool
    still shutting down on one of the cores."""
    from repro.core import engine

    engine.propensity_cache().clear()
    gc.collect()
    deadline = time.monotonic() + POOL_EXIT_WAIT
    while multiprocessing.active_children() \
            and time.monotonic() < deadline:
        time.sleep(0.005)


def setup(workload, scale: float) -> dict:
    workload.build(scale)
    return {"workload": workload.name}


def measure(workload, seed: int, scale: float, seconds: float,
            min_reps: int) -> dict:
    warm = workload.build(scale * WARM_UP_SCALE)
    for workers in (1, WORKERS):
        _fresh()
        workload.run(warm, pair_seed(seed, 0), workers)
    speed.calibrate()

    config = workload.build(scale)
    runs = {"serial": [], "parallel": []}
    problems: list = []
    attempted = failed = 0
    backends: dict = {}
    started = time.perf_counter()
    pair = 0
    _fresh()
    before = speed.calibrate()
    # A pair starts only if it should end within ``seconds``, judged by
    # the mean length of the pairs so far.
    while pair < max(min_reps, 1) or (time.perf_counter() - started) \
            * (pair + 1) / pair <= seconds:
        inputs = pair_seed(seed, pair)
        order = (1, WORKERS) if pair % 2 == 0 else (WORKERS, 1)
        outcomes = {}
        calibrations = {}
        for workers in order:
            outcomes[workers] = workload.run(config, inputs, workers)
            _fresh()
            after = speed.calibrate()
            calibrations[workers] = (before + after) / 2.0
            before = after
        for workers, outcome in outcomes.items():
            kind = "serial" if workers == 1 else "parallel"
            backends[kind] = outcome.backend
            attempted += outcome.attempted
            failed += outcome.failed
            problems += [f"pair {pair} {kind}: {p}" for p in outcome.problems]
            runs[kind].append({
                "wall": outcome.wall, "calibration": calibrations[workers],
                "timings": outcome.timings,
                "scenario_timings": outcome.scenario_timings,
                "job_elapsed": outcome.job_elapsed})
        serial, parallel = outcomes[1], outcomes[WORKERS]
        if not serial.problems:
            problems += [f"pair {pair}: {p}"
                         for p in workload.check(config, serial)]
        if serial.digest != parallel.digest:
            problems.append(f"pair {pair}: workers=1 and workers={WORKERS} "
                            "outputs differ")
        pair += 1
    return {"pairs": pair, "runs": runs, "backend": backends,
            "attempted": attempted, "failed": failed, "problems": problems}


def trace(workload, seed: int, scale: float, seconds: float,
          trace_path: str) -> dict:
    from repro import obs
    from repro.core import engine

    from .layers import traced

    warm = workload.build(scale * WARM_UP_SCALE)
    _fresh()
    workload.run(warm, pair_seed(seed, 0), 1)

    config = workload.build(scale)
    inputs = pair_seed(seed, 0)
    walls = {"untraced": [], "traced": []}
    layer_runs = []
    digests = set()
    problems: list = []
    started = time.perf_counter()
    pair = 0
    while pair < TRACE_MIN_PAIRS or time.perf_counter() - started < seconds:
        order = ("untraced", "traced") if pair % 2 == 0 \
            else ("traced", "untraced")
        for mode in order:
            _fresh()
            if mode == "untraced":
                outcome = workload.run(config, inputs, 1)
            else:
                tracer = obs.enable()
                try:
                    with traced(tracer) as layers:
                        outcome = workload.run(config, inputs, 1)
                    counters = obs.metrics().snapshot()
                finally:
                    obs.disable()
                layer_runs.append(layers)
                # The accounting must close: self times add up to the
                # outermost calls.
                if abs(layers.total_self_time - layers.root_time) \
                        > 0.01 * outcome.wall:
                    problems.append(
                        f"self times sum to {layers.total_self_time:.6f} s "
                        f"but the outermost calls took "
                        f"{layers.root_time:.6f} s")
            walls[mode].append(outcome.wall)
            digests.add(outcome.digest)
            problems += outcome.problems
        pair += 1
    if len(digests) != 1:
        problems.append("traced and untraced outputs differ")

    path = Path(trace_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome(path)
    with open(path, encoding="utf-8") as handle:
        problems += [f"trace: {p}" for p in
                     obs.validate_chrome_trace(json.load(handle))]

    spinup = []
    for _ in range(SPINUP_SAMPLES):
        began = time.perf_counter()
        engine.get_backend("shared").run(abs, [0, 0], keys=[0, 1],
                                         workers=WORKERS)
        spinup.append(time.perf_counter() - began)

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    # Every traced run saw the same inputs, so its calls and counters are
    # the same; its times are averaged over the traced runs.
    return {"walls": walls, "wall": mean(walls["traced"]),
            "root_s": mean(run.root_time for run in layer_runs),
            "self_s": {layer: mean(run.self_time[layer]
                                   for run in layer_runs)
                       for layer in layers.self_time},
            "inclusive_s": {layer: mean(run.inclusive[layer]
                                        for run in layer_runs)
                            for layer in layers.inclusive},
            "calls": layers.calls, "counters": counters,
            "spans": len(tracer.records), "trace": str(path),
            "spinup_s": spinup, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.child")
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.scale)
    elif args.mode == "measure":
        result = measure(workload, args.seed, args.scale, args.seconds,
                         args.min_reps)
    else:
        if not args.trace_out:
            parser.error("trace needs --trace-out")
        result = trace(workload, args.seed, args.scale, args.seconds,
                       args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
