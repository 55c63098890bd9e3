"""The benchmark's supervisor: launch the children, turn timings into metrics.

Every measurement happens in a child process (:mod:`benchmarks.perf.child`)
so that each run starts from a fresh interpreter, its peak resident set
can be read from ``wait4``, and the supervisor itself stays out of the
way.  Metric names and units come from ``BENCHMARK.json``; this module
computes one list of samples per declared metric and reports its median
(the wall times: a trimmed mean, see :data:`TRIMMED_MEAN`).
End-to-end times are rescaled to reference speed by the calibrations
timed around them (:mod:`benchmarks.perf.speed`).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from . import speed

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / "benchmarks" / "out" / "perf"

#: Worker count of the parallel configuration (``nproc`` of the target box).
WORKERS = 2

#: Phases of ``EnsembleResult.timings`` reported as shares of the run.
ENSEMBLE_PHASES = ("clean_pass", "sampling", "kernels", "verification")

#: Domain layers reported as their share of the traced run's wall time:
#: metric prefix -> probe (see :data:`benchmarks.perf.layers.PROBES`).
LAYER_SHARES = {
    "traps.sample": "traps.sample",
    "traps.rates_from_bias": "traps.rates_from_bias",
    "engine.cache.build": "traps.population_propensity",
    "markov.batch": "markov.batch",
    "markov.number_filled": "markov.number_filled",
    "rtn.current": "rtn.current",
    "spice.transient": "spice.transient",
    "spice.newton": "spice.newton",
    "sram.detectors": "sram.detectors",
    "sram.biases": "sram.biases",
    "sram.margins": "sram.margins",
    "dram.retention": "dram.retention",
}

#: Metrics reported as the 10 % trimmed mean of their samples instead of
#: the median.  Rescaled wall times still scatter by 5-15 % within a run;
#: over ten runs the trimmed mean of a run's 10-14 calls spread by at most
#: 5.6 %, the median by up to 8.4 %, and one stalled call cannot move it.
TRIMMED_MEAN = frozenset({"wall_serial_s", "wall_parallel_s"})

#: Longest a child may run before it is killed [s].
CHILD_TIMEOUT = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


@dataclass(frozen=True)
class Budget:
    """How much measuring one workload gets.

    Attributes
    ----------
    seconds:
        Time the measure child spends on run pairs.
    min_reps:
        Run pairs measured even when ``seconds`` is already spent.
    setup_launches:
        Fresh interpreters timed for ``setup_s``.
    scale:
        Workload size relative to the full size (``--quick`` uses 1/8).
    """

    seconds: float
    min_reps: int = 3
    setup_launches: int = 3
    scale: float = 1.0


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``: workloads, metrics, units, bounds."""
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def require_program() -> None:
    """Fail early when the checkout holds no program to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program under {ROOT / 'src'}: the "
                             "benchmark runs from a full checkout")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(*args: str) -> tuple:
    """Run one child to completion.

    Returns ``(result, wall_s, peak_rss_mb)``: the JSON object the child
    printed last, the wall time of the whole launch, and the peak
    resident set of the child or of any process it waited for, as
    ``wait4`` reports it.
    """
    command = [sys.executable, "-m", "benchmarks.perf.child", *args]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT_DIR) as stdout:
        started = time.perf_counter()
        process = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                                   stdout=stdout)
        killer = threading.Timer(CHILD_TIMEOUT, process.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        lines = stdout.read().strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"{' '.join(args[:2])} child exited with "
                             f"{process.returncode}")
    return json.loads(lines[-1]), wall, usage.ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, interpolated linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def trimmed_mean(values, share: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``share`` of them."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def spread(samples) -> float:
    """Interquartile distance as a share of the median (0 below 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def time_setups(name: str, budget: Budget) -> list:
    """Launch-to-exit times of ``budget.setup_launches`` set-up children,
    each rescaled by the calibrations right before and after it [s at
    reference speed]."""
    setups = []
    before = speed.calibrate()
    for _ in range(budget.setup_launches):
        wall = run_child("setup", name, "--scale", str(budget.scale))[1]
        after = speed.calibrate()
        setups.append(speed.rescale(wall, (before + after) / 2.0))
        before = after
    return setups


def end_to_end_samples(setups: list, measured: dict, rss_mb: float) -> dict:
    """Samples of every end-to-end metric; times in seconds at reference
    speed (:mod:`benchmarks.perf.speed`)."""
    runs = measured["runs"]

    def walls(kind: str) -> list:
        return [speed.rescale(run["wall"], run["calibration"])
                for run in runs[kind]]

    return {
        "setup_s": list(setups),
        "wall_serial_s": walls("serial"),
        "wall_parallel_s": walls("parallel"),
        "peak_rss_mb": [rss_mb],
    }


def layer_samples(measured: dict, traced: dict) -> dict:
    """Samples of every per-layer metric.

    Ensemble phases and scenario phases come from the program's own
    timings in the untraced runs; job latencies from the parallel runs;
    everything else from the traced run.
    """
    serial = measured["runs"]["serial"]
    parallel = measured["runs"]["parallel"]
    samples: dict = {}

    for tag, runs in (("w1", serial), ("w2", parallel)):
        for phase in ENSEMBLE_PHASES:
            samples[f"ensemble.{tag}.{phase}_pct"] = [
                100.0 * run["timings"][phase] / run["timings"]["total"]
                for run in runs if run["timings"]] or [0.0]
    for phase in ("plan", "execute", "reduce"):
        samples[f"scenario.{phase}_s"] = [
            run["scenario_timings"][phase] for run in serial]

    wall_serial = statistics.median(run["wall"] for run in serial)
    wall_parallel = statistics.median(run["wall"] for run in parallel)
    execute_serial = statistics.median(
        run["scenario_timings"]["execute"] for run in serial)
    execute_parallel = statistics.median(
        run["scenario_timings"]["execute"] for run in parallel)
    latencies_ms = [1e3 * elapsed for run in parallel
                    for elapsed in run["job_elapsed"]]
    jobs = len(parallel[0]["job_elapsed"])
    samples["engine.spinup_s"] = traced["spinup_s"]
    samples["engine.job_latency_p50_ms"] = [percentile(latencies_ms, 50)]
    samples["engine.job_latency_p99_ms"] = [percentile(latencies_ms, 99)]
    # CPU-seconds the parallel run spends beyond the serial kernels, per
    # job: both workers are charged for the whole execute phase.
    samples["engine.dispatch_overhead_ms_per_job"] = [
        1e3 * (WORKERS * execute_parallel - execute_serial) / max(jobs, 1)]
    samples["engine.parallel_efficiency"] = [
        wall_serial / (WORKERS * wall_parallel)]

    counters = traced["counters"]["counters"]
    histograms = traced["counters"]["histograms"]
    wall = traced["wall"]
    self_s = traced["self_s"]

    def count(name: str) -> float:
        return float(counters.get(name, 0.0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    lookups = count("engine.cache.hits") + count("engine.cache.misses")
    samples["engine.cache.hit_rate"] = [ratio(count("engine.cache.hits"),
                                              lookups)]
    for metric, probe in LAYER_SHARES.items():
        samples[f"{metric}_pct"] = [100.0 * self_s[probe] / wall]
    samples["traps.rates_from_bias.calls"] = [
        float(traced["calls"]["traps.rates_from_bias"])]

    candidates = count("kernel.batch.candidates")
    samples["markov.batch.candidates"] = [candidates]
    samples["markov.batch.candidates_per_s"] = [
        ratio(candidates, self_s["markov.batch"])]
    samples["markov.batch.acceptance_ratio"] = [
        ratio(count("kernel.batch.accepted"), candidates)]

    steps = count("transient.steps")
    iterations = histograms.get("newton.iterations", {})
    samples["spice.transient.steps"] = [steps]
    samples["spice.steps_per_s"] = [
        ratio(steps, traced["inclusive_s"]["spice.transient"])]
    samples["spice.newton.iterations_mean"] = [
        ratio(float(iterations.get("total", 0.0)),
              float(iterations.get("count", 0)))]
    samples["spice.transient.halvings"] = [count("transient.halvings")]

    # Each traced run is compared with the untraced run next to it in
    # time, which cancels slow drifts of the machine's speed.
    walls = traced["walls"]
    samples["trace.overhead"] = [statistics.median(
        t / u for t, u in zip(walls["traced"], walls["untraced"])) - 1.0]
    samples["trace.residual_s"] = [wall - traced["root_s"]]
    samples["trace.wall_s"] = [wall]
    return samples


def summarize(samples: dict, declared: list) -> dict:
    """Attach units and statistics; the names must match ``declared``.

    A metric's value is the median of its samples, except for the
    metrics in :data:`TRIMMED_MEAN`.
    """
    names = [metric["name"] for metric in declared]
    if set(samples) != set(names):
        raise BenchmarkError(
            "computed and declared metrics differ: "
            f"{sorted(set(samples) ^ set(names))}")
    summary = {}
    for metric in declared:
        values = [float(v) for v in samples[metric["name"]]]
        if not values or not all(math.isfinite(v) for v in values):
            raise BenchmarkError(f"{metric['name']} has no finite samples: "
                                 f"{values}")
        value = trimmed_mean(values) if metric["name"] in TRIMMED_MEAN \
            else statistics.median(values)
        summary[metric["name"]] = {
            "value": value, "unit": metric["unit"],
            "n": len(values), "min": min(values), "max": max(values),
            "samples": values}
    return summary


def bench_workload(name: str, seed: int, budget: Budget, *,
                   end_to_end: bool, layers: bool, benchmark: dict) -> dict:
    """Measure one workload; returns its result record.

    ``end_to_end`` adds the set-up launches and the end-to-end metrics,
    ``layers`` the traced run and the per-layer metrics, both as declared
    in ``benchmark`` (the parsed ``BENCHMARK.json``).
    """
    setups = time_setups(name, budget) if end_to_end else []
    # A per-layer run splits its measuring time between the untraced
    # pairs and the traced comparison.
    measure_seconds = budget.seconds if end_to_end else budget.seconds / 2
    measured, _, rss_mb = run_child(
        "measure", name, "--seed", str(seed), "--scale", str(budget.scale),
        "--seconds", str(measure_seconds),
        "--min-reps", str(budget.min_reps))
    problems = list(measured["problems"])
    metrics: dict = {}
    if end_to_end:
        metrics.update(summarize(
            end_to_end_samples(setups, measured, rss_mb),
            benchmark["end_to_end"]))
    if layers:
        traced, _, _ = run_child(
            "trace", name, "--seed", str(seed), "--scale", str(budget.scale),
            "--seconds", str(budget.seconds / 2),
            "--trace-out", str(OUT_DIR / f"{name}.trace.json"))
        problems += traced["problems"]
        metrics.update(summarize(layer_samples(measured, traced),
                                 benchmark["per_layer"]))
    attempted = measured["attempted"]
    return {
        "workload": name, "seed": seed, "correct": not problems,
        "problems": problems, "attempted": attempted,
        "failed": measured["failed"],
        "failed_fraction": measured["failed"] / attempted if attempted else 0.0,
        "pairs": measured["pairs"], "backend": measured["backend"],
        "calibration_s": statistics.median(
            run["calibration"] for runs in measured["runs"].values()
            for run in runs),
        "metrics": metrics}


def format_metric(name: str, metric: dict) -> str:
    return (f"{name:40s} {metric['value']:14.6g} {metric['unit']:8s} "
            f"(n={metric['n']}, min {metric['min']:.6g}, "
            f"max {metric['max']:.6g})")
