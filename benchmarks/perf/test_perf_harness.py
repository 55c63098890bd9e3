"""Tests of the benchmark harness itself.

Run explicitly, from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf

(the tier-1 suite collects only ``tests/``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest
from repro.obs import validate_chrome_trace

from benchmarks.perf import harness, speed
from benchmarks.perf.__main__ import compare
from benchmarks.perf.layers import (
    PROBES,
    LayerTrace,
    _program_modules,
    resolve,
    traced,
)
from benchmarks.perf.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _probe(layer: str):
    return next(probe for probe in PROBES if probe.layer == layer)


@pytest.fixture(scope="module")
def declared() -> dict:
    """``BENCHMARK.json`` (``benchmark`` is pytest-benchmark's fixture)."""
    return harness.load_benchmark()


def test_self_time_is_inclusive_time_minus_wrapped_children():
    now = [0.0]
    trace = LayerTrace(clock=lambda: now[0])

    def solve():
        now[0] += 2.0

    inner = trace.wrap(_probe("spice.newton"), solve)

    def step():
        now[0] += 1.0
        inner()
        inner()
        now[0] += 3.0

    outer = trace.wrap(_probe("spice.transient"), step)

    def failing():
        now[0] += 0.5
        raise ValueError("planted")

    broken = trace.wrap(_probe("traps.rates_from_bias"), failing)
    outer()
    with pytest.raises(ValueError):
        broken()

    assert trace.calls["spice.transient"] == 1
    assert trace.calls["spice.newton"] == 2
    assert trace.inclusive["spice.transient"] == 8.0
    assert trace.self_time["spice.transient"] == 4.0
    assert trace.inclusive["spice.newton"] == trace.self_time["spice.newton"]
    assert trace.self_time["spice.newton"] == 4.0
    assert trace.self_time["traps.rates_from_bias"] == 0.5
    assert trace.root_time == 8.5
    assert trace.total_self_time == trace.root_time


def _bindings() -> dict:
    return {(module.__name__, name): value
            for module in _program_modules()
            for name, value in vars(module).items() if callable(value)}


def test_traced_wraps_every_alias_and_restores_it():
    import repro.core.ensemble
    import repro.dram.cell
    import repro.spice.transient
    import repro.sram.array  # noqa: F401 - binds more aliases

    spec, trap = repro.dram.cell.default_vrt_cell()
    originals = {probe.layer: resolve(probe)[2] for probe in PROBES}
    before = _bindings()
    with traced() as trace:
        wrapped = repro.spice.transient.simulate_transient
        assert wrapped is not originals["spice.transient"]
        assert repro.core.ensemble.simulate_transient is wrapped
        repro.dram.cell.rates_from_bias(0.0, trap, spec.technology)
        assert trace.calls["traps.rates_from_bias"] == 1
    after = _bindings()

    assert repro.core.ensemble.simulate_transient \
        is repro.spice.transient.simulate_transient \
        is originals["spice.transient"]
    assert {probe.layer: resolve(probe)[2] for probe in PROBES} == originals
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []


def test_declared_names_units_and_bounds_are_well_formed(declared):
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = workloads + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert set(workloads) == set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0.0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_rescaled_times_cancel_a_uniform_slowdown():
    quiet = speed.rescale(1.0, speed.REFERENCE_S)
    assert quiet == 1.0
    assert speed.rescale(1.4, 1.4 * speed.REFERENCE_S) == pytest.approx(quiet)
    assert speed.rescale(1.4, speed.REFERENCE_S) == pytest.approx(1.4)
    assert speed.calibrate() > 0.0


def test_trimmed_mean_ignores_one_stalled_call_in_ten():
    assert harness.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert harness.trimmed_mean([1.0, 2.0, 6.0]) == 3.0
    summary = harness.summarize(
        {"wall_serial_s": [1.0] * 9 + [100.0], "setup_s": [1.0, 2.0, 9.0]},
        [{"name": "wall_serial_s", "unit": "s"},
         {"name": "setup_s", "unit": "s"}])
    assert summary["wall_serial_s"]["value"] == 1.0
    assert summary["setup_s"]["value"] == 2.0


def _results(metrics: dict) -> dict:
    return {"workloads": {"w": {"metrics": {
        name: {"value": samples[len(samples) // 2], "samples": samples}
        for name, samples in metrics.items()}}}}


def test_compare_flags_broken_bounds_and_wide_spreads():
    bounds = {"end_to_end": [
        {"name": "wall_serial_s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    base = _results({"wall_serial_s": [1.0, 1.0, 1.0],
                     "setup_s": [1.0, 1.0, 1.0]})
    slower = _results({"wall_serial_s": [1.2, 1.2, 1.2],
                       "setup_s": [1.1, 1.1, 1.1]})
    rows, broken = compare(base, slower, bounds)
    assert broken
    assert [row[-1] for row in rows] == ["BROKEN", "ok"]

    noisy = _results({"wall_serial_s": [0.5, 1.2, 2.0],
                      "setup_s": [1.0, 1.0, 1.0]})
    rows, broken = compare(base, noisy, bounds)
    assert not broken
    assert rows[0][-1] == "unresolved"


def test_quick_smoke_run_passes_and_reports_every_declared_metric(
        declared, tmp_path):
    out = tmp_path / "results.json"
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--quick",
         "--reps", "1", "--out", str(out)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=900)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    results = json.loads(out.read_text(encoding="utf-8"))

    metrics = {m["name"] for m in
               declared["end_to_end"] + declared["per_layer"]}
    assert set(results["workloads"]) == \
        {w["name"] for w in declared["workloads"]}
    for name, record in results["workloads"].items():
        assert record["correct"], (name, record["problems"])
        assert record["failed"] == 0
        assert set(record["metrics"]) == metrics
        assert all(NAME.match(metric) for metric in record["metrics"])
        trace = json.loads((harness.OUT_DIR / f"{name}.trace.json")
                           .read_text(encoding="utf-8"))
        assert validate_chrome_trace(trace) == []
