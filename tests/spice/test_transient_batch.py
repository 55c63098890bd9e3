"""Lockstep transients: B circuits of one topology stepped together.

Every cell of a batch must get the bits of its own run, including a
cell that fails in the batch and finishes alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core.experiments import fig8_cell_spec, fig8_pattern
from repro.core.methodology import MethodologyConfig, PatternBench
from repro.errors import ConvergenceError, NetlistError, SimulationError
from repro.rtn.trace import RTNTrace
from repro.spice.newton import (
    NewtonOptions,
    newton_iterate,
    solve_newton_detailed,
)
from repro.spice.transient import (
    TransientOptions,
    simulate_transient,
    simulate_transient_batch,
)
from repro.sram.injection import attach_rtn_sources

pytestmark = pytest.mark.tier1


def fig8_benches(count: int, forced: int | None = None) -> list:
    """``count`` Fig.-8 cells with distinct ``vt_shifts``, each with an
    RTN current pulse train on M1; cell ``forced`` gets a 0.4 A one,
    which its Newton cannot follow in one step at the default options."""
    spec, pattern = fig8_cell_spec(), fig8_pattern(bits=(1,))
    benches = []
    for k in range(count):
        cell_spec = dataclasses.replace(
            spec, vt_shifts={"M1": 0.01 * k, "M4": -0.005 * k})
        bench = PatternBench.build(cell_spec, pattern, MethodologyConfig())
        times = np.linspace(0.0, bench.waves.duration, 50)
        amplitude = 0.4 if k == forced else 1e-6 * (1 + k)
        pulses = amplitude * (np.arange(times.size) % 7 == 3)
        attach_rtn_sources(bench.cell,
                           {"M1": RTNTrace(times=times, current=pulses)})
        benches.append(bench)
    return benches


def run_batch(benches, options=None) -> list:
    return simulate_transient_batch(
        [bench.cell.circuit for bench in benches], benches[0].waves.duration,
        benches[0].dt, initial_voltages=[bench.initial for bench in benches],
        options=options)


def run_alone(bench, options=None):
    return simulate_transient(bench.cell.circuit, bench.waves.duration,
                              bench.dt, initial_voltages=bench.initial,
                              options=options)


def assert_same_bits(batched, alone) -> None:
    assert np.array_equal(batched.times, alone.times)
    assert list(batched.signals) == list(alone.signals)
    for name in alone.signals:
        assert np.array_equal(batched[name], alone[name]), name


class TestBitIdentity:
    @pytest.mark.parametrize("count", [1, 2, 6])
    def test_every_cell_gets_the_bits_of_its_own_run(self, count):
        benches = fig8_benches(count)
        for bench, waveform in zip(benches, run_batch(benches)):
            assert_same_bits(waveform, run_alone(bench))

    def test_a_cell_that_fails_in_the_batch_finishes_alone(self,
                                                          monkeypatch):
        # The traced blocks get their own registry; the shared one is
        # put back afterwards.
        monkeypatch.setattr(obs, "_metrics", obs.metrics())
        benches = fig8_benches(6, forced=3)
        with obs.enable_tracing():
            waveforms = run_batch(benches)
            counters = obs.metrics().snapshot()["counters"]
        # Only the forced cell left the batch, and it halved a step.
        assert counters["transient.dropouts"] == 1
        assert counters["transient.halvings"] >= 1
        assert counters["transient.runs"] == 6
        for bench, waveform in zip(benches, waveforms):
            assert_same_bits(waveform, run_alone(bench))

    def test_a_cell_that_fails_alone_returns_its_error(self):
        benches = fig8_benches(3, forced=1)
        options = TransientOptions(max_halvings=0, recovery=False)
        first, failed, last = run_batch(benches, options)
        assert isinstance(failed, ConvergenceError)
        with pytest.raises(ConvergenceError) as alone:
            run_alone(benches[1], options)
        assert str(failed) == str(alone.value)
        assert failed.iterations == alone.value.iterations
        assert_same_bits(first, run_alone(benches[0], options))
        assert_same_bits(last, run_alone(benches[2], options))

    def test_steps_count_per_cell(self, monkeypatch):
        monkeypatch.setattr(obs, "_metrics", obs.metrics())
        benches = fig8_benches(2)
        with obs.enable_tracing():
            run_alone(benches[0])
            alone = obs.metrics().snapshot()["counters"]
        with obs.enable_tracing():
            run_batch(benches)
            batched = obs.metrics().snapshot()["counters"]
        assert batched["transient.steps"] == 2 * alone["transient.steps"]
        assert batched["transient.batches"] == 1
        assert "transient.batches" not in alone


class TestRefusals:
    def test_circuits_of_two_topologies(self):
        benches = fig8_benches(2)
        attach_rtn_sources(benches[1].cell, {"M2": RTNTrace(
            times=np.array([0.0, 1.0]), current=np.zeros(2))})
        with pytest.raises(NetlistError, match="topology"):
            run_batch(benches)

    def test_a_hook_runs_one_circuit(self):
        benches = fig8_benches(2)
        options = TransientOptions(pre_step=lambda t, x: None)
        with pytest.raises(SimulationError, match="one circuit"):
            run_batch(benches, options)


def fixed_point(g):
    """Batch assembler of the 1-D fixed-point maps ``x -> g(x)``."""
    def assemble(x):
        return (np.broadcast_to(np.eye(1), (len(x), 1, 1)),
                np.array([[g(row, float(value[0]))]
                          for row, value in enumerate(x)]))
    return assemble


class TestNewtonRows:
    def test_each_row_converges_on_its_own(self):
        # Row 0 cuts its distance to 1 tenfold per iterate, row 1 its
        # distance to 3 twofold: row 1 needs more iterates, and row 0
        # freezes meanwhile.
        rates = (0.1, 0.5)
        targets = (1.0, 3.0)

        def g(row, x):
            return targets[row] + rates[row] * (x - targets[row])

        outcome = newton_iterate(fixed_point(g), np.zeros((2, 1)),
                                 NewtonOptions())
        assert not outcome.errors
        for row in range(2):
            x, info = solve_newton_detailed(
                lambda x, row=row: (np.eye(1), np.array([g(row, x[0])])),
                np.zeros(1))
            assert outcome.x[row].tobytes() == x.tobytes()
            assert outcome.iterations[row] == info.iterations
            assert outcome.residual[row] == info.residual
        assert outcome.iterations[0] < outcome.iterations[1]

    def test_a_singular_row_fails_alone(self):
        def assemble(x):
            matrix = np.stack([np.eye(1), np.zeros((1, 1))])
            return matrix, np.ones((2, 1))

        outcome = newton_iterate(assemble, np.zeros((2, 1)), NewtonOptions())
        assert list(outcome.errors) == [1]
        assert "singular" in str(outcome.errors[1])
        assert outcome.x[0, 0] == 1.0
        assert outcome.x[1, 0] == 0.0  # kept its last finite iterate
