"""Tests for the lazy population rate table (:class:`PopulationRateTable`).

The table must be a drop-in for the dense ``(K, M)`` table it replaced:
every rate it evaluates is the dense entry bit for bit, and the kernels
draw the same stream from it.  The dense path stays here as the
test-side reference: ``BatchPropensity(times, *rates_for_population(...))``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.technology import TECH_90NM
from repro.errors import ModelError
from repro.markov.batch import (
    BatchPropensity,
    simulate_traps_batch,
    simulate_traps_scalar,
)
from repro.traps.profiling import TrapProfiler
from repro.traps.propensity import (
    PopulationRateTable,
    draw_initial_states,
    population_propensity,
    propensity_sum,
    rates_for_population,
)
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1

TIMES = np.linspace(0.0, 2e-6, 161)
#: A non-stationary gate drive: two write-like pulses on a low bias.
V_GS = 0.2 + 0.9 * ((TIMES > 0.3e-6) & (TIMES < 0.9e-6)) \
    + 0.6 * np.sin(np.pi * TIMES / 2e-6) ** 2


def _population(seed: int, n_traps: int = 60) -> list:
    rng = np.random.default_rng(seed)
    return TrapProfiler(TECH_90NM).sample_fixed_count(rng, n_traps)


def _dense(traps, times=TIMES, v_gs=V_GS) -> BatchPropensity:
    """The dense table the lazy one replaced (test-side reference)."""
    return BatchPropensity(times, *rates_for_population(v_gs, traps,
                                                        TECH_90NM))


def _assert_same_run(run_a, run_b, bound_ulps: float) -> None:
    (traces_a, stats_a), (traces_b, stats_b) = run_a, run_b
    assert len(traces_a) == len(traces_b)
    for a, b in zip(traces_a, traces_b):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
    assert np.array_equal(stats_a.n_candidates, stats_b.n_candidates)
    assert np.array_equal(stats_a.n_accepted, stats_b.n_accepted)
    gap = np.abs(stats_a.rate_bounds - stats_b.rate_bounds)
    assert np.all(gap <= bound_ulps * np.spacing(stats_a.rate_bounds))


class TestEntries:
    def test_pairs_and_rows_are_the_dense_table(self):
        traps = _population(0)
        table = population_propensity(traps, TECH_90NM, TIMES, V_GS)
        dense = _dense(traps)
        assert isinstance(table, PopulationRateTable)
        assert table.n_traps == dense.n_traps == len(traps)
        rng = np.random.default_rng(1)
        rows = rng.integers(0, len(traps), 500)
        cols = rng.integers(0, TIMES.size, 500)
        assert np.array_equal(table.capture_at(rows, cols),
                              dense.capture_at(rows, cols))
        assert np.array_equal(table.emission_at(rows, cols),
                              dense.emission_at(rows, cols))
        for k in (0, 17, len(traps) - 1):
            row, expected = table.single(k), dense.single(k)
            assert np.array_equal(row.capture_values, expected.capture_values)
            assert np.array_equal(row.emission_values,
                                  expected.emission_values)
            assert row.rate_bound() == expected.rate_bound()

    def test_rate_sums_are_the_exact_eq1_sum(self):
        traps = _population(2)
        table = population_propensity(traps, TECH_90NM, TIMES, V_GS)
        sums, constant = table._sum_info()
        assert constant and sums is table.rate_sums()
        expected = [propensity_sum(trap, TECH_90NM) for trap in traps]
        assert np.allclose(sums, expected, rtol=1e-14, atol=0.0)
        dense = _dense(traps)
        assert np.allclose(sums, dense.rate_sums(), rtol=4e-16, atol=0.0)

    def test_empty_population(self):
        table = population_propensity([], TECH_90NM, TIMES, V_GS)
        assert table.n_traps == 0 and table.rate_sums().size == 0
        traces, stats = simulate_traps_batch(
            table, 0.0, 2e-6, np.random.default_rng(0))
        assert traces == [] and stats.total_candidates == 0

    def test_validation(self):
        traps = [Trap(y_tr=0.5e-9, e_tr=1.0)]
        with pytest.raises(ModelError):
            population_propensity(traps, TECH_90NM, TIMES[:1], V_GS[:1])
        with pytest.raises(ModelError):
            population_propensity(traps, TECH_90NM, TIMES, V_GS[:-1])
        with pytest.raises(ModelError):
            population_propensity(traps, TECH_90NM, TIMES[::-1], V_GS)
        with pytest.raises(ModelError):
            population_propensity([Trap(y_tr=5e-9, e_tr=1.0)], TECH_90NM,
                                  TIMES, V_GS)


class TestStreamUnchanged:
    """The lazy table draws the dense table's stream, bit for bit."""

    def _both(self, traps, seed, times=TIMES, v_gs=V_GS):
        table = population_propensity(traps, TECH_90NM, times, v_gs)
        dense = _dense(traps, times, v_gs)
        init = draw_initial_states(table.equilibrium(0),
                                   np.random.default_rng(seed))
        return [simulate_traps_batch(prop, float(times[0]),
                                     float(times[-1]),
                                     np.random.default_rng(seed),
                                     initial_states=init)
                for prop in (dense, table)]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_padded_layout(self, seed):
        # The screen's population: comparable rates, the shape a padded
        # (K, max+1) block would fit.
        dense_run, lazy_run = self._both(_population(seed), seed)
        assert dense_run[1].total_candidates > 0
        _assert_same_run(dense_run, lazy_run, bound_ulps=2)

    @staticmethod
    def _skewed(seed):
        """A population whose rates span ~8 decades, with its drive.

        Depths from 0.05 nm to 1.8 nm spread the rates; the window gives
        the fastest trap ~20k candidates.
        """
        rng = np.random.default_rng(seed)
        traps = [Trap(y_tr=float(y), e_tr=float(rng.uniform(0.6, 1.3)))
                 for y in np.concatenate(([0.05e-9],
                                          rng.uniform(0.5e-9, 1.8e-9, 200)))]
        window = 2e4 / propensity_sum(traps[0], TECH_90NM)
        times = np.linspace(0.0, window, 121)
        v_gs = 0.4 + 0.5 * np.sin(2 * np.pi * times / window) ** 2
        return traps, times, v_gs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_layout(self, seed):
        traps, times, v_gs = self._skewed(seed)
        dense_run, lazy_run = self._both(traps, seed, times, v_gs)
        _assert_same_run(dense_run, lazy_run, bound_ulps=2)

    def test_flat_layout_pin(self, occupancy_digest):
        # Pins the lazy table's stream, bit for bit, on a population
        # whose rates span ~8 decades (the ensemble digest pins the
        # screen's).
        traps, times, v_gs = self._skewed(0)
        _, lazy_run = self._both(traps, 0, times, v_gs)
        assert occupancy_digest(*lazy_run) == \
            "f46c8e12cdb33c4ca0bb0dabde09fa29"

    @pytest.mark.parametrize("seed", [0, 3])
    def test_scalar_kernel(self, seed):
        traps = _population(seed, 25)
        table = population_propensity(traps, TECH_90NM, TIMES, V_GS)
        runs = [simulate_traps_scalar(prop, 0.0, 2e-6,
                                      np.random.default_rng(seed))
                for prop in (_dense(traps), table)]
        # The scalar kernel bounds each row by its own peak sample, and
        # the rows are bit-equal, so even the bounds agree exactly.
        _assert_same_run(*runs, bound_ulps=0)
