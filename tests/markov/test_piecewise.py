"""Tests for the piecewise-constant exact solver."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.errors import SimulationError
from repro.markov.analytic import stationary_occupancy
from repro.markov.piecewise import simulate_piecewise
from repro.markov.propensity import CallableTwoStatePropensity
from repro.markov.uniformization import simulate_trap

pytestmark = pytest.mark.tier1


class TestInterface:
    def test_rejects_bad_breakpoints(self, rng):
        with pytest.raises(SimulationError):
            simulate_piecewise(np.array([0.0]), np.array([]), np.array([]), rng)
        with pytest.raises(SimulationError):
            simulate_piecewise(np.array([0.0, 0.0]), np.array([1.0]),
                               np.array([1.0]), rng)

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(SimulationError):
            simulate_piecewise(np.array([0.0, 1.0, 2.0]), np.array([1.0]),
                               np.array([1.0, 1.0]), rng)

    def test_rejects_negative_rates(self, rng):
        with pytest.raises(SimulationError):
            simulate_piecewise(np.array([0.0, 1.0]), np.array([-1.0]),
                               np.array([1.0]), rng)

    def test_rejects_bad_state(self, rng):
        with pytest.raises(SimulationError):
            simulate_piecewise(np.array([0.0, 1.0]), np.array([1.0]),
                               np.array([1.0]), rng, initial_state=3)

    def test_window(self, rng):
        trace = simulate_piecewise(np.array([1.0, 2.0, 4.0]),
                                   np.array([10.0, 20.0]),
                                   np.array([10.0, 20.0]), rng)
        assert trace.t_start == 1.0
        assert trace.t_stop == 4.0


class TestStatistics:
    def test_single_interval_equals_gillespie_statistics(self, rng_factory):
        from repro.markov.gillespie import simulate_constant
        lam_c, lam_e = 70.0, 30.0
        pw = simulate_piecewise(np.array([0.0, 200.0]), np.array([lam_c]),
                                np.array([lam_e]), rng_factory(1))
        gil = simulate_constant(lam_c, lam_e, 0.0, 200.0, rng_factory(2))
        __, p_value = stats.ks_2samp(pw.dwell_times(1), gil.dwell_times(1))
        assert p_value > 1e-3

    def test_two_regime_occupancy(self, rng):
        """Each long regime reaches its own stationary occupancy."""
        lam = 500.0
        trace = simulate_piecewise(
            np.array([0.0, 50.0, 100.0]),
            np.array([0.8 * lam, 0.2 * lam]),
            np.array([0.2 * lam, 0.8 * lam]), rng)
        first = trace.restricted(10.0, 50.0).fraction_filled()
        second = trace.restricted(60.0, 100.0).fraction_filled()
        assert first == pytest.approx(stationary_occupancy(0.8 * lam, 0.2 * lam),
                                      abs=0.03)
        assert second == pytest.approx(stationary_occupancy(0.2 * lam, 0.8 * lam),
                                       abs=0.03)

    def test_cross_validates_uniformization(self, rng_factory):
        """Piecewise oracle vs Algorithm 1 on the same step schedule."""
        total = 400.0
        breakpoints = np.array([0.0, 0.1, 0.2, 0.3])
        captures = np.array([0.9, 0.3, 0.6]) * total
        emissions = total - captures

        def lam_c(t):
            idx = np.clip(np.searchsorted(breakpoints, t, side="right") - 1,
                          0, 2)
            return captures[idx]

        def lam_e(t):
            return total - lam_c(t)

        prop = CallableTwoStatePropensity(capture_fn=lam_c, emission_fn=lam_e, rate_bound=total)
        n_runs = 250
        grid = np.array([0.05, 0.15, 0.25])
        pw_counts = np.zeros(3)
        uni_counts = np.zeros(3)
        rng_pw = rng_factory(11)
        rng_uni = rng_factory(12)
        for _ in range(n_runs):
            pw_counts += simulate_piecewise(
                breakpoints, captures, emissions, rng_pw).state_at(grid)
            uni_counts += simulate_trap(prop, 0.0, 0.3, rng_uni).state_at(grid)
        assert np.max(np.abs(pw_counts - uni_counts)) / n_runs < 0.1
