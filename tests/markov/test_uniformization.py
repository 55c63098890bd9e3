"""Tests for the uniformisation kernel (paper Algorithm 1).

The load-bearing checks are statistical: at constant rates the kernel
must be distributionally indistinguishable from the Gillespie oracle,
and under time-varying rates the empirical occupancy probability must
track the master-equation solution.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.errors import SimulationError
from repro.markov.analytic import (
    occupancy_probability,
    occupancy_probability_constant,
    stationary_occupancy,
)
from repro.markov.propensity import (
    CallableTwoStatePropensity,
    ConstantTwoStatePropensity,
    SampledTwoStatePropensity,
)
from repro.markov.batch import BatchPropensity, simulate_traps_scalar
from repro.markov.uniformization import simulate_trap, simulate_trap_detailed

pytestmark = pytest.mark.tier1


class TestInterface:
    def test_rejects_bad_window(self, rng):
        prop = ConstantTwoStatePropensity(lambda_c=1.0, lambda_e=1.0)
        with pytest.raises(SimulationError):
            simulate_trap(prop, 1.0, 1.0, rng)
        with pytest.raises(SimulationError):
            simulate_trap(prop, 1.0, 0.0, rng)
        for t_start, t_stop in ((np.nan, 1.0), (0.0, np.nan),
                                (-np.inf, 1.0), (0.0, np.inf)):
            with pytest.raises(SimulationError):
                simulate_trap(prop, t_start, t_stop, rng)

    def test_rejects_bad_initial_state(self, rng):
        prop = ConstantTwoStatePropensity(lambda_c=1.0, lambda_e=1.0)
        with pytest.raises(SimulationError):
            simulate_trap(prop, 0.0, 1.0, rng, initial_state=2)

    def test_rejects_bad_bound_override(self, rng):
        prop = ConstantTwoStatePropensity(lambda_c=1.0, lambda_e=1.0)
        with pytest.raises(SimulationError):
            simulate_trap(prop, 0.0, 1.0, rng, rate_bound=-1.0)

    def test_rejects_explosive_runs(self, rng):
        prop = ConstantTwoStatePropensity(lambda_c=1e12, lambda_e=1e12)
        with pytest.raises(SimulationError):
            simulate_trap(prop, 0.0, 1.0, rng)

    def test_invalid_bound_detected_during_run(self, rng):
        # Bound below the true rate must be caught, not silently wrong.
        prop = CallableTwoStatePropensity(capture_fn=
            lambda t: 10.0, emission_fn=lambda t: 10.0, rate_bound=20.0)
        with pytest.raises(SimulationError):
            simulate_trap(prop, 0.0, 100.0, rng, rate_bound=1.0)

    def test_trace_covers_window(self, rng):
        prop = ConstantTwoStatePropensity(lambda_c=5.0, lambda_e=5.0)
        trace = simulate_trap(prop, 2.0, 12.0, rng, initial_state=1)
        assert trace.t_start == 2.0
        assert trace.t_stop == 12.0
        assert trace.initial_state == 1

    def test_reproducible_given_seed(self, rng_factory):
        prop = ConstantTwoStatePropensity(lambda_c=50.0, lambda_e=30.0)
        a = simulate_trap(prop, 0.0, 10.0, rng_factory(7))
        b = simulate_trap(prop, 0.0, 10.0, rng_factory(7))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_detailed_stats_consistent(self, rng):
        prop = ConstantTwoStatePropensity(lambda_c=40.0, lambda_e=60.0)
        trace, stats_ = simulate_trap_detailed(prop, 0.0, 20.0, rng)
        assert stats_.rate_bound == 100.0
        assert stats_.n_accepted == trace.n_transitions
        assert stats_.n_candidates >= stats_.n_accepted
        assert 0.0 <= stats_.acceptance_ratio <= 1.0

    def test_zero_candidate_acceptance_ratio(self):
        from repro.markov.uniformization import UniformizationStats
        s = UniformizationStats(n_candidates=0, n_accepted=0, rate_bound=1.0)
        assert s.acceptance_ratio == 0.0

    def test_simulate_traps_defaults_and_validation(self, rng):
        props = BatchPropensity(times=np.array([0.0, 5.0]),
                                capture=np.full((3, 2), 10.0),
                                emission=np.full((3, 2), 10.0))
        traces, stats = simulate_traps_scalar(props, 0.0, 5.0, rng)
        assert len(traces) == 3
        assert all(t.initial_state == 0 for t in traces)
        assert stats.total_accepted == sum(t.n_transitions for t in traces)
        with pytest.raises(SimulationError):
            simulate_traps_scalar(props, 0.0, 5.0, rng, initial_states=[0, 1])


class TestConstantRateStatistics:
    """At constant rates, Algorithm 1 must match the stationary oracle."""

    def test_occupancy_matches_stationary(self, rng):
        lam_c, lam_e = 80.0, 40.0
        prop = ConstantTwoStatePropensity(lambda_c=lam_c, lambda_e=lam_e)
        trace = simulate_trap(prop, 0.0, 400.0, rng, initial_state=0)
        expected = stationary_occupancy(lam_c, lam_e)
        # Standard error of the time-average ~ sqrt(2 p q / (S T)) ~ 0.003.
        assert trace.fraction_filled() == pytest.approx(expected, abs=0.02)

    def test_dwell_times_are_exponential(self, rng):
        lam_c, lam_e = 100.0, 60.0
        prop = ConstantTwoStatePropensity(lambda_c=lam_c, lambda_e=lam_e)
        trace = simulate_trap(prop, 0.0, 200.0, rng)
        for state, rate in ((0, lam_c), (1, lam_e)):
            dwells = trace.dwell_times(state)
            assert dwells.size > 1000
            assert dwells.mean() == pytest.approx(1.0 / rate, rel=0.1)
            __, p_value = stats.kstest(dwells, "expon", args=(0, 1.0 / rate))
            assert p_value > 1e-3

    def test_transition_count_near_expectation(self, rng):
        lam_c, lam_e = 50.0, 50.0
        prop = ConstantTwoStatePropensity(lambda_c=lam_c, lambda_e=lam_e)
        t_total = 100.0
        trace = simulate_trap(prop, 0.0, t_total, rng)
        # Symmetric chain: transition rate is 50/s in both states.
        expected = 50.0 * t_total
        assert trace.n_transitions == pytest.approx(expected, rel=0.1)

    def test_matches_gillespie_distribution(self, rng_factory):
        """KS test on final-state-resolved dwell samples vs Gillespie."""
        from repro.markov.gillespie import simulate_constant
        lam_c, lam_e = 30.0, 70.0
        prop = ConstantTwoStatePropensity(lambda_c=lam_c, lambda_e=lam_e)
        uni = simulate_trap(prop, 0.0, 300.0, rng_factory(1))
        gil = simulate_constant(lam_c, lam_e, 0.0, 300.0, rng_factory(2))
        for state in (0, 1):
            __, p_value = stats.ks_2samp(uni.dwell_times(state),
                                         gil.dwell_times(state))
            assert p_value > 1e-3

    def test_loose_bound_preserves_statistics(self, rng_factory):
        """Ablation A3 invariant: inflating lambda* changes cost only."""
        lam_c, lam_e = 60.0, 20.0
        prop = ConstantTwoStatePropensity(lambda_c=lam_c, lambda_e=lam_e)
        tight = simulate_trap(prop, 0.0, 300.0, rng_factory(3))
        loose = simulate_trap(prop, 0.0, 300.0, rng_factory(4),
                              rate_bound=10.0 * (lam_c + lam_e))
        assert tight.fraction_filled() == pytest.approx(
            loose.fraction_filled(), abs=0.02)
        __, p_value = stats.ks_2samp(tight.dwell_times(1), loose.dwell_times(1))
        assert p_value > 1e-3

    def test_loose_bound_costs_more_candidates(self, rng_factory):
        prop = ConstantTwoStatePropensity(lambda_c=60.0, lambda_e=20.0)
        __, tight = simulate_trap_detailed(prop, 0.0, 100.0, rng_factory(5))
        __, loose = simulate_trap_detailed(prop, 0.0, 100.0, rng_factory(6),
                                           rate_bound=10.0 * 80.0)
        assert loose.n_candidates > 5 * tight.n_candidates
        assert loose.acceptance_ratio < tight.acceptance_ratio


class TestNonStationaryStatistics:
    """Under time-varying rates the kernel must track the master equation."""

    def test_relaxation_from_empty(self, rng):
        """p1(t) relaxation at constant rates from a non-equilibrium start."""
        lam_c, lam_e = 200.0, 100.0
        prop = ConstantTwoStatePropensity(lambda_c=lam_c, lambda_e=lam_e)
        n_runs = 400
        grid = np.linspace(0.0, 0.02, 21)
        counts = np.zeros_like(grid)
        for _ in range(n_runs):
            trace = simulate_trap(prop, 0.0, 0.02, rng, initial_state=0)
            counts += trace.sample(grid)
        empirical = counts / n_runs
        expected = occupancy_probability_constant(grid, lam_c, lam_e, 0.0)
        assert np.max(np.abs(empirical - expected)) < 0.08

    def test_sinusoidal_bias_tracks_master_equation(self, rng):
        """Time-varying beta with constant sum — the SAMURAI trap structure."""
        total = 500.0
        omega = 2.0 * np.pi * 50.0

        def lam_c(t):
            return total * (0.5 + 0.4 * np.sin(omega * np.asarray(t)))

        def lam_e(t):
            return total - lam_c(t)

        prop = CallableTwoStatePropensity(capture_fn=lam_c, emission_fn=lam_e, rate_bound=total)
        t_stop = 0.04
        grid = np.linspace(0.0, t_stop, 33)
        n_runs = 600
        counts = np.zeros_like(grid)
        for _ in range(n_runs):
            trace = simulate_trap(prop, 0.0, t_stop, rng, initial_state=0)
            counts += trace.sample(grid)
        empirical = counts / n_runs
        expected = occupancy_probability(grid, lam_c, lam_e, 0.0)
        assert np.max(np.abs(empirical - expected)) < 0.08

    def test_step_bias_switches_occupancy(self, rng):
        """A step in beta must move the occupancy to the new equilibrium."""
        total = 1000.0

        def lam_c(t):
            return np.where(np.asarray(t) < 0.05, 0.9 * total, 0.1 * total)

        def lam_e(t):
            return total - lam_c(t)

        prop = CallableTwoStatePropensity(capture_fn=lam_c, emission_fn=lam_e, rate_bound=total)
        n_runs = 300
        before = np.zeros(n_runs)
        after = np.zeros(n_runs)
        for i in range(n_runs):
            trace = simulate_trap(prop, 0.0, 0.1, rng, initial_state=0)
            before[i] = trace.state_at(0.049)
            after[i] = trace.state_at(0.099)
        assert before.mean() == pytest.approx(0.9, abs=0.07)
        assert after.mean() == pytest.approx(0.1, abs=0.07)

    def test_sampled_propensity_end_to_end(self, rng):
        """The SampledTwoStatePropensity path used by SAMURAI proper."""
        times = np.linspace(0.0, 0.1, 101)
        capture = 400.0 + 300.0 * np.sin(2 * np.pi * 30.0 * times)
        emission = 800.0 - capture
        prop = SampledTwoStatePropensity(times=times, capture_values=capture, emission_values=emission)
        trace = simulate_trap(prop, 0.0, 0.1, rng)
        assert trace.t_stop == 0.1
        assert trace.n_transitions > 10
