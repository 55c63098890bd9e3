"""Tests for the statistical oracles (fixed seeds: fully deterministic)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.devices.technology import TECH_90NM
from repro.errors import AnalysisError
from repro.markov.batch import BatchPropensity, simulate_traps_batch
from repro.testing.seeding import derive_rng
from repro.traps.trap import Trap
from repro.verify.oracles import (
    check_batch_scalar_equivalence,
    check_dwell_times,
    check_propensity_sum_invariant,
    check_retention_law,
    check_stationary_occupancy,
    check_transient_occupancy,
    pooled_dwell_times,
    retention_probability,
    sample_stationary_population,
)

pytestmark = pytest.mark.tier1

ALPHA = 1e-4


@pytest.fixture(scope="module")
def stationary_traces():
    """One asymmetric stationary population shared across tests."""
    return sample_stationary_population(
        lambda_c=1.0, lambda_e=0.5, n_traps=128, t_stop=30.0, seed=11)


class TestPropensitySum:
    def test_invariant_holds_for_any_trap(self):
        trap = Trap(y_tr=0.4 * TECH_90NM.t_ox, e_tr=0.07)
        check = check_propensity_sum_invariant(trap, TECH_90NM)
        assert check.passed
        assert check.kind == "bound"
        assert check.extras["expected_sum"] > 0.0

    def test_custom_bias_grid(self):
        trap = Trap(y_tr=0.2 * TECH_90NM.t_ox, e_tr=0.0)
        check = check_propensity_sum_invariant(
            trap, TECH_90NM, biases=np.linspace(0.0, 1.0, 101))
        assert check.passed


class TestStationaryOccupancy:
    def test_correct_law_passes(self, stationary_traces):
        check = check_stationary_occupancy(stationary_traces, 1.0, 0.5,
                                           ALPHA)
        assert check.passed
        assert check.extras["expected"] == pytest.approx(2.0 / 3.0)

    def test_wrong_law_fails(self, stationary_traces):
        """Power: claiming the symmetric law for a 2:1 population must
        be rejected decisively at this sample size."""
        check = check_stationary_occupancy(stationary_traces, 1.0, 1.0,
                                           ALPHA)
        assert not check.passed
        assert check.statistic < 1e-12

    def test_needs_enough_traces(self):
        traces = sample_stationary_population(1.0, 1.0, 4, 10.0, seed=0)
        with pytest.raises(AnalysisError):
            check_stationary_occupancy(traces, 1.0, 1.0, ALPHA)


class TestDwellTimes:
    def test_ks_and_chi2_pass_on_the_true_rates(self, stationary_traces):
        for state, exit_rate in ((0, 1.0), (1, 0.5)):
            for method in ("ks", "chi2"):
                check = check_dwell_times(stationary_traces, state,
                                          exit_rate, ALPHA, method=method)
                assert check.passed, (state, method)

    def test_wrong_rate_fails(self, stationary_traces):
        check = check_dwell_times(stationary_traces, 0, 3.0, ALPHA)
        assert not check.passed

    def test_pooled_dwells_have_the_right_mean(self, stationary_traces):
        dwells = pooled_dwell_times(stationary_traces, 1)
        assert dwells.size > 500
        assert dwells.mean() == pytest.approx(2.0, rel=0.2)

    def test_validation(self, stationary_traces):
        with pytest.raises(AnalysisError):
            check_dwell_times(stationary_traces, 0, 0.0, ALPHA)
        with pytest.raises(AnalysisError):
            check_dwell_times(stationary_traces, 0, 1.0, ALPHA,
                              method="anderson")
        with pytest.raises(AnalysisError):
            check_dwell_times(stationary_traces, 0, 1.0, ALPHA,
                              min_dwells=10 ** 9)


def _relaxation_traces(lam: float, n_traps: int, t_stop: float, seed: int):
    batch = BatchPropensity(
        times=np.array([0.0, t_stop]),
        capture=np.full((n_traps, 2), lam),
        emission=np.full((n_traps, 2), lam))
    traces, _ = simulate_traps_batch(batch, 0.0, t_stop,
                                     derive_rng(seed, "relax"))
    return traces


class TestTransientOccupancy:
    def test_relaxation_matches_the_ode(self):
        lam = 2.0
        traces = _relaxation_traces(lam, 256, 1.0, seed=4)
        grid = np.linspace(0.05, 1.0, 10)
        check = check_transient_occupancy(
            traces, lambda t: lam, lambda t: lam, grid,
            p1_initial=0.0, alpha=ALPHA)
        assert check.passed

    def test_initial_condition_applied_at_trace_start(self):
        """Regression: the ODE must start at the traces' t_start, not at
        grid[0].  With the old behaviour the first grid point expected
        exactly p1_initial and the check always failed (p = 0)."""
        lam = 2.0
        traces = _relaxation_traces(lam, 256, 1.0, seed=4)
        grid = np.linspace(0.05, 1.0, 10)
        check = check_transient_occupancy(
            traces, lambda t: lam, lambda t: lam, grid,
            p1_initial=0.0, alpha=ALPHA)
        # At t = 0.05 the population is already ~9% filled.
        assert check.statistic > ALPHA / grid.size

    def test_wrong_dynamics_fail(self):
        """Power: a curve relaxing to the wrong equilibrium (3:1 rates,
        p_inf = 0.75 instead of 0.5) is rejected decisively."""
        lam = 2.0
        traces = _relaxation_traces(lam, 256, 1.0, seed=4)
        grid = np.linspace(0.05, 1.0, 10)
        check = check_transient_occupancy(
            traces, lambda t: 3 * lam, lambda t: lam, grid,
            p1_initial=0.0, alpha=ALPHA)
        assert not check.passed

    def test_grid_before_start_rejected(self):
        traces = _relaxation_traces(1.0, 16, 1.0, seed=0)
        with pytest.raises(AnalysisError):
            check_transient_occupancy(
                traces, lambda t: 1.0, lambda t: 1.0,
                np.array([0.5, 1.0]), p1_initial=0.0, alpha=ALPHA,
                t_initial=0.6)


class TestBatchScalarEquivalence:
    def test_same_law_passes(self):
        rng = derive_rng(0, "equiv-pop")
        n = 48
        batch = BatchPropensity(
            times=np.array([0.0, 15.0]),
            capture=np.tile(10.0 ** rng.uniform(-0.3, 0.3, (n, 1)),
                            (1, 2)),
            emission=np.tile(10.0 ** rng.uniform(-0.3, 0.3, (n, 1)),
                             (1, 2)))
        check = check_batch_scalar_equivalence(batch, 0.0, 15.0, seed=21,
                                               alpha=ALPHA)
        assert check.passed
        assert 0.0 < check.extras["mean_occupancy_batch"] < 1.0


class TestRetentionLaw:
    """The exact retention law on an asymmetric defect (p_fill = 2/3)."""

    SLOW, FACTOR, LAM_C, LAM_E = 1.0, 3.0, 2.0, 1.0

    def law(self, t):
        return retention_probability(t, self.SLOW, self.FACTOR,
                                     self.LAM_C, self.LAM_E)

    def test_support_and_atoms(self):
        fast = self.SLOW / self.FACTOR
        p_fill = self.LAM_C / (self.LAM_C + self.LAM_E)
        below, above_fast, below_slow, at_slow = self.law(
            [0.999 * fast, (1 + 1e-9) * fast, (1 - 1e-9) * self.SLOW,
             self.SLOW])
        assert below == 0.0
        # Filled throughout [0, fast]: the fast atom.
        assert above_fast == pytest.approx(
            p_fill * np.exp(-self.LAM_E * fast), rel=1e-6)
        # Empty throughout [0, slow]: the slow atom.
        assert below_slow == pytest.approx(
            1.0 - (1.0 - p_fill) * np.exp(-self.LAM_C * self.SLOW),
            rel=1e-6)
        assert at_slow == 1.0

    def test_cdf_is_monotone(self):
        values = self.law(np.linspace(0.3, 1.0, 50))
        assert np.all(np.diff(values) >= -1e-12)

    def test_unity_factor_is_a_step_at_slow(self):
        law = retention_probability([0.5, 0.999, 1.0], 1.0, 1.0, 2.0, 1.0)
        assert list(law) == [0.0, 0.0, 1.0]

    def test_matches_simulated_occupation_times(self):
        """Independent of the DRAM code: stationary two-state traces,
        filled time over [0, t] against ``(slow - t)/(m - 1)``."""
        traces = sample_stationary_population(
            self.LAM_C, self.LAM_E, n_traps=4000, t_stop=self.SLOW,
            seed=5)
        for t in (0.34, 0.45, 0.6, 0.8, 0.95):
            filled = np.array([trace.restricted(0.0, t).fraction_filled()
                               for trace in traces]) * t
            lost = int(np.count_nonzero(
                filled >= (self.SLOW - t) / (self.FACTOR - 1.0)))
            p_val = stats.binomtest(lost, len(traces),
                                    float(self.law(t)[0])).pvalue
            assert p_val > ALPHA, t

    def test_check_validates_its_inputs(self):
        class Model:
            slow, leakage_factor = 1.0, 3.0
            capture_rate, emission_rate = 2.0, 1.0

        with pytest.raises(AnalysisError):
            check_retention_law(np.ones(4), Model, 2.0, ALPHA)
        with pytest.raises(AnalysisError):
            check_retention_law(np.ones(16), Model, 0.5, ALPHA)
