"""Tests for the closed-form two-state chain results."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.markov.batch import BatchPropensity
from repro.markov.analytic import (
    lorentzian_corner_frequency,
    lorentzian_psd,
    occupancy_probability,
    occupancy_probability_constant,
    occupancy_recurrence,
    stationary_autocorrelation,
    stationary_autocovariance,
    stationary_occupancy,
    superposed_lorentzian_psd,
)

pytestmark = pytest.mark.tier1

rates = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


class TestStationaryOccupancy:
    def test_symmetric(self):
        assert stationary_occupancy(5.0, 5.0) == 0.5

    def test_limits(self):
        assert stationary_occupancy(1.0, 0.0) == 1.0
        assert stationary_occupancy(0.0, 1.0) == 0.0

    def test_rejects_zero_total(self):
        with pytest.raises(AnalysisError):
            stationary_occupancy(0.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(lam_c=rates, lam_e=rates)
    def test_property_beta_relation(self, lam_c, lam_e):
        """p1 == 1/(1+beta) with beta = lambda_e/lambda_c (paper Eq. 2)."""
        beta = lam_e / lam_c
        assert stationary_occupancy(lam_c, lam_e) == pytest.approx(
            1.0 / (1.0 + beta))


class TestOccupancyProbability:
    def test_constant_rates_relaxation(self):
        p = occupancy_probability_constant(0.0, 3.0, 1.0, 0.0)
        assert p == 0.0
        p_inf = occupancy_probability_constant(1e9, 3.0, 1.0, 0.0)
        assert p_inf == pytest.approx(0.75)

    def test_constant_vectorised(self):
        t = np.linspace(0, 1, 5)
        p = occupancy_probability_constant(t, 2.0, 2.0, 1.0)
        assert p.shape == t.shape
        assert np.all(np.diff(p) <= 0.0)  # decays towards 0.5 from 1

    def test_constant_rejects_negative_time(self):
        with pytest.raises(AnalysisError):
            occupancy_probability_constant(-1.0, 1.0, 1.0, 0.5)

    def test_ode_matches_closed_form_for_constant_rates(self):
        times = np.linspace(0.0, 2.0, 41)
        numeric = occupancy_probability(times, lambda t: 3.0, lambda t: 1.0, 0.1)
        exact = occupancy_probability_constant(times, 3.0, 1.0, 0.1)
        assert np.max(np.abs(numeric - exact)) < 1e-6

    def test_ode_input_validation(self):
        with pytest.raises(AnalysisError):
            occupancy_probability(np.array([0.0]), lambda t: 1.0,
                                  lambda t: 1.0, 0.5)
        with pytest.raises(AnalysisError):
            occupancy_probability(np.array([0.0, 0.0]), lambda t: 1.0,
                                  lambda t: 1.0, 0.5)
        with pytest.raises(AnalysisError):
            occupancy_probability(np.array([0.0, 1.0]), lambda t: 1.0,
                                  lambda t: 1.0, 1.5)

    def test_ode_stays_in_unit_interval(self):
        times = np.linspace(0.0, 0.1, 101)
        p = occupancy_probability(
            times,
            lambda t: 1e3 * (0.5 + 0.5 * np.sin(300.0 * t)),
            lambda t: 1e3 * (0.5 - 0.5 * np.sin(300.0 * t)),
            0.0,
        )
        assert np.all(p >= -1e-9)
        assert np.all(p <= 1.0 + 1e-9)


class TestOccupancyRecurrence:
    """The exact grid update for constant-sum (Eq.-1) rate tables."""

    TIMES = np.linspace(0.0, 2.0, 41)

    def _table(self, sums, share):
        sums = np.asarray(sums, dtype=float)[:, None]
        return BatchPropensity(times=self.TIMES, capture=sums * share,
                               emission=sums * (1.0 - share))

    def test_matches_the_ode_on_piecewise_linear_rates(self):
        # Sums from 1e-6/s (x ~ 5e-8 per step, the Taylor branch) to
        # 40/s; the ODE integrates the same interpolated capture rate.
        share = 0.5 + 0.4 * np.sin(3.0 * self.TIMES)
        sums = [1e-6, 0.5, 3.0, 40.0]
        p = occupancy_recurrence(self._table(sums, share))
        assert p.shape == (4, self.TIMES.size)
        assert np.allclose(p[:, 0], share[0], rtol=1e-12)
        def shared(t):
            return np.interp(t, self.TIMES, share)

        for row, total in zip(p, sums):
            ode = occupancy_probability(
                self.TIMES, lambda t, c=total: c * shared(t),
                lambda t, c=total: c * (1.0 - shared(t)), row[0],
                rtol=1e-11, atol=1e-13)
            assert np.max(np.abs(row - ode)) < 1e-8

    def test_constant_rates_match_the_closed_form(self):
        share = np.full(self.TIMES.size, 0.25)
        p = occupancy_recurrence(self._table([2.0, 7.0], share),
                                 initial=np.array([0.0, 1.0]))
        for row, total, start in zip(p, (2.0, 7.0), (0.0, 1.0)):
            assert np.allclose(row, occupancy_probability_constant(
                self.TIMES, 0.25 * total, 0.75 * total, start),
                rtol=0.0, atol=1e-14)

    def test_rejects_a_non_constant_sum(self):
        table = BatchPropensity(times=self.TIMES,
                                capture=np.ones((1, self.TIMES.size)),
                                emission=np.linspace(1.0, 2.0,
                                                     self.TIMES.size)[None])
        with pytest.raises(AnalysisError, match="constant-sum"):
            occupancy_recurrence(table)


class TestAutocorrelation:
    def test_zero_lag_values(self):
        lam_c, lam_e, d_i = 4.0, 6.0, 2.0
        p1 = stationary_occupancy(lam_c, lam_e)
        assert stationary_autocovariance(0.0, lam_c, lam_e, d_i) == \
            pytest.approx(d_i ** 2 * p1 * (1 - p1))
        # R(0) = E[I^2] = delta_i^2 * p1 for a 0/1 process.
        assert stationary_autocorrelation(0.0, lam_c, lam_e, d_i) == \
            pytest.approx(d_i ** 2 * p1)

    def test_symmetry_in_tau(self):
        tau = np.array([-0.3, 0.3])
        values = stationary_autocorrelation(tau, 5.0, 5.0, 1.0)
        assert values[0] == pytest.approx(values[1])

    def test_long_lag_limit_is_dc_squared(self):
        lam_c, lam_e, d_i = 7.0, 3.0, 1.5
        p1 = stationary_occupancy(lam_c, lam_e)
        assert stationary_autocorrelation(1e6, lam_c, lam_e, d_i) == \
            pytest.approx((d_i * p1) ** 2)

    @settings(max_examples=50, deadline=None)
    @given(lam_c=rates, lam_e=rates,
           tau=st.floats(min_value=0.0, max_value=10.0))
    def test_property_decay_rate(self, lam_c, lam_e, tau):
        """The covariance decays exactly at rate lambda_c + lambda_e."""
        c0 = stationary_autocovariance(0.0, lam_c, lam_e)
        ct = stationary_autocovariance(tau, lam_c, lam_e)
        expected = c0 * np.exp(-(lam_c + lam_e) * tau)
        assert ct == pytest.approx(expected, rel=1e-9, abs=1e-300)


class TestLorentzian:
    def test_plateau_value(self):
        lam_c, lam_e, d_i = 100.0, 300.0, 1e-6
        p1 = stationary_occupancy(lam_c, lam_e)
        total = lam_c + lam_e
        assert lorentzian_psd(0.0, lam_c, lam_e, d_i) == \
            pytest.approx(4 * d_i ** 2 * p1 * (1 - p1) / total)

    def test_corner_frequency(self):
        assert lorentzian_corner_frequency(100.0, 300.0) == \
            pytest.approx(400.0 / (2 * np.pi))
        with pytest.raises(AnalysisError):
            lorentzian_corner_frequency(0.0, 0.0)

    def test_half_power_at_corner(self):
        lam_c, lam_e = 50.0, 150.0
        f_c = lorentzian_corner_frequency(lam_c, lam_e)
        assert lorentzian_psd(f_c, lam_c, lam_e) == \
            pytest.approx(0.5 * lorentzian_psd(0.0, lam_c, lam_e))

    def test_high_frequency_rolloff(self):
        """S(f) ~ 1/f^2 far above the corner."""
        lam_c, lam_e = 10.0, 10.0
        s1 = lorentzian_psd(1e5, lam_c, lam_e)
        s2 = lorentzian_psd(2e5, lam_c, lam_e)
        assert s1 / s2 == pytest.approx(4.0, rel=1e-3)

    def test_parseval_consistency(self):
        """Integral of the one-sided PSD equals the variance C(0)."""
        lam_c, lam_e, d_i = 40.0, 60.0, 2.0
        freq = np.linspace(0.0, 5e4, 2_000_001)
        psd = lorentzian_psd(freq, lam_c, lam_e, d_i)
        integral = np.trapezoid(psd, freq)
        assert integral == pytest.approx(
            stationary_autocovariance(0.0, lam_c, lam_e, d_i), rel=1e-2)

    def test_superposition_additivity(self):
        f = np.logspace(0, 4, 20)
        single = lorentzian_psd(f, 10.0, 20.0, 1.0)
        double = superposed_lorentzian_psd(
            f, [10.0, 10.0], [20.0, 20.0], [1.0, 1.0])
        assert np.allclose(double, 2.0 * single)

    def test_superposition_shape_validation(self):
        with pytest.raises(AnalysisError):
            superposed_lorentzian_psd(1.0, [1.0], [1.0, 2.0], [1.0])
