"""Tests for PSD estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.autocorr import autocovariance
from repro.analysis.psd import periodogram_psd, psd_from_autocovariance, welch_psd
from repro.errors import AnalysisError
from repro.markov.analytic import lorentzian_corner_frequency, lorentzian_psd
from repro.markov.gillespie import simulate_constant

pytestmark = pytest.mark.tier1


class TestInterface:
    def test_welch_rejects_short(self):
        with pytest.raises(AnalysisError):
            welch_psd(np.zeros(8), 1.0)

    def test_welch_rejects_bad_dt(self):
        with pytest.raises(AnalysisError):
            welch_psd(np.zeros(100), -1.0)

    def test_periodogram_rejects_short(self):
        with pytest.raises(AnalysisError):
            periodogram_psd(np.zeros(4), 1.0)

    def test_no_dc_bin(self):
        rng = np.random.default_rng(0)
        f, s = welch_psd(rng.normal(size=4096), 1.0)
        assert f[0] > 0.0
        f, s = periodogram_psd(rng.normal(size=4096), 1.0)
        assert f[0] > 0.0

    def test_psd_from_cov_validation(self):
        freq = np.logspace(0, 2, 10)
        with pytest.raises(AnalysisError):
            psd_from_autocovariance(np.array([0.0, 1.0]), np.array([1.0, 0.5]),
                                    freq)
        with pytest.raises(AnalysisError):
            psd_from_autocovariance(np.array([1.0, 2.0, 3.0, 4.0]),
                                    np.ones(4), freq)


class TestWhiteNoise:
    def test_flat_density_parseval(self):
        """White noise of variance v sampled at fs has density 2 v / fs
        one-sided (variance spread over [0, fs/2])."""
        rng = np.random.default_rng(7)
        fs = 100.0
        x = rng.normal(scale=2.0, size=400_000)
        f, s = welch_psd(x, 1.0 / fs)
        expected = 2.0 * 4.0 / fs
        assert np.median(s) == pytest.approx(expected, rel=0.05)


class TestLorentzianRecovery:
    @pytest.fixture()
    def telegraph(self, rng):
        lam_c, lam_e = 800.0, 400.0
        trace = simulate_constant(lam_c, lam_e, 0.0, 200.0, rng)
        dt = 5e-5
        grid = np.arange(0.0, 200.0, dt)
        return lam_c, lam_e, dt, trace.sample(grid).astype(float)

    def test_welch_matches_lorentzian(self, telegraph):
        lam_c, lam_e, dt, samples = telegraph
        f, s = welch_psd(samples, dt, nperseg=16384)
        model = lorentzian_psd(f, lam_c, lam_e, 1.0)
        # Compare in the well-resolved band around the corner.
        f_c = lorentzian_corner_frequency(lam_c, lam_e)
        band = (f > f_c / 10) & (f < f_c * 10)
        ratio = s[band] / model[band]
        assert np.median(ratio) == pytest.approx(1.0, abs=0.15)

    def test_cov_route_matches_welch(self, telegraph):
        """The paper's R(tau)->S(f) route agrees with direct Welch."""
        lam_c, lam_e, dt, samples = telegraph
        lags, cov = autocovariance(samples, dt, max_lag=4000)
        freq = np.logspace(1.0, 3.5, 40)
        s_cov = psd_from_autocovariance(lags, cov, freq)
        model = lorentzian_psd(freq, lam_c, lam_e, 1.0)
        band = s_cov > 0
        ratio = s_cov[band] / model[band]
        assert np.median(ratio) == pytest.approx(1.0, abs=0.25)

    def test_corner_visible(self, telegraph):
        lam_c, lam_e, dt, samples = telegraph
        f, s = welch_psd(samples, dt, nperseg=16384)
        f_c = lorentzian_corner_frequency(lam_c, lam_e)
        low = np.median(s[(f > f_c / 8) & (f < f_c / 4)])
        high = np.median(s[(f > 4 * f_c) & (f < 8 * f_c)])
        assert low / high > 8.0  # ~1/f^2 rolloff past the corner
