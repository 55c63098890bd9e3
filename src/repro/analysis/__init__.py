"""Signal analysis: the estimators behind the validation experiments.

Paper §IV-A estimates the autocorrelation ``R(tau)`` of generated RTN
traces numerically and translates it to a power spectral density; this
package provides those estimators plus the Lorentzian and 1/f fits used
by the Fig. 3 and Fig. 7 reproductions.

- :mod:`repro.analysis.autocorr` — autocorrelation and autocovariance.
- :mod:`repro.analysis.psd` — Welch, periodogram and Wiener-Khinchin
  power spectral densities.
- :mod:`repro.analysis.dwell` — per-state dwell times and their
  exponentiality test.
- :mod:`repro.analysis.fitting` — Lorentzian and 1/f spectral fits.

:mod:`repro.api` exports the estimators under ``compute_*`` names
(``compute_welch_psd`` is :func:`repro.analysis.psd.welch_psd`,
``compute_dwell_summary`` is
:func:`repro.analysis.dwell.summarise_dwells`, ...).
"""
