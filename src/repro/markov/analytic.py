"""Closed-form results for two-state trap chains.

These expressions are the oracles the paper validates SAMURAI against in
§IV-A (Fig. 7): the stationary autocorrelation ``R(tau)`` and Lorentzian
spectral density ``S(f)`` of a single-trap RTN current, plus the
occupancy-probability master equation for arbitrary time-varying rates
(the oracle for genuinely non-stationary tests, where the paper has no
analytical curve) and its exact grid recurrence for a whole population
of constant-sum (paper Eq. 1) traps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from ..errors import AnalysisError


def stationary_occupancy(lambda_c: float, lambda_e: float) -> float:
    """Return the stationary probability of the *filled* state.

    ``p1 = lambda_c / (lambda_c + lambda_e) = 1 / (1 + beta)`` with
    ``beta = lambda_e / lambda_c`` (paper Eq. 2).
    """
    total = lambda_c + lambda_e
    if total <= 0.0:
        raise AnalysisError("lambda_c + lambda_e must be positive")
    return lambda_c / total


def occupancy_probability_constant(t, lambda_c: float, lambda_e: float,
                                   p1_initial: float):
    """Filled-state probability at time(s) ``t`` under constant rates.

    ``p1(t) = p_inf + (p1(0) - p_inf) * exp(-(lambda_c+lambda_e) t)``.
    ``t`` is measured from the moment the occupancy equals
    ``p1_initial``.
    """
    total = lambda_c + lambda_e
    p_inf = stationary_occupancy(lambda_c, lambda_e)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise AnalysisError("time must be non-negative")
    result = p_inf + (p1_initial - p_inf) * np.exp(-total * t_arr)
    return result if t_arr.ndim else float(result)


def occupancy_probability(times: np.ndarray, capture_fn: Callable,
                          emission_fn: Callable, p1_initial: float,
                          rtol: float = 1e-8, atol: float = 1e-10) -> np.ndarray:
    """Integrate the master equation for arbitrary time-varying rates.

    Solves ``dp1/dt = lambda_c(t) (1 - p1) - lambda_e(t) p1`` with
    ``p1(times[0]) = p1_initial`` and returns ``p1`` on ``times``.

    Parameters
    ----------
    times:
        Strictly increasing evaluation grid [s].
    capture_fn, emission_fn:
        Scalar-or-vector callables for the rates.
    p1_initial:
        Initial filled probability in [0, 1].
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise AnalysisError("times must be 1-D with >= 2 samples")
    if np.any(np.diff(times) <= 0.0):
        raise AnalysisError("times must be strictly increasing")
    if not 0.0 <= p1_initial <= 1.0:
        raise AnalysisError(f"p1_initial must lie in [0, 1], got {p1_initial}")

    def rhs(t, y):
        lam_c = float(capture_fn(t))
        lam_e = float(emission_fn(t))
        return [lam_c * (1.0 - y[0]) - lam_e * y[0]]

    solution = solve_ivp(
        rhs, (times[0], times[-1]), [p1_initial], t_eval=times,
        rtol=rtol, atol=atol, method="LSODA",
    )
    if not solution.success:
        raise AnalysisError(f"master-equation integration failed: {solution.message}")
    return solution.y[0]


def occupancy_recurrence(table, initial=None) -> np.ndarray:
    """Every trap's exact filled probability on a rate table's grid.

    A constant sum ``Lambda = lambda_c + lambda_e`` (paper Eq. 1) makes
    ``dp/dt = lambda_c(t) - Lambda p`` linear, and the kernels read
    ``lambda_c = a + b s`` linearly on each grid segment of length
    ``h``; with ``x = Lambda h`` a segment is one exact update,
    vectorised over the traps::

        p' = e^{-x} p + a (1 - e^{-x})/Lambda + b (h/Lambda - (1 - e^{-x})/Lambda^2)

    ``1 - e^{-x}`` is ``-expm1(-x)``, and ``b``'s bracket,
    ``h^2 (x - 1 + e^{-x})/x^2``, is its Taylor series below ``x =
    0.01``, where the difference cancels.  ``initial`` (shape ``(K,)``)
    defaults to the column-0 equilibrium that
    :func:`~repro.traps.propensity.draw_initial_states` samples.
    Returns ``p`` of shape ``(K, M)``; a table whose sums are not
    constant raises.
    """
    sums, constant = table._sum_info()
    if not constant:
        raise AnalysisError("the occupancy recurrence needs a constant-sum "
                            "rate table (paper Eq. 1)")
    rows = np.arange(table.n_traps)
    low = table.capture_at(rows, np.zeros_like(rows))
    p = np.empty((rows.size, table.times.size))
    p[:, 0] = low / sums if initial is None else initial
    for j, h in enumerate(np.diff(table.times)):
        high = table.capture_at(rows, np.full_like(rows, j + 1))
        x = sums * h
        rise = -np.expm1(-x)
        ramp = np.where(x < 0.01, 0.5 - x / 6 + x * x / 24 - x ** 3 / 120,
                        (x - rise) / (x * x))
        p[:, j + 1] = ((1.0 - rise) * p[:, j] + low * rise / sums
                       + (high - low) * h * ramp)
        low = high
    return p


def stationary_autocovariance(tau, lambda_c: float, lambda_e: float,
                              delta_i: float = 1.0):
    """Autocovariance ``C(tau)`` of the stationary single-trap RTN current.

    The current is ``I(t) = delta_i * X(t)`` with ``X`` the 0/1 trap
    state, so ``C(tau) = delta_i^2 p1 (1-p1) exp(-(lambda_c+lambda_e)|tau|)``.
    """
    total = lambda_c + lambda_e
    p1 = stationary_occupancy(lambda_c, lambda_e)
    tau_arr = np.abs(np.asarray(tau, dtype=float))
    result = delta_i ** 2 * p1 * (1.0 - p1) * np.exp(-total * tau_arr)
    return result if np.ndim(tau) else float(result)


def stationary_autocorrelation(tau, lambda_c: float, lambda_e: float,
                               delta_i: float = 1.0):
    """Autocorrelation ``R(tau) = E[I(t) I(t+tau)]`` including the DC part.

    ``R(tau) = delta_i^2 (p1^2 + p1 (1-p1) exp(-(lambda_c+lambda_e)|tau|))``
    — the quantity plotted in paper Fig. 7(a)-(c).
    """
    p1 = stationary_occupancy(lambda_c, lambda_e)
    cov = stationary_autocovariance(tau, lambda_c, lambda_e, delta_i)
    result = delta_i ** 2 * p1 ** 2 + np.asarray(cov)
    return result if np.ndim(tau) else float(result)


def lorentzian_psd(freq, lambda_c: float, lambda_e: float,
                   delta_i: float = 1.0):
    """One-sided PSD ``S(f)`` of the stationary single-trap RTN current.

    The Fourier transform of the autocovariance gives the Lorentzian

    ``S(f) = 4 delta_i^2 p1 (1-p1) (lambda_c+lambda_e)
             / ((lambda_c+lambda_e)^2 + (2 pi f)^2)``

    — the analytical curves of paper Fig. 7(d)-(f).  The DC component
    contributes a delta at f=0 which is omitted (as in the paper's
    log-log plots).
    """
    total = lambda_c + lambda_e
    p1 = stationary_occupancy(lambda_c, lambda_e)
    f_arr = np.asarray(freq, dtype=float)
    result = (4.0 * delta_i ** 2 * p1 * (1.0 - p1) * total
              / (total ** 2 + (2.0 * np.pi * f_arr) ** 2))
    return result if np.ndim(freq) else float(result)


def lorentzian_corner_frequency(lambda_c: float, lambda_e: float) -> float:
    """Return the corner frequency ``f_c = (lambda_c+lambda_e)/(2 pi)`` [Hz]."""
    total = lambda_c + lambda_e
    if total <= 0.0:
        raise AnalysisError("lambda_c + lambda_e must be positive")
    return total / (2.0 * np.pi)


def superposed_lorentzian_psd(freq, lambda_cs, lambda_es, delta_is):
    """PSD of the sum of independent single-trap RTN currents.

    Independence makes the spectra additive; this is the analytical
    device-level PSD used in the Fig. 3 reproduction, where a sampled
    trap population is converted to a sum of Lorentzians.
    """
    lambda_cs = np.asarray(lambda_cs, dtype=float)
    lambda_es = np.asarray(lambda_es, dtype=float)
    delta_is = np.asarray(delta_is, dtype=float)
    if not (lambda_cs.shape == lambda_es.shape == delta_is.shape):
        raise AnalysisError("per-trap parameter arrays must share a shape")
    f_arr = np.asarray(freq, dtype=float)
    total = np.zeros(f_arr.shape, dtype=float)
    for lam_c, lam_e, d_i in zip(lambda_cs, lambda_es, delta_is):
        total += lorentzian_psd(f_arr, lam_c, lam_e, d_i)
    return total if np.ndim(freq) else float(total)
