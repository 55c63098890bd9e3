"""Paper Eqs. (1)-(2): trap propensities from bias.

- Eq. (1): ``lambda_c(t) + lambda_e(t) = 1 / (tau0 * exp(gamma * y_tr))``
  — a *constant* sum, set by the trap depth alone.  This is what makes
  the propensity sum itself the exact uniformisation bound in paper
  Algorithm 1 (its line 3).
- Eq. (2): ``beta(t) = lambda_e/lambda_c = g * exp((E_T - E_F)|_t / kT)``
  — the bias-dependent ratio, via :mod:`repro.traps.band`.

Solving the two for the individual rates:

``lambda_c = S * sigmoid(-ln beta)``, ``lambda_e = S * sigmoid(+ln beta)``

which is numerically safe for arbitrarily large ``|E_T - E_F|/kT``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from ..constants import thermal_energy_ev
from ..devices.technology import Technology
from ..errors import ModelError
from ..markov.batch import BatchPropensity
from .band import trap_energy_offset
from .trap import Trap


def propensity_sum(trap: Trap, tech: Technology) -> float:
    """Return ``lambda_c + lambda_e = 1/(tau0 e^{gamma y_tr})`` [1/s] (Eq. 1)."""
    if trap.y_tr > tech.t_ox:
        raise ModelError(
            f"trap depth {trap.y_tr:g} m exceeds oxide thickness "
            f"{tech.t_ox:g} m"
        )
    return 1.0 / (tech.tau0 * math.exp(tech.gamma_tunnel * trap.y_tr))


def log_beta_from_bias(v_gs, trap: Trap, tech: Technology):
    """Return ``ln beta = ln g + (E_T - E_F)/kT`` at bias ``v_gs`` (Eq. 2)."""
    kt_ev = thermal_energy_ev(tech.temperature)
    offset = trap_energy_offset(v_gs, trap, tech)
    result = math.log(trap.degeneracy) + np.asarray(offset) / kt_ev
    return result if np.ndim(v_gs) else float(result)


def rates_from_bias(v_gs, trap: Trap, tech: Technology):
    """Return ``(lambda_c, lambda_e)`` [1/s] at bias ``v_gs`` (Eqs. 1-2).

    Vectorised over ``v_gs``; the two arrays always sum to
    :func:`propensity_sum` exactly (up to rounding), for any bias.
    """
    total = propensity_sum(trap, tech)
    log_beta = np.asarray(log_beta_from_bias(v_gs, trap, tech))
    lambda_c = total * expit(-log_beta)
    lambda_e = total * expit(log_beta)
    if np.ndim(v_gs):
        return lambda_c, lambda_e
    return float(lambda_c), float(lambda_e)


def equilibrium_occupancy(v_gs, trap: Trap, tech: Technology):
    """Return the would-be stationary filled probability ``1/(1+beta)``.

    This is the occupancy the trap relaxes towards if the bias were
    frozen at ``v_gs`` — used to draw physically sensible initial trap
    states.
    """
    log_beta = np.asarray(log_beta_from_bias(v_gs, trap, tech))
    result = expit(-log_beta)
    return result if np.ndim(v_gs) else float(result)


def rates_for_population(v_gs, traps: list, tech: Technology
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Rates of a whole trap population: the one Eq.-(1)/(2) rate table.

    All traps of a transistor see the same gate drive, so the
    surface-potential solve (the expensive part) is done once per bias
    sample and the per-trap energy offsets broadcast over the
    population.  A scalar ``v_gs`` gives ``(lambda_c, lambda_e)`` arrays
    of shape ``(K,)``; a waveform of shape ``(M,)`` gives ``(K, M)``
    tables whose column ``j`` equals the scalar call at ``v_gs[j]`` bit
    for bit.  Rates agree with :func:`rates_from_bias` per trap to
    rounding.
    """
    from .band import surface_potential

    v_gs = np.asarray(v_gs, dtype=float)
    if not traps:
        return np.zeros((0,) + v_gs.shape), np.zeros((0,) + v_gs.shape)
    y = np.array([trap.y_tr for trap in traps])
    if np.any(y > tech.t_ox):
        raise ModelError("trap depth exceeds oxide thickness")
    e_tr = np.array([trap.e_tr for trap in traps])
    degeneracy = np.array([trap.degeneracy for trap in traps])
    # Trap axis first; the bias axis (if any) broadcasts behind it.
    per_trap = (slice(None),) + (None,) * v_gs.ndim
    kt_ev = thermal_energy_ev(tech.temperature)
    psi = surface_potential(v_gs, tech)
    v_ox = v_gs - tech.v_fb - psi
    offset = e_tr[per_trap] - psi - (y / tech.t_ox)[per_trap] * v_ox
    log_beta = np.log(degeneracy)[per_trap] + offset / kt_ev
    totals = (1.0 / (tech.tau0 * np.exp(tech.gamma_tunnel * y)))[per_trap]
    return totals * expit(-log_beta), totals * expit(log_beta)


def equilibrium_occupancy_population(v_gs: float, traps: list,
                                     tech: Technology) -> np.ndarray:
    """Equilibrium filled probabilities of a whole population at one bias.

    Vectorised companion of :func:`equilibrium_occupancy` (one
    surface-potential solve for the population).
    """
    lam_c, lam_e = rates_for_population(v_gs, traps, tech)
    if lam_c.size == 0:
        return lam_c
    return lam_c / (lam_c + lam_e)


def draw_initial_states(traps: list, tech: Technology, v_gs: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw each trap's initial state from its equilibrium at ``v_gs``.

    Starting traps at the stationary occupancy of the pre-stimulus bias
    avoids an artificial relaxation transient at ``t = 0``.  Consumes
    one uniform per trap, in population order (``rng.random(K)`` is the
    same stream as ``K`` scalar draws); returns 0/1 as ``int8``.
    """
    filled = equilibrium_occupancy_population(v_gs, traps, tech)
    return (rng.random(len(filled)) < filled).astype(np.int8)


def population_propensity(traps: list, tech: Technology, times: np.ndarray,
                          v_gs: np.ndarray) -> BatchPropensity:
    """Build the propensity of a whole population under one bias waveform.

    The :func:`rates_for_population` table on the waveform's samples,
    in the dense ``(K, M)`` layout both kernels consume:
    :func:`repro.markov.batch.simulate_traps_batch` takes it whole and
    :meth:`~repro.markov.batch.BatchPropensity.single` hands one trap's
    row to the scalar kernel.  Linear interpolation between samples
    never exceeds the sample peak, so a row's bound never exceeds the
    exact Eq.-(1) sum.

    Parameters
    ----------
    traps:
        The trap population (possibly empty).
    tech:
        Host technology card.
    times:
        Strictly increasing bias sample times [s], shape ``(M,)``.
    v_gs:
        Gate-source bias samples [V], same length as ``times``.
    """
    times = np.asarray(times, dtype=float)
    v_gs = np.asarray(v_gs, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ModelError("times must be 1-D with >= 2 samples")
    if v_gs.shape != times.shape:
        raise ModelError(
            f"v_gs shape {v_gs.shape} does not match times {times.shape}")
    capture, emission = rates_for_population(v_gs, traps, tech)
    return BatchPropensity(times=times, capture=capture, emission=emission)
