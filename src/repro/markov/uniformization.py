"""Markov Uniformisation — the SAMURAI core (paper Algorithm 1).

A time-inhomogeneous two-state chain with rates ``lambda_c(t)`` (0 -> 1)
and ``lambda_e(t)`` (1 -> 0) is simulated *exactly* by thinning: candidate
event times are drawn from a homogeneous Poisson process with rate
``lambda_star`` dominating both rates; a candidate at time ``t`` while in
state ``s`` flips the state with probability ``lambda_next(t)/lambda_star``
where ``lambda_next`` is the rate out of ``s``.  Rejected candidates are
self-loops of the uniformised chain and leave the state untouched.  The
resulting trajectory has exactly the law of the original chain for any
valid bound (refs [11]-[13] of the paper).

For SAMURAI traps the sum ``lambda_c + lambda_e`` is bias-independent
(paper Eq. 1), so line 3 of Algorithm 1 —
``lambda_star = lambda_c(t0) + lambda_e(t0)`` — is already a tight valid
bound; the kernel here accepts any propensity object and uses its
``rate_bound()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import SimulationError
from .occupancy import OccupancyTrace, _TraceBuilder
from .propensity import TwoStatePropensity

#: Refuse runs that would generate absurdly many candidate events.
MAX_EXPECTED_CANDIDATES = 50_000_000


@dataclass(frozen=True)
class UniformizationStats:
    """Bookkeeping of a uniformisation run, for cost/ablation studies.

    Attributes
    ----------
    n_candidates:
        Candidate events drawn from the dominating Poisson process.
    n_accepted:
        Candidates accepted, i.e. actual state transitions.
    rate_bound:
        The uniformisation rate ``lambda_star`` used.
    """

    n_candidates: int
    n_accepted: int
    rate_bound: float

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of candidates accepted (0 when no candidates fired)."""
        if self.n_candidates == 0:
            return 0.0
        return self.n_accepted / self.n_candidates


def check_window(t_start: float, t_stop: float) -> None:
    """Refuse a simulation window that is not finite with ``t_stop > t_start``."""
    if not (np.isfinite(t_start) and np.isfinite(t_stop)):
        raise SimulationError(
            f"window [{t_start!r}, {t_stop!r}] must be finite")
    if t_stop <= t_start:
        raise SimulationError(
            f"t_stop ({t_stop:g}) must exceed t_start ({t_start:g})"
        )


def simulate_trap(propensity: TwoStatePropensity, t_start: float, t_stop: float,
                  rng: np.random.Generator, initial_state: int = 0,
                  rate_bound: float | None = None) -> OccupancyTrace:
    """Simulate one trap over ``[t_start, t_stop]`` (paper Algorithm 1).

    Parameters
    ----------
    propensity:
        Time-varying capture/emission rates (see
        :mod:`repro.markov.propensity`).
    t_start, t_stop:
        Simulation window [s]; ``t_stop`` must exceed ``t_start``.
    rng:
        NumPy random generator; passing it explicitly keeps every
        experiment reproducible.
    initial_state:
        Trap state at ``t_start`` (0 empty, 1 filled).
    rate_bound:
        Optional override of ``propensity.rate_bound()``.  Must dominate
        both rates; a looser bound changes cost but not statistics
        (exercised by ablation A3).

    Returns
    -------
    OccupancyTrace
        The exact trajectory of the non-stationary chain.
    """
    trace, _ = simulate_trap_detailed(
        propensity, t_start, t_stop, rng,
        initial_state=initial_state, rate_bound=rate_bound,
    )
    return trace


def simulate_trap_detailed(
        propensity: TwoStatePropensity, t_start: float, t_stop: float,
        rng: np.random.Generator, initial_state: int = 0,
        rate_bound: float | None = None,
) -> tuple[OccupancyTrace, UniformizationStats]:
    """Like :func:`simulate_trap` but also return cost statistics."""
    check_window(t_start, t_stop)
    if initial_state not in (0, 1):
        raise SimulationError(f"initial_state must be 0 or 1, got {initial_state}")
    lam_star = propensity.rate_bound() if rate_bound is None else float(rate_bound)
    if not np.isfinite(lam_star) or lam_star <= 0.0:
        raise SimulationError(f"invalid uniformisation rate bound {lam_star!r}")

    expected = lam_star * (t_stop - t_start)
    if expected > MAX_EXPECTED_CANDIDATES:
        raise SimulationError(
            f"expected candidate count {expected:.3g} exceeds the safety cap "
            f"{MAX_EXPECTED_CANDIDATES:g}; shorten the window or tighten the bound"
        )

    builder = _TraceBuilder(t_start=t_start, initial_state=initial_state)
    state = initial_state
    # Candidate times are generated in vectorised blocks: the homogeneous
    # Poisson process is simulated by cumulative exponential gaps, and
    # each candidate needs one uniform for the thinning decision.  The
    # sequence of random draws per candidate (gap, then accept-uniform)
    # matches the scalar loop of paper Algorithm 1 exactly.
    block = max(64, min(int(expected * 1.5) + 16, 1_000_000))
    current = t_start
    n_candidates = 0
    n_accepted = 0
    done = False
    while not done:
        gaps = rng.exponential(scale=1.0 / lam_star, size=block)
        accept_draws = rng.random(size=block)
        for gap, draw in zip(gaps, accept_draws):
            current += gap
            if current >= t_stop:
                done = True
                break
            n_candidates += 1
            rate_next = (propensity.emission(current) if state == 1
                         else propensity.capture(current))
            if rate_next > lam_star * (1.0 + 1e-12):
                raise SimulationError(
                    f"rate {rate_next:g} at t={current:g} exceeds the "
                    f"uniformisation bound {lam_star:g}; the bound is invalid"
                )
            if draw < rate_next / lam_star:
                builder.flip(current)
                state = 1 - state
                n_accepted += 1

    trace = builder.finish(t_stop)
    stats = UniformizationStats(
        n_candidates=n_candidates, n_accepted=n_accepted, rate_bound=lam_star,
    )
    if obs.enabled():
        obs.inc("uniformization.runs")
        obs.inc("uniformization.candidates", n_candidates)
        obs.inc("uniformization.accepted", n_accepted)
    return trace, stats
