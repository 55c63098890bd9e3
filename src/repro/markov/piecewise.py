"""Exact simulation of a two-state chain with piecewise-constant rates.

Within each interval where the rates are constant, the chain is a
stationary two-state chain and Gillespie sojourns are exact; at each
breakpoint the exponential clock simply restarts (memorylessness makes
discarding the unexpired residual statistically exact).  This gives an
independent exact solver for a useful subclass of time-inhomogeneous
chains — the cross-check used by ablation A1 to validate uniformisation
on genuinely non-stationary inputs.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .occupancy import OccupancyTrace, _TraceBuilder


def simulate_piecewise(breakpoints: np.ndarray, capture_rates: np.ndarray,
                       emission_rates: np.ndarray, rng: np.random.Generator,
                       initial_state: int = 0) -> OccupancyTrace:
    """Exact trajectory under piecewise-constant rates.

    Parameters
    ----------
    breakpoints:
        Strictly increasing interval edges [s], shape ``(m + 1,)``; the
        simulation runs from ``breakpoints[0]`` to ``breakpoints[-1]``.
    capture_rates, emission_rates:
        Rates on each interval, shape ``(m,)``; interval ``i`` spans
        ``[breakpoints[i], breakpoints[i+1])``.
    rng:
        NumPy random generator.
    initial_state:
        State at the start of the window.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    capture_rates = np.asarray(capture_rates, dtype=float)
    emission_rates = np.asarray(emission_rates, dtype=float)
    if breakpoints.ndim != 1 or breakpoints.size < 2:
        raise SimulationError("breakpoints must be 1-D with >= 2 entries")
    if np.any(np.diff(breakpoints) <= 0.0):
        raise SimulationError("breakpoints must be strictly increasing")
    m = breakpoints.size - 1
    if capture_rates.shape != (m,) or emission_rates.shape != (m,):
        raise SimulationError(
            f"rate arrays must have shape ({m},) to match the breakpoints"
        )
    if np.any(capture_rates < 0.0) or np.any(emission_rates < 0.0):
        raise SimulationError("rates must be non-negative")
    if initial_state not in (0, 1):
        raise SimulationError(f"initial_state must be 0 or 1, got {initial_state}")

    builder = _TraceBuilder(t_start=float(breakpoints[0]),
                            initial_state=initial_state)
    state = initial_state
    for i in range(m):
        t_lo = breakpoints[i]
        t_hi = breakpoints[i + 1]
        rates = (capture_rates[i], emission_rates[i])
        current = t_lo
        while True:
            rate_out = rates[state]
            if rate_out == 0.0:
                break  # absorbing within this interval
            current += rng.exponential(scale=1.0 / rate_out)
            if current >= t_hi:
                break
            builder.flip(current)
            state = 1 - state
    return builder.finish(float(breakpoints[-1]))
