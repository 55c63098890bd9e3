"""Adaptive-step transient analysis (LTE-controlled trapezoidal).

The fixed-step engine in :mod:`repro.spice.transient` is what the
methodology uses (its step is tied to the stimulus edges and the RTN
sampling grid).  This engine complements it for free-running problems —
oscillators, decay tails, stiff settling — where the natural step size
varies by orders of magnitude over a run.

Local truncation error is estimated by **step doubling**: each accepted
point is computed both as one trapezoidal step of ``h`` and as two of
``h/2``; for a second-order method the difference is ~3x the fine
solution's LTE.  Steps whose weighted error exceeds 1 are rejected and
retried smaller; accepted steps grow up to ``growth_limit``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, SimulationError
from .circuit import Circuit
from .elements import IntegrationCoeff
from .mna import StampProgram
from .newton import NewtonOptions, solve_newton
from .transient import check_time_span, package_waveform
from .waveform import Waveform


@dataclass(frozen=True)
class AdaptiveOptions:
    """Adaptive engine knobs.

    Attributes
    ----------
    lte_abstol, lte_reltol:
        Per-unknown error weights: a step is accepted when
        ``max |x_coarse - x_fine| / (abstol + reltol |x_fine|) <= 1``.
    min_step, max_step:
        Hard step bounds [s]; ``max_step`` defaults to ``t_stop/50``.
    growth_limit:
        Largest step-size growth factor per accepted step.
    safety:
        Multiplier on the optimal-step estimate.
    newton:
        Newton tolerances.
    max_rejects:
        Consecutive rejections allowed before giving up.
    """

    lte_abstol: float = 1e-6
    lte_reltol: float = 1e-4
    min_step: float = 1e-18
    max_step: float | None = None
    growth_limit: float = 3.0
    safety: float = 0.9
    newton: NewtonOptions = NewtonOptions()
    max_rejects: int = 30

    def __post_init__(self) -> None:
        if self.lte_abstol <= 0.0 or self.lte_reltol <= 0.0:
            raise SimulationError("LTE tolerances must be positive")
        if self.growth_limit <= 1.0:
            raise SimulationError("growth_limit must exceed 1")
        if not 0.0 < self.safety <= 1.0:
            raise SimulationError("safety must lie in (0, 1]")


def simulate_transient_adaptive(circuit: Circuit, t_stop: float,
                                dt_initial: float,
                                initial_voltages: dict | None = None,
                                options: AdaptiveOptions | None = None
                                ) -> Waveform:
    """Run an LTE-controlled trapezoidal transient from 0 to ``t_stop``.

    Same UIC semantics as the fixed-step engine.  Returns a waveform on
    the (non-uniform) accepted time grid.
    """
    opts = options or AdaptiveOptions()
    check_time_span(t_stop, dt_initial, "dt_initial")
    max_step = opts.max_step if opts.max_step is not None else t_stop / 50.0

    program = StampProgram(circuit)
    x = program.unknown_vector(initial_voltages)
    history = program.initial_history(x)

    def take_step(x_from: np.ndarray, hist: tuple, t_from: float,
                  h: float, method: str) -> tuple[np.ndarray, tuple]:
        """One integration step; returns the new state, ``hist`` untouched."""
        coeff = IntegrationCoeff(method=method, dt=h)
        x_new = solve_newton(
            program.transient_assembler(t_from + h, coeff, hist), x_from,
            opts.newton)
        return x_new, program.advance(x_new, coeff, hist)

    # A couple of BE ramp-in steps make the initial capacitor currents
    # consistent before trapezoidal LTE control engages.
    times = [0.0]
    solutions = [x.copy()]
    t = 0.0
    h = min(dt_initial, max_step)
    for _ in range(2):
        if t + h >= t_stop:
            break
        x, history = take_step(x, history, t, h, "be")
        t += h
        times.append(t)
        solutions.append(x.copy())

    rejects = 0
    while t < t_stop - 1e-15 * t_stop:
        h = float(np.clip(h, opts.min_step, min(max_step, t_stop - t)))
        try:
            x_coarse, __ = take_step(x, history, t, h, "trap")
            x_half, hist_half = take_step(x, history, t, h / 2.0, "trap")
            x_fine, hist_fine = take_step(x_half, hist_half, t + h / 2.0,
                                          h / 2.0, "trap")
        except ConvergenceError:
            rejects += 1
            if rejects > opts.max_rejects:
                raise SimulationError(
                    f"adaptive transient stalled at t={t:.6g}s "
                    "(Newton failures)") from None
            h = max(h / 4.0, opts.min_step)
            continue
        weights = opts.lte_abstol + opts.lte_reltol * np.abs(x_fine)
        error = float(np.max(np.abs(x_coarse - x_fine) / weights)) / 3.0
        if error > 1.0 and h > opts.min_step * 1.001:
            rejects += 1
            if rejects > opts.max_rejects:
                raise SimulationError(
                    f"adaptive transient stalled at t={t:.6g}s "
                    f"(LTE {error:.2g} never acceptable)")
            h *= max(0.1, opts.safety * error ** (-1.0 / 3.0))
            continue
        # Accept the fine solution (Richardson's better half).
        rejects = 0
        x = x_fine
        history = hist_fine
        t += h
        times.append(t)
        solutions.append(x.copy())
        if error > 0.0:
            h *= min(opts.growth_limit,
                     max(0.2, opts.safety * error ** (-1.0 / 3.0)))
        else:
            h *= opts.growth_limit

    return package_waveform(circuit, times, solutions)
