"""Damped Newton iteration for the assembled MNA system.

The assembler callback returns the *linearised* system ``A x_new = z``
at the present iterate (classic SPICE companion/Newton form), so the
iteration is a fixed point of ``x -> solve(A(x), z(x))``.  Convergence
is declared on the unknown-vector change; a per-iteration voltage-step
limit provides the damping that keeps exponential devices from
overshooting.

On failure, an optional :class:`NewtonRecovery` ladder escalates
through progressively heavier continuation strategies before giving
up — tighter damping, then source-stepping homotopy.  Every rung that
succeeds emits a :class:`~repro.errors.RecoveredWarning` carrying the
stage that saved the solve.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import obs
from ..errors import ConvergenceError, RecoveredWarning


@dataclass(frozen=True)
class NewtonOptions:
    """Knobs of the Newton loop.

    Attributes
    ----------
    max_iterations:
        Iteration budget before declaring failure.
    abstol:
        Absolute unknown-change tolerance [V or A].
    reltol:
        Relative tolerance against each unknown's magnitude.
    max_step:
        Damping: per-iteration unknown change is clipped to this.
    """

    max_iterations: int = 60
    abstol: float = 1e-9
    reltol: float = 1e-6
    max_step: float = 0.5


@dataclass(frozen=True)
class NewtonRecovery:
    """Escalation ladder applied when the plain Newton solve fails.

    The rungs run in order and the first converged solution wins:

    1. **Tighter damping** — re-run with each ``max_step`` in
       :attr:`damping_ladder` and an enlarged iteration budget.  Cheap,
       and rescues most oscillating iterations.
    2. **Source stepping** — if :attr:`source_stepping` is given, ramp
       the independent sources from a fraction of full bias up to 1.0,
       re-converging at each level from the previous solution (the
       homotopy production SPICE uses for hopeless starts).

    If every rung fails, the plain solve's error is re-raised.

    Attributes
    ----------
    damping_ladder:
        ``max_step`` values to try, tightest last.
    iteration_boost:
        Multiplier on ``max_iterations`` for recovery attempts (tighter
        damping needs more, smaller steps).
    source_stepping:
        ``scale -> assemble`` factory: given a source scale in
        ``(0, 1]``, returns an assembler with every independent source
        scaled by it.  ``None`` skips the homotopy rung.
    source_steps:
        Number of ramp levels for the homotopy.
    warn:
        Emit :class:`~repro.errors.RecoveredWarning` when a rung other
        than the plain solve produced the result.
    """

    damping_ladder: tuple = (0.1, 0.02)
    iteration_boost: int = 3
    source_stepping: Callable | None = None
    source_steps: int = 8
    warn: bool = True


@dataclass(frozen=True)
class NewtonInfo:
    """What one :func:`solve_newton_detailed` call actually did.

    The failure path has always carried ``iterations``/``residual`` on
    its :class:`~repro.errors.ConvergenceError`; this record is the
    success-path counterpart, so telemetry and tests can assert on
    both.

    Attributes
    ----------
    iterations:
        Newton iterations consumed by the run that produced the
        solution (the winning recovery rung's run, when one fired).
    residual:
        Final unknown-vector change of that run.
    stage:
        ``plain``, ``damping`` or ``source stepping``.
    recovered:
        A recovery rung (not the plain solve) produced the result.
    """

    iterations: int
    residual: float | None
    stage: str = "plain"
    recovered: bool = False


def _record_solve(info: NewtonInfo) -> None:
    """Feed the solve's accounting to the metrics registry (if on)."""
    if not obs.enabled():
        return
    obs.inc("newton.solves")
    obs.observe("newton.iterations", info.iterations)
    if info.residual is not None:
        obs.observe("newton.residual", info.residual)
    if info.recovered:
        obs.inc("newton.recoveries")
        obs.inc(f"newton.recoveries.{info.stage.replace(' ', '_')}")


def _warn_recovered(recover: NewtonRecovery, stage: str,
                    error: ConvergenceError) -> None:
    if recover.warn:
        warnings.warn(RecoveredWarning(
            f"Newton recovered via {stage} after: {error}", stage=stage,
            iterations=error.iterations, residual=error.residual),
            stacklevel=3)


def solve_newton(assemble: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                 x0: np.ndarray,
                 options: NewtonOptions | None = None,
                 recover: NewtonRecovery | None = None) -> np.ndarray:
    """Solve the nonlinear MNA system from the initial guess ``x0``.

    Parameters
    ----------
    assemble:
        Callback ``x -> (A, z)`` producing the Newton-linearised system
        at the iterate ``x``.
    x0:
        Initial guess for the unknown vector (not mutated).
    options:
        Tolerances and damping; defaults are SPICE-like.
    recover:
        Optional escalation ladder applied on failure (see
        :class:`NewtonRecovery`).  ``None`` keeps the historical
        fail-fast behaviour.

    Raises
    ------
    ConvergenceError
        If the iteration budget is exhausted or the linear solve fails
        (and every configured recovery rung also failed).  The error
        always carries the last known unknown-vector change as
        ``residual`` (``None`` only if no iterate was ever produced).
    """
    return solve_newton_detailed(assemble, x0, options=options,
                                 recover=recover)[0]


def solve_newton_detailed(
        assemble: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        x0: np.ndarray,
        options: NewtonOptions | None = None,
        recover: NewtonRecovery | None = None,
) -> tuple[np.ndarray, NewtonInfo]:
    """Like :func:`solve_newton`, but also return a :class:`NewtonInfo`.

    The info record carries ``iterations`` and ``residual`` on the
    clean-success path exactly as :class:`~repro.errors.ConvergenceError`
    carries them on failure — both outcomes are equally observable.
    """
    opts = options or NewtonOptions()
    try:
        x, iterations, residual = _newton_once(assemble, x0, opts)
    except ConvergenceError as error:
        if recover is None:
            _record_failure(error)
            raise
        first_error = error
    else:
        info = NewtonInfo(iterations=iterations, residual=residual)
        _record_solve(info)
        return x, info

    # Rung 1: tighter damping with a bigger iteration budget.
    boosted = max(opts.max_iterations,
                  opts.max_iterations * max(1, recover.iteration_boost))
    for max_step in recover.damping_ladder:
        try:
            x, iterations, residual = _newton_once(
                assemble, x0,
                dataclasses.replace(opts, max_step=float(max_step),
                                    max_iterations=boosted))
        except ConvergenceError:
            continue
        _warn_recovered(recover, f"damping (max_step={max_step:g})",
                        first_error)
        info = NewtonInfo(iterations=iterations, residual=residual,
                          stage="damping", recovered=True)
        _record_solve(info)
        return x, info

    # Rung 2: source-stepping homotopy from a softened bias.
    if recover.source_stepping is not None and recover.source_steps > 0:
        x = np.array(x0, dtype=float, copy=True)
        iterations, residual = 0, None
        ramp_opts = dataclasses.replace(opts, max_iterations=boosted)
        for scale in np.linspace(1.0 / recover.source_steps, 1.0,
                                 recover.source_steps):
            try:
                x, iterations, residual = _newton_once(
                    recover.source_stepping(float(scale)), x, ramp_opts)
            except ConvergenceError:
                break
        else:
            _warn_recovered(recover, "source stepping", first_error)
            info = NewtonInfo(iterations=iterations, residual=residual,
                              stage="source stepping", recovered=True)
            _record_solve(info)
            return x, info

    _record_failure(first_error)
    raise first_error


def _record_failure(error: ConvergenceError) -> None:
    if obs.enabled():
        obs.inc("newton.failures")
        if error.residual is not None:
            obs.observe("newton.residual", error.residual)


def _newton_once(assemble: Callable, x0: np.ndarray,
                 opts: NewtonOptions) -> tuple[np.ndarray, int, float]:
    """One plain damped-Newton run; returns ``(x, iterations, residual)``."""
    x = np.array(x0, dtype=float, copy=True)
    last_change: float | None = None
    for iteration in range(opts.max_iterations):
        matrix, rhs = assemble(x)
        try:
            x_new = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular MNA matrix at Newton iteration {iteration}"
                + (f" (last change {last_change:.3g})"
                   if last_change is not None else ""),
                iterations=iteration, residual=last_change,
            ) from exc
        # |x_new|.max() is NaN or inf exactly when x_new is not finite;
        # it also sets the damping cap and, undamped, the tolerance.
        magnitude = float(np.abs(x_new).max(initial=0.0))
        if not math.isfinite(magnitude):
            raise ConvergenceError(
                f"non-finite solution at Newton iteration {iteration}",
                iterations=iteration, residual=last_change,
            )
        delta = x_new - x
        step = float(np.abs(delta).max(initial=0.0))
        # Damping: clip the per-iteration change, but let the cap scale
        # with the proposed solution's magnitude so circuits living at
        # large absolute voltages (linear networks under big injections)
        # still converge in a handful of iterations.
        allowed = max(opts.max_step, 0.25 * magnitude)
        if step > allowed:
            delta *= allowed / step
            x = x + delta
            last_change = float(np.abs(delta).max(initial=0.0))
            magnitude = float(np.abs(x).max(initial=0.0))
        else:
            x = x_new
            last_change = step
        tolerance = opts.abstol + opts.reltol * magnitude
        if last_change <= tolerance:
            return x, iteration + 1, last_change
    raise ConvergenceError(
        f"Newton failed to converge in {opts.max_iterations} iterations"
        + (f" (last change {last_change:.3g})"
           if last_change is not None else ""),
        iterations=opts.max_iterations, residual=last_change,
    )
