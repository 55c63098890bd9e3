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

**One iterate for B systems.**  :func:`newton_iterate` runs the damped
iteration on a batch: iterates ``(B, n)``, assembled systems
``(B, n, n)`` and ``(B, n)``, one stacked ``np.linalg.solve`` per
iterate and per-row damping and convergence, so a converged row freezes
while the others go on.  Every operation on a row is the one a batch of one
performs, so each row's iterates have the bits of its system solved
alone.  :func:`solve_newton` and the transient's and DC analyses'
solves are batches of one.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


class NewtonBatch(NamedTuple):
    """What one :func:`newton_iterate` call did, row by row.

    Attributes
    ----------
    x:
        ``(B, n)`` final iterates; a failed row keeps its last finite
        iterate.
    iterations:
        Per row, the iterations it consumed when it converged.
    residual:
        Per row, its final unknown-vector change when it converged.
    errors:
        Row -> :class:`~repro.errors.ConvergenceError` of each row that
        failed (budget exhausted, singular matrix or non-finite
        solution), carrying ``iterations`` and ``residual`` as a batch
        of one raises it.
    """

    x: np.ndarray
    iterations: list
    residual: list
    errors: dict


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


def record_rows(outcome: NewtonBatch, rows: np.ndarray) -> None:
    """Feed the plain solves of the ``rows`` (a mask) of a batch to the
    metrics registry (if on), one solve per row."""
    if not obs.enabled():
        return
    for row in np.flatnonzero(rows).tolist():
        _record_solve(NewtonInfo(iterations=outcome.iterations[row],
                                 residual=outcome.residual[row]))


def _warn_recovered(recover: NewtonRecovery, stage: str,
                    error: ConvergenceError) -> None:
    if recover.warn:
        warnings.warn(RecoveredWarning(
            f"Newton recovered via {stage} after: {error}", stage=stage,
            iterations=error.iterations, residual=error.residual),
            stacklevel=4)


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
    if recover is not None and recover.source_stepping is not None:
        factory = recover.source_stepping
        recover = dataclasses.replace(
            recover, source_stepping=lambda scale: _batch(factory(scale)))
    x, info = solve_one(_batch(assemble),
                        np.asarray(x0, dtype=float)[None], options, recover)
    return x[0], info


def _batch(assemble: Callable) -> Callable:
    """The batch-of-one form ``x (1, n) -> (A, z)`` of an assembler
    (the one it keeps as ``.batch``, when it has one)."""
    native = getattr(assemble, "batch", None)
    if native is not None:
        return native

    def batch(x: np.ndarray):
        matrix, rhs = assemble(x[0])
        return np.asarray(matrix)[None], np.asarray(rhs)[None]
    return batch


def solve_one(assemble: Callable, x0: np.ndarray,
              options: NewtonOptions | None = None,
              recover: NewtonRecovery | None = None,
              ) -> tuple[np.ndarray, NewtonInfo]:
    """:func:`solve_newton_detailed` on a batch of one.

    ``assemble`` maps ``x`` of shape ``(1, n)`` to ``(A, z)`` of shapes
    ``(1, n, n)`` and ``(1, n)`` (a :class:`~repro.spice.mna.StampPools`
    assembler); so does ``recover.source_stepping(scale)``.  Returns the
    ``(1, n)`` solution and its :class:`NewtonInfo`; raises the
    :class:`~repro.errors.ConvergenceError` of a failed solve.
    """
    opts = options or NewtonOptions()
    try:
        x, iterations, residual = _plain(assemble, x0, opts)
    except ConvergenceError as error:
        if recover is None:
            record_failure(error)
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
            x, iterations, residual = _plain(
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
                x, iterations, residual = _plain(
                    recover.source_stepping(float(scale)), x, ramp_opts)
            except ConvergenceError:
                break
        else:
            _warn_recovered(recover, "source stepping", first_error)
            info = NewtonInfo(iterations=iterations, residual=residual,
                              stage="source stepping", recovered=True)
            _record_solve(info)
            return x, info

    record_failure(first_error)
    raise first_error


def record_failure(error: ConvergenceError) -> None:
    """Feed a failed solve to the metrics registry (if on)."""
    if obs.enabled():
        obs.inc("newton.failures")
        if error.residual is not None:
            obs.observe("newton.residual", error.residual)


def _plain(assemble: Callable, x0: np.ndarray,
           opts: NewtonOptions) -> tuple[np.ndarray, int, float]:
    """One plain damped-Newton run on a batch of one; returns
    ``(x, iterations, residual)`` or raises the row's error."""
    outcome = newton_iterate(assemble, x0, opts)
    if outcome.errors:
        raise outcome.errors[0]
    return outcome.x, outcome.iterations[0], outcome.residual[0]


_max = np.maximum.reduce


def newton_iterate(assemble: Callable, x0: np.ndarray,
                   opts: NewtonOptions,
                   rows: np.ndarray | None = None) -> NewtonBatch:
    """Plain damped Newton on B systems at once.

    ``assemble`` maps iterates ``(B, n)`` to ``(A, z)`` of shapes
    ``(B, n, n)`` and ``(B, n)``; ``x0`` is ``(B, n)`` and not mutated.
    ``rows`` (a ``(B,)`` mask, default all) selects the rows to solve;
    the others are carried along unsolved.  Every row is assembled and
    solved at every iterate, and a row that has converged or failed
    keeps its iterate from then on.  Nothing is raised or recorded:
    the caller reads each row's outcome from the :class:`NewtonBatch`.
    A singular matrix or a non-finite solution is its row's failure.

    The arrays carry the rows; each row's damping and convergence test
    is the scalar arithmetic of a batch of one, on Python floats.
    """
    batch = len(x0)
    x = x0
    pending = range(batch) if rows is None else np.flatnonzero(rows).tolist()
    max_step, abstol, reltol = opts.max_step, opts.abstol, opts.reltol
    iterations: list = [0] * batch
    residual: list = [None] * batch  # each row's last change
    errors: dict = {}
    work = np.empty((2,) + x0.shape)
    for iteration in range(opts.max_iterations):
        matrix, rhs = assemble(x)
        singular = ()
        try:
            # A stacked solve gives each system the bits of its own; a
            # lone system takes the cheaper vector form, with the same
            # bits.
            if batch == 1:
                x_new = np.linalg.solve(matrix[0], rhs[0])[None]
            else:
                x_new = np.linalg.solve(matrix, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            x_new, singular = _solve_rows(matrix, rhs)
        # |x_new|.max() is NaN or inf exactly when x_new is not finite;
        # it also sets the damping cap and, undamped, the tolerance.  One
        # reduction gives every row's |x_new|.max() and |x_new - x|.max().
        np.abs(x_new, out=work[0])
        np.abs(np.subtract(x_new, x, out=work[1]), out=work[1])
        magnitudes, steps = _max(work, axis=2, initial=0.0).tolist()
        # Rows that keep their iterate: all but the pending ones, and
        # the pending ones that fail now.
        kept = [] if len(pending) == batch else None
        iterating = []
        for row in pending:
            magnitude, change = magnitudes[row], steps[row]
            if not math.isfinite(magnitude):
                errors[row] = _solve_error(row in singular, iteration,
                                           residual[row])
                if kept is not None:
                    kept.append(row)
                continue
            # Damping: clip the per-iteration change, but let the cap
            # scale with the proposed solution's magnitude so circuits
            # living at large absolute voltages (linear networks under
            # big injections) still converge in a handful of iterations.
            allowed = max(max_step, 0.25 * magnitude)
            if change > allowed:
                delta = x_new[row] - x[row]
                delta *= allowed / change
                x_new[row] = x[row] + delta
                change = float(np.abs(delta).max(initial=0.0))
                magnitude = float(np.abs(x_new[row]).max(initial=0.0))
            residual[row] = change
            if change <= abstol + reltol * magnitude:
                iterations[row] = iteration + 1
            else:
                iterating.append(row)
        if kept is None:
            # Only the pending rows move.
            moved = x.copy()
            moved[pending] = x_new[pending]
            x_new = moved
        for row in errors if kept is None else kept:
            x_new[row] = x[row]
        x, pending = x_new, iterating
        if not pending:
            return NewtonBatch(x, iterations, residual, errors)
    for row in pending:
        last = residual[row]
        errors[row] = ConvergenceError(
            f"Newton failed to converge in {opts.max_iterations} iterations"
            + (f" (last change {last:.3g})" if last is not None else ""),
            iterations=opts.max_iterations, residual=last)
    return NewtonBatch(x, iterations, residual, errors)


def _solve_rows(matrix: np.ndarray, rhs: np.ndarray) -> tuple:
    """The systems of a stack that ``np.linalg.solve`` refused (one
    matrix is singular), solved one by one: the solutions ``(B, n)``,
    NaN on the singular rows, and those rows."""
    x = np.empty(rhs.shape)
    singular = []
    for row in range(len(rhs)):
        try:
            x[row] = np.linalg.solve(matrix[row], rhs[row])
        except np.linalg.LinAlgError:
            x[row] = np.nan
            singular.append(row)
    return x, singular


def _solve_error(singular: bool, iteration: int,
                 last: float | None) -> ConvergenceError:
    """The error of a row whose linear solve failed at ``iteration``."""
    if singular:
        return ConvergenceError(
            f"singular MNA matrix at Newton iteration {iteration}"
            + (f" (last change {last:.3g})" if last is not None else ""),
            iterations=iteration, residual=last)
    return ConvergenceError(
        f"non-finite solution at Newton iteration {iteration}",
        iterations=iteration, residual=last)
