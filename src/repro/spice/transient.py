"""Transient analysis: trapezoidal (with backward-Euler ramp-in) stepping.

The engine starts from user-supplied initial node voltages (SPICE
``UIC`` semantics: capacitors take their initial charge from those
voltages) — the natural way to place a bistable SRAM cell on a chosen
branch — or from a DC operating point.

Each step solves the companion-model MNA system with damped Newton,
seeded from the previous solution.  On Newton failure the step is
halved (up to a retry budget) and re-attempted; the first few steps use
backward Euler to damp the UIC start-up transient before switching to
trapezoidal integration.

Every (sub)step reads its stimuli at its end time.  When no ``pre_step``
hook is set and every stimulus is a pure :mod:`.sources` type, each is
called once on the whole nominal step grid (the loop's own time
accumulation) and a step reads its row; a time off that grid (a halved
step) calls the stimuli then, and when halved sub-steps end a step off
the grid the rest of the grid is rebuilt from there.  A hooked run, or
one with any other stimulus (a co-simulation's held value), calls them
at every step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import obs
from ..errors import ConvergenceError, SimulationError
from .circuit import Circuit
from .elements import IntegrationCoeff
from .mna import StampPools, StampProgram
from .newton import NewtonOptions, NewtonRecovery, solve_newton
from .sources import DC, PULSE, PWL, SIN
from .waveform import Waveform

#: Stimulus types that read nothing but their own frozen fields and
#: whose array call gives every time the bits of a scalar call.
_PURE_STIMULI = (DC, PULSE, PWL, SIN)


@dataclass(frozen=True)
class TransientOptions:
    """Transient engine knobs.

    Attributes
    ----------
    method:
        ``"trap"`` (default) or ``"be"``.
    be_startup_steps:
        Number of initial backward-Euler steps before trapezoidal
        integration engages (damps the inconsistent-IC transient).
    max_halvings:
        How many times a non-converging step may be halved.
    newton:
        Newton tolerances.
    record_every:
        Keep every k-th accepted step in the output (1 = all).
    recovery:
        After the halving budget is exhausted, make one last-ditch
        attempt through the full :class:`NewtonRecovery` ladder
        (tighter damping, then source-stepping homotopy) before
        surfacing the error.
    pre_step:
        Optional hook ``f(t, x)`` called once before each nominal step
        with the current time and solution vector.  It may mutate
        element stimuli — this is how the bi-directionally coupled
        RTN co-simulation feeds trap-state-dependent currents back into
        the circuit (paper future-work #1).
    """

    method: str = "trap"
    be_startup_steps: int = 4
    max_halvings: int = 10
    newton: NewtonOptions = NewtonOptions()
    record_every: int = 1
    recovery: bool = True
    pre_step: Callable | None = None

    def __post_init__(self) -> None:
        if self.method not in ("be", "trap"):
            raise SimulationError(f"unknown method {self.method!r}")
        if self.be_startup_steps < 0 or self.max_halvings < 0:
            raise SimulationError("step counts must be non-negative")
        if self.record_every < 1:
            raise SimulationError("record_every must be >= 1")


def _recover_step(assemble_factory, sub_t: float, sub_step: float,
                  method: str, x: np.ndarray, opts: TransientOptions,
                  error: ConvergenceError) -> np.ndarray:
    """Last-ditch ladder for a step that survived no halving.

    Escalates through tighter damping and source-stepping homotopy, and
    otherwise re-raises a :class:`~repro.errors.ConvergenceError` that
    keeps the failing solve's iteration/residual metadata — per-cell
    outcomes downstream report *why* the cell died, not just that it
    did.
    """
    coeff = IntegrationCoeff(method=method, dt=sub_step)
    if opts.recovery:
        recover = NewtonRecovery(
            source_stepping=lambda scale: assemble_factory(
                sub_t + sub_step, coeff, source_scale=scale))
        try:
            x_new = solve_newton(assemble_factory(sub_t + sub_step, coeff),
                                 x, opts.newton, recover=recover)
        except ConvergenceError as exc:
            error = exc
        else:
            obs.inc("transient.step_recoveries")
            return x_new
    raise ConvergenceError(
        f"transient stalled at t={sub_t:.6g}s: Newton failed after "
        f"{opts.max_halvings} halvings ({error})",
        iterations=error.iterations, residual=error.residual,
    ) from error


def simulate_transient(circuit: Circuit, t_stop: float, dt: float,
                       initial_voltages: dict | None = None,
                       initial_x: np.ndarray | None = None,
                       options: TransientOptions | None = None) -> Waveform:
    """Run a transient analysis from 0 to ``t_stop``.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    t_stop:
        End time [s].
    dt:
        Nominal step size [s]; steps shrink temporarily on Newton
        failure.
    initial_voltages:
        Node name -> voltage at t=0 (UIC semantics); unlisted nodes
        start at 0 V.  Ignored when ``initial_x`` is given.
    initial_x:
        A full unknown vector to start from (e.g. a DC solution's
        ``x``).
    options:
        Engine knobs.

    Returns
    -------
    Waveform
        All node voltages and branch currents over time, including t=0.
    """
    opts = options or TransientOptions()
    _check_time_span(t_stop, dt)

    program = StampProgram(circuit)
    n = program.n
    if initial_x is not None:
        x = np.array(initial_x, dtype=float, copy=True)
        if x.shape != (n,):
            raise SimulationError(
                f"initial_x has shape {x.shape}, expected ({n},)")
    else:
        x = program.unknown_vector(initial_voltages)
    history = program.initial_history(x)
    # One set of pools per run, refilled for every (sub)step; each
    # step's assemblers are done with before the next step's is built.
    pools = StampPools(program)
    grid = _StimulusGrid(program, t_stop, dt,
                         hooked=opts.pre_step is not None)

    def assemble_factory(t_new: float, coeff: IntegrationCoeff,
                         source_scale: float = 1.0):
        # Source-stepping homotopy scales only the independent sources'
        # RHS, leaving the nonlinear-device stamps untouched (mirrors the
        # DC operating-point continuation).  A time off the nominal grid
        # (a halved step) reads the stimuli now.
        return pools.assembler(t_new, coeff, history, source_scale,
                               stimuli=grid.get(t_new))

    times = [0.0]
    solutions = [x.copy()]
    t = 0.0
    accepted = 0
    total_halvings = 0
    with obs.span("spice.transient", t_stop=t_stop, dt=dt,
                  unknowns=n) as trace_span:
        while t < t_stop - 1e-15 * t_stop:
            if opts.pre_step is not None:
                opts.pre_step(t, x)
            step = min(dt, t_stop - t)
            method = "be" if accepted < opts.be_startup_steps else opts.method
            # Try the step; halve on Newton failure.
            halvings = 0
            sub_t = t
            sub_remaining = step
            while sub_remaining > 1e-15 * dt:
                sub_step = sub_remaining if halvings == 0 else \
                    min(sub_remaining, step / 2 ** halvings)
                coeff = IntegrationCoeff(method=method, dt=sub_step)
                try:
                    x_new = solve_newton(
                        assemble_factory(sub_t + sub_step, coeff), x,
                        opts.newton)
                except ConvergenceError as error:
                    halvings += 1
                    total_halvings += 1
                    if halvings > opts.max_halvings:
                        x_new = _recover_step(assemble_factory, sub_t,
                                              sub_step, method, x, opts,
                                              error)
                    else:
                        method = "be"  # BE is more robust while struggling
                        continue
                history = program.advance(x_new, coeff, history)
                x = x_new
                sub_t += sub_step
                sub_remaining -= sub_step
            t = sub_t
            if halvings:
                grid.follow(t)
            accepted += 1
            if accepted % opts.record_every == 0 \
                    or t >= t_stop - 1e-15 * t_stop:
                times.append(t)
                solutions.append(x.copy())
        trace_span.set(steps=accepted, halvings=total_halvings)
    if obs.enabled():
        obs.inc("transient.runs")
        obs.inc("transient.steps", accepted)
        obs.inc("transient.halvings", total_halvings)

    return _package_waveform(circuit, times, solutions)


class _StimulusGrid:
    """Stimulus values at the end of every nominal step.

    The times are accumulated as the stepping loop accumulates them, and
    each stimulus is called once on all of them.  Empty for a hooked run
    (the hook may swap stimuli between steps) and when a stimulus is not
    one of :data:`_PURE_STIMULI` (it may hold state that changes during
    the run, like a co-simulation's held value).

    Halved sub-steps can add up a few ulps off the grid; :meth:`follow`
    then rebuilds the rest of the grid from the time the loop reached,
    so the later nominal steps read it again.
    """

    def __init__(self, program: StampProgram, t_stop: float, dt: float,
                 hooked: bool) -> None:
        self.times: list = []
        self.stimuli = program.stimuli()
        self.t_stop = t_stop
        self.dt = dt
        if hooked or any(type(stimulus) not in _PURE_STIMULI
                         for stimulus in self.stimuli):
            self.stimuli = []
            return
        self._fill(0.0)

    def _fill(self, t: float) -> None:
        """Tabulate the nominal step ends from ``t`` on."""
        self.times = []
        while t < self.t_stop - 1e-15 * self.t_stop:
            t += min(self.dt, self.t_stop - t)
            self.times.append(t)
        grid = np.array(self.times)
        self.table = np.empty((grid.size, len(self.stimuli)))
        for column, stimulus in enumerate(self.stimuli):
            self.table[:, column] = stimulus(grid)

    def follow(self, t: float) -> None:
        """Rebuild the rest of the grid from ``t`` when a halved step
        ended there, off the grid."""
        if self.stimuli and self.get(t) is None:
            self._fill(t)

    def get(self, t: float):
        """The row at ``t``, or ``None`` when ``t`` is not a grid time."""
        index = bisect.bisect_left(self.times, t)
        if index < len(self.times) and self.times[index] == t:
            return self.table[index]
        return None


def _check_time_span(t_stop: float, dt: float) -> None:
    """Reject a non-positive or non-finite window or step."""
    if not (math.isfinite(t_stop) and t_stop > 0.0):
        raise SimulationError(
            f"t_stop must be positive and finite, got {t_stop}")
    if not (math.isfinite(dt) and 0.0 < dt <= t_stop):
        raise SimulationError(f"dt must lie in (0, t_stop], got {dt}")


def _package_waveform(circuit: Circuit, times: list,
                     solutions: list) -> Waveform:
    """Node voltages and branch currents of the recorded solutions."""
    data = np.asarray(solutions)
    signals = {name: data[:, index]
               for index, name in enumerate(circuit.node_names)}
    for element in circuit.elements:
        if element.num_branches:
            signals[f"i({element.name})"] = data[:, element.branch_index]
    return Waveform(np.asarray(times), signals)
