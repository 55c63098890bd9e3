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

**Lockstep batches.**  :func:`simulate_transient_batch` steps B circuits
of one topology through one loop: one batched Newton solve
(:func:`~repro.spice.newton.newton_iterate`) per step for every cell,
with per-cell element values, capacitor state and stimulus tables.  A
batch never halves a step.  A cell whose Newton fails in a batch of
more than one leaves it: it reruns that step, and runs the rest of the
window, as a batch of one from the state it had, with halvings and the
recovery ladder.  Each cell's waveform is therefore the bits of its own
run, and :func:`simulate_transient` is the batch of one.
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
from .newton import (
    NewtonOptions,
    NewtonRecovery,
    newton_iterate,
    record_failure,
    record_rows,
    solve_one,
)
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
        the circuit (paper future-work #1).  A hooked run simulates one
        circuit.
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


def _recover_step(pools: StampPools, history: tuple, stimuli,
                  sub_t: float, sub_step: float, method: str, x: np.ndarray,
                  opts: TransientOptions,
                  error: ConvergenceError) -> np.ndarray:
    """Last-ditch ladder for a step that survived no halving.

    Escalates through tighter damping and source-stepping homotopy, and
    otherwise re-raises a :class:`~repro.errors.ConvergenceError` that
    keeps the failing solve's iteration/residual metadata — per-cell
    outcomes downstream report *why* the cell died, not just that it
    did.  A batch of one.
    """
    coeff = IntegrationCoeff(method=method, dt=sub_step)
    if opts.recovery:
        # Source-stepping homotopy scales only the independent sources'
        # RHS, leaving the nonlinear-device stamps untouched (mirrors the
        # DC operating-point continuation).
        recover = NewtonRecovery(
            source_stepping=lambda scale: pools.assembler(
                sub_t + sub_step, coeff, history, scale, stimuli=stimuli))
        try:
            x_new, _ = solve_one(
                pools.assembler(sub_t + sub_step, coeff, history,
                                stimuli=stimuli),
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
    _check_time_span(t_stop, dt)
    program = StampProgram(circuit)
    if initial_x is not None:
        x = np.array(initial_x, dtype=float, copy=True)
        if x.shape != (program.n,):
            raise SimulationError(
                f"initial_x has shape {x.shape}, expected ({program.n},)")
    else:
        x = program.unknown_vector(initial_voltages)
    (result,) = _simulate(program, x[None], t_stop, dt, options)
    if isinstance(result, ConvergenceError):
        raise result
    return result


def simulate_transient_batch(circuits, t_stop: float, dt: float,
                             initial_voltages=None,
                             options: TransientOptions | None = None
                             ) -> list:
    """Run B circuits of one topology through one lockstep transient.

    The circuits must hold the same elements, classes and nodes in the
    same order (see :meth:`~repro.spice.mna.StampProgram.stack`); their
    values, stimuli and initial voltages may differ.  Each cell's
    waveform has the bits of :func:`simulate_transient` on its circuit
    alone.

    Parameters
    ----------
    circuits:
        The circuits, one per cell.
    t_stop, dt, options:
        As for :func:`simulate_transient`, shared by every cell; a
        ``pre_step`` hook is refused for more than one circuit.
    initial_voltages:
        One node name -> voltage dict (UIC) per circuit, or ``None``.

    Returns
    -------
    list
        Per circuit, its :class:`Waveform`, or the
        :class:`~repro.errors.ConvergenceError` that stopped its run.
    """
    _check_time_span(t_stop, dt)
    circuits = list(circuits)
    if options is not None and options.pre_step is not None \
            and len(circuits) > 1:
        raise SimulationError("a pre_step hook runs one circuit at a time")
    program = StampProgram.stack(circuits)
    if initial_voltages is None:
        initial_voltages = [None] * len(circuits)
    if len(initial_voltages) != len(circuits):
        raise SimulationError("initial_voltages must match the circuits")
    x = np.array([program.unknown_vector(voltages)
                  for voltages in initial_voltages]).reshape(
                      len(circuits), program.n)
    return _simulate(program, x, t_stop, dt, options)


def _simulate(program: StampProgram, x: np.ndarray, t_stop: float,
              dt: float, options: TransientOptions | None) -> list:
    """Every cell's waveform (or error) from the iterates ``x`` at 0."""
    run = _Lockstep(t_stop, dt, options or TransientOptions())
    grid = _StimulusGrid(program.stimuli(), t_stop, dt,
                         hooked=run.opts.pre_step is not None)
    with obs.span("spice.transient", t_stop=t_stop, dt=dt,
                  unknowns=program.n, cells=program.batch) as trace_span:
        try:
            runs = run.march(program, x, program.initial_history(x), grid,
                             0.0, 0)
        except ConvergenceError as error:  # a batch of one
            runs = [error]
        trace_span.set(steps=run.steps, halvings=run.halvings)
    if obs.enabled():
        obs.inc("transient.runs", program.batch)
        obs.inc("transient.steps", run.steps)
        obs.inc("transient.halvings", run.halvings)
        if program.batch > 1:
            obs.inc("transient.batches")
            obs.inc("transient.dropouts", run.dropouts)
    waveforms = []
    for row, outcome in enumerate(runs):
        if isinstance(outcome, ConvergenceError):
            waveforms.append(outcome)
            continue
        times, solutions = outcome
        waveforms.append(_package_waveform(
            program.circuits[row], [0.0] + times,
            np.concatenate((x[row][None], solutions))))
    return waveforms


class _Lockstep:
    """One transient run: its window, options and step accounting.

    :meth:`march` steps a batch of cells; a cell that leaves a batch of
    more than one is marched on alone by the same method.
    """

    def __init__(self, t_stop: float, dt: float,
                 opts: TransientOptions) -> None:
        self.t_stop, self.dt, self.opts = t_stop, dt, opts
        self.steps = self.halvings = self.dropouts = 0
        self._coeffs: dict = {}

    def coeff(self, method: str, dt: float) -> IntegrationCoeff:
        """The integration context of a step, one object per kind."""
        coeff = self._coeffs.get((method, dt))
        if coeff is None:
            coeff = self._coeffs[method, dt] = IntegrationCoeff(method, dt)
        return coeff

    def march(self, program: StampProgram, x: np.ndarray, history: tuple,
              grid: "_StimulusGrid", t: float, accepted: int) -> list:
        """Step the cells of ``program`` from ``(t, x, history)`` to
        ``t_stop`` in lockstep, ``accepted`` nominal steps in.

        Returns, per cell, the recorded ``(times, solutions)`` after
        ``t`` — or, for a cell that left the batch and then failed
        alone, its :class:`~repro.errors.ConvergenceError`.  A batch of
        one raises its error.
        """
        opts, t_stop, dt = self.opts, self.t_stop, self.dt
        batch = program.batch
        # One set of pools per batch, refilled for every (sub)step; each
        # step's assemblers are done with before the next step's is
        # built.
        pools = StampPools(program)
        recording = obs.enabled()
        alive = np.ones(batch, dtype=bool)
        n_alive = batch
        times: list = []
        snapshots: list = []
        # Cell -> (snapshots it is in, its run after it left the batch).
        departed: dict = {}
        while n_alive and t < t_stop - 1e-15 * t_stop:
            if opts.pre_step is not None:
                opts.pre_step(t, x[0])
            step = min(dt, t_stop - t)
            method = "be" if accepted < opts.be_startup_steps \
                else opts.method
            # Try the step; a batch of one halves on Newton failure.
            halvings = 0
            sub_t = t
            sub_remaining = step
            while sub_remaining > 1e-15 * dt:
                sub_step = sub_remaining if halvings == 0 else \
                    min(sub_remaining, step / 2 ** halvings)
                coeff = self.coeff(method, sub_step)
                # A time off the nominal grid (a halved step) reads the
                # stimuli now.
                stimuli = grid.get(sub_t + sub_step)
                outcome = newton_iterate(
                    pools.assembler(sub_t + sub_step, coeff, history,
                                    stimuli=stimuli),
                    x, opts.newton, None if n_alive == batch else alive)
                x_new = outcome.x
                if outcome.errors and batch == 1:
                    (error,) = outcome.errors.values()
                    record_failure(error)
                    halvings += 1
                    self.halvings += 1
                    if halvings <= opts.max_halvings:
                        method = "be"  # BE is more robust while struggling
                        continue
                    x_new = _recover_step(pools, history, stimuli, sub_t,
                                          sub_step, method, x, opts, error)
                else:
                    # Each failed cell leaves the batch and runs the rest
                    # of the window alone, from the start of this step.
                    for row in sorted(outcome.errors):
                        alive[row] = False
                        n_alive -= 1
                        self.dropouts += 1
                        departed[row] = (len(snapshots), self._depart(
                            program, x, history, grid, row, t, accepted))
                    if not n_alive:
                        break
                    if recording:
                        record_rows(outcome, alive)
                history = pools.advance(x_new, coeff, history)
                x = x_new
                sub_t += sub_step
                sub_remaining -= sub_step
            if not n_alive:
                break
            t = sub_t
            if halvings:
                grid.follow(t)
            accepted += 1
            self.steps += n_alive
            if accepted % opts.record_every == 0 \
                    or t >= t_stop - 1e-15 * t_stop:
                times.append(t)
                snapshots.append(x.copy())
        recorded = np.array(snapshots).reshape(len(snapshots), batch,
                                               program.n)
        runs = []
        for row in range(batch):
            if row not in departed:
                runs.append((times, recorded[:, row]))
                continue
            kept, run = departed[row]
            if isinstance(run, ConvergenceError):
                runs.append(run)
                continue
            runs.append((times[:kept] + run[0],
                         np.concatenate((recorded[:kept, row], run[1]))))
        return runs

    def _depart(self, program: StampProgram, x: np.ndarray, history: tuple,
                grid: "_StimulusGrid", row: int, t: float, accepted: int):
        """Cell ``row``'s run from ``t`` on, as a batch of one: its
        ``(times, solutions)`` or the error that stopped it."""
        single = slice(row, row + 1)
        try:
            (run,) = self.march(program.take([row]), x[single],
                                (history[0][single], history[1][single]),
                                grid.take(row), t, accepted)
        except ConvergenceError as error:
            return error
        return run


class _StimulusGrid:
    """Stimulus values at the end of every nominal step, per cell.

    The times are accumulated as the stepping loop accumulates them, and
    each stimulus is called once on all of them.  Empty for a hooked run
    (the hook may swap stimuli between steps) and when a stimulus is not
    one of :data:`_PURE_STIMULI` (it may hold state that changes during
    the run, like a co-simulation's held value).

    Halved sub-steps can add up a few ulps off the grid; :meth:`follow`
    then rebuilds the rest of the grid from the time the loop reached,
    so the later nominal steps read it again.
    """

    def __init__(self, stimuli: list, t_stop: float, dt: float,
                 hooked: bool) -> None:
        self.times: list = []
        self._next = 0
        self.stimuli = stimuli
        self.t_stop = t_stop
        self.dt = dt
        if hooked or any(type(stimulus) not in _PURE_STIMULI
                         for cell in stimuli for stimulus in cell):
            self.stimuli = []
            return
        self._fill(0.0)

    def _fill(self, t: float) -> None:
        """Tabulate the nominal step ends from ``t`` on."""
        self.times = []
        self._next = 0
        while t < self.t_stop - 1e-15 * self.t_stop:
            t += min(self.dt, self.t_stop - t)
            self.times.append(t)
        grid = np.array(self.times)
        # (step, source, cell): a step's rows are the pools' layout.
        self.table = np.empty((grid.size, len(self.stimuli[0]),
                               len(self.stimuli)))
        for cell, stimuli in enumerate(self.stimuli):
            for source, stimulus in enumerate(stimuli):
                self.table[:, source, cell] = stimulus(grid)

    def take(self, row: int) -> "_StimulusGrid":
        """The grid of cell ``row`` alone (sharing its rows)."""
        part = object.__new__(_StimulusGrid)
        part.__dict__.update(self.__dict__)
        if self.stimuli:
            part.stimuli = [self.stimuli[row]]
            part.table = self.table[:, :, row:row + 1]
        return part

    def follow(self, t: float) -> None:
        """Rebuild the rest of the grid from ``t`` when a halved step
        ended there, off the grid."""
        if self.stimuli and self.get(t) is None:
            self._fill(t)

    def get(self, t: float):
        """The ``(sources, cells)`` values at ``t``, or ``None`` when
        ``t`` is not a grid time.  The nominal steps ask in order, so
        the row after the last one found is tried first."""
        index, times = self._next, self.times
        if index >= len(times) or times[index] != t:
            index = bisect.bisect_left(times, t)
            if index >= len(times) or times[index] != t:
                return None
        self._next = index + 1
        return self.table[index]


def _check_time_span(t_stop: float, dt: float) -> None:
    """Reject a non-positive or non-finite window or step."""
    if not (math.isfinite(t_stop) and t_stop > 0.0):
        raise SimulationError(
            f"t_stop must be positive and finite, got {t_stop}")
    if not (math.isfinite(dt) and 0.0 < dt <= t_stop):
        raise SimulationError(f"dt must lie in (0, t_stop], got {dt}")


def _package_waveform(circuit: Circuit, times: list,
                      solutions: np.ndarray) -> Waveform:
    """Node voltages and branch currents of the recorded solutions."""
    data = np.ascontiguousarray(solutions)
    signals = {name: data[:, index]
               for index, name in enumerate(circuit.node_names)}
    for element in circuit.elements:
        if element.num_branches:
            signals[f"i({element.name})"] = data[:, element.branch_index]
    return Waveform(np.asarray(times), signals)
