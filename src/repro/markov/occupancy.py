"""Piecewise-constant occupancy trajectories of two-state trap chains.

Every stochastic kernel in :mod:`repro.markov` returns an
:class:`OccupancyTrace`: the state of a trap as a right-open
piecewise-constant function of time.  This mirrors the
``trap_occupancy[tr] = [times, states]`` output of paper Algorithm 1,
with the boundary conventions made explicit so that sampling, dwell-time
statistics and multi-trap superposition are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError, ModelError


@dataclass(frozen=True)
class OccupancyTrace:
    """State trajectory of a two-state chain on ``[t_start, t_stop]``.

    The trajectory is stored as segment boundaries: ``times`` has
    ``n + 1`` entries and ``states`` has ``n`` entries; the chain is in
    state ``states[i]`` on the right-open interval
    ``[times[i], times[i+1])`` (the final segment is closed at
    ``t_stop``).  ``times`` is strictly increasing; consecutive states
    always differ (segments are maximal).

    Attributes
    ----------
    times:
        Segment boundaries [s], shape ``(n + 1,)``.
    states:
        Segment states, each 0 (empty) or 1 (filled), shape ``(n,)``.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=np.int8)
        if times.ndim != 1 or states.ndim != 1:
            raise ModelError("times and states must be 1-D arrays")
        if times.size != states.size + 1:
            raise ModelError(
                f"expected len(times) == len(states) + 1, got "
                f"{times.size} vs {states.size}"
            )
        if states.size == 0:
            raise ModelError("a trace needs at least one segment")
        if np.any(np.diff(times) <= 0.0):
            raise ModelError("times must be strictly increasing")
        if not np.all((states == 0) | (states == 1)):
            raise ModelError("states must be 0 or 1")
        if np.any(states[1:] == states[:-1]):
            raise ModelError("consecutive segments must have different states")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def t_start(self) -> float:
        """Start of the simulated window [s]."""
        return float(self.times[0])

    @property
    def t_stop(self) -> float:
        """End of the simulated window [s]."""
        return float(self.times[-1])

    @property
    def n_transitions(self) -> int:
        """Number of state changes in the window."""
        return int(self.states.size - 1)

    @property
    def initial_state(self) -> int:
        """State at ``t_start``."""
        return int(self.states[0])

    @property
    def final_state(self) -> int:
        """State at ``t_stop``."""
        return int(self.states[-1])

    def state_at(self, t) -> np.ndarray:
        """Return the state at time(s) ``t`` (vectorised).

        Times must lie within ``[t_start, t_stop]``; boundary times
        resolve per the right-open convention, except ``t_stop`` which
        returns the final state.
        """
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.times[0]) or np.any(t_arr > self.times[-1]):
            raise AnalysisError(
                f"query times must lie in [{self.times[0]:g}, {self.times[-1]:g}]"
            )
        index = np.searchsorted(self.times, t_arr, side="right") - 1
        index = np.clip(index, 0, self.states.size - 1)
        result = self.states[index]
        return result if t_arr.ndim else int(result)

    def sample(self, grid: np.ndarray) -> np.ndarray:
        """Sample the trajectory on a uniform or arbitrary time grid."""
        return np.asarray(self.state_at(np.asarray(grid, dtype=float)))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def dwell_times(self, state: int, include_censored: bool = False) -> np.ndarray:
        """Return the sojourn durations spent in ``state``.

        The first and last segments are *censored* (cut off by the
        window boundaries rather than by a transition) and are excluded
        unless ``include_censored`` is set; censored dwells bias
        exponentiality tests.
        """
        if state not in (0, 1):
            raise AnalysisError(f"state must be 0 or 1, got {state}")
        durations = np.diff(self.times)
        mask = self.states == state
        if not include_censored:
            mask = mask.copy()
            mask[0] = False
            mask[-1] = False
        return durations[mask]

    def fraction_filled(self) -> float:
        """Return the time-averaged occupancy (fraction of time in state 1)."""
        durations = np.diff(self.times)
        total = float(durations.sum())
        return float(durations[self.states == 1].sum() / total)

    def transition_times(self) -> np.ndarray:
        """Return the times of the state changes, shape ``(n_transitions,)``."""
        return self.times[1:-1].copy()

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_step_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, states)`` arrays tracing the staircase.

        Each transition appears twice — once with the old state, once
        with the new — exactly like the ``times``/``states`` lists built
        by lines 17-21 of paper Algorithm 1, so the output can be drawn
        with a plain line plot.
        """
        n = self.states.size
        step_times = np.empty(2 * n, dtype=float)
        step_states = np.empty(2 * n, dtype=np.int8)
        step_times[0::2] = self.times[:-1]
        step_times[1::2] = self.times[1:]
        step_states[0::2] = self.states
        step_states[1::2] = self.states
        return step_times, step_states

    def restricted(self, t_lo: float, t_hi: float) -> "OccupancyTrace":
        """Return the trace restricted to the window ``[t_lo, t_hi]``."""
        if not (self.t_start <= t_lo < t_hi <= self.t_stop):
            raise AnalysisError(
                f"window [{t_lo:g}, {t_hi:g}] not inside "
                f"[{self.t_start:g}, {self.t_stop:g}]"
            )
        lo = int(np.searchsorted(self.times, t_lo, side="right") - 1)
        hi = int(np.searchsorted(self.times, t_hi, side="left"))
        times = self.times[lo:hi + 1].copy()
        states = self.states[lo:hi].copy()
        times[0] = t_lo
        times[-1] = t_hi
        return OccupancyTrace(times=times, states=states)

    @classmethod
    def _trusted(cls, times: np.ndarray, states: np.ndarray) -> "OccupancyTrace":
        """Build a trace from arrays already known to satisfy the invariants.

        Internal fast path for the batched kernel, which constructs
        thousands of traces whose invariants hold by construction; the
        per-trace validation of ``__post_init__`` would dominate its
        runtime.  Callers must guarantee every invariant documented on
        the class.
        """
        trace = object.__new__(cls)
        object.__setattr__(trace, "times", times)
        object.__setattr__(trace, "states", states)
        return trace

    @staticmethod
    def from_transitions(t_start: float, t_stop: float, initial_state: int,
                         transition_times: np.ndarray) -> "OccupancyTrace":
        """Build a trace from a window, an initial state and flip times.

        ``transition_times`` must be strictly increasing and lie strictly
        inside ``(t_start, t_stop)``; the state flips at each one.
        """
        flips = np.asarray(transition_times, dtype=float)
        if flips.size and (flips[0] <= t_start or flips[-1] >= t_stop):
            raise ModelError("transition times must lie strictly inside the window")
        times = np.concatenate(([t_start], flips, [t_stop]))
        n = flips.size + 1
        states = (initial_state + np.arange(n)) % 2
        return OccupancyTrace(times=times, states=states.astype(np.int8))

    @staticmethod
    def constant(t_start: float, t_stop: float, state: int) -> "OccupancyTrace":
        """Build a trace that never leaves ``state``."""
        return OccupancyTrace(
            times=np.array([t_start, t_stop], dtype=float),
            states=np.array([state], dtype=np.int8),
        )


@dataclass
class _TraceBuilder:
    """Mutable helper used by the kernels to accumulate a trajectory."""

    t_start: float
    initial_state: int
    flips: list = field(default_factory=list)

    def flip(self, t: float) -> None:
        self.flips.append(t)

    def finish(self, t_stop: float) -> OccupancyTrace:
        return OccupancyTrace.from_transitions(
            self.t_start, t_stop, self.initial_state,
            np.asarray(self.flips, dtype=float),
        )


def number_filled(traces: list[OccupancyTrace], grid: np.ndarray) -> np.ndarray:
    """Return ``N_filled(t)`` on a grid: how many of the traces are filled.

    This is the multi-trap occupancy count that enters paper Eq. (3).
    An empty trace list yields all-zeros (a trap-free device).  One array
    pass: each pooled flip adds +-1 from its time on (right-open, as
    :meth:`OccupancyTrace.state_at`), so ``t_stop`` sees the final states.
    """
    grid = np.asarray(grid, dtype=float)
    if not traces:
        return np.zeros(grid.shape, dtype=float)
    lo = max(trace.t_start for trace in traces)
    hi = min(trace.t_stop for trace in traces)
    if np.any(grid < lo) or np.any(grid > hi):
        raise AnalysisError(f"query times must lie in [{lo:g}, {hi:g}]")
    flips = np.concatenate([trace.times[1:-1] for trace in traces])
    order = np.argsort(flips, kind="stable")
    left = np.concatenate([trace.states[:-1] for trace in traces])[order]
    initial = sum(trace.initial_state for trace in traces)
    counts = np.cumsum(np.concatenate(([initial], 1 - 2 * left.astype(np.int64))))
    return counts[np.searchsorted(flips[order], grid, side="right")].astype(float)
