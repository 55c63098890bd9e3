"""Piecewise-constant occupancy trajectories of two-state trap chains.

Every stochastic kernel in :mod:`repro.markov` returns an
:class:`OccupancyTrace`: the state of a trap as a right-open
piecewise-constant function of time.  This mirrors the
``trap_occupancy[tr] = [times, states]`` output of paper Algorithm 1,
with the boundary conventions made explicit so that sampling, dwell-time
statistics and multi-trap superposition are unambiguous.

The population kernels return a :class:`PopulationOccupancy`: every
trap's flips in one flat buffer, read as a sequence of traces only on
demand.  :func:`number_filled` counts ``N_filled(t)`` (paper Eq. 3)
from those flat arrays, for a whole device or, grouped, for many
devices in one pass.
"""

from __future__ import annotations

from collections.abc import Sequence
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


@dataclass(frozen=True, eq=False)
class PopulationOccupancy(Sequence):
    """Occupancy of ``K`` traps over one window, in flat arrays.

    Trap ``k`` starts in ``initial_states[k]`` at ``t_start`` and flips
    at ``flip_times[offsets[k]:offsets[k + 1]]``.  This is what paper
    Eq. (3) needs (see :func:`number_filled`); the object is also a
    read-only sequence of :class:`OccupancyTrace` (``len``, index,
    slice, iteration) whose traces are materialised on access as
    read-only views into one shared boundary buffer.

    Attributes
    ----------
    t_start, t_stop:
        The simulated window [s], shared by every trap.
    initial_states:
        State of each trap at ``t_start`` (0/1), ``int8``, shape ``(K,)``.
    offsets:
        Flip offsets per trap, ``int64``, shape ``(K + 1,)``.
    flip_times:
        All flips, grouped by trap and chronological within a trap,
        each strictly inside ``(t_start, t_stop)``, shape ``(F,)``.

    The arrays are stored as read-only views.
    """

    t_start: float
    t_stop: float
    initial_states: np.ndarray
    offsets: np.ndarray
    flip_times: np.ndarray

    def __post_init__(self) -> None:
        t_start, t_stop = float(self.t_start), float(self.t_stop)
        if not (np.isfinite(t_start) and np.isfinite(t_stop)
                and t_start < t_stop):
            raise ModelError(f"invalid window [{t_start:g}, {t_stop:g}]")
        initial = np.asarray(self.initial_states)
        offsets = np.asarray(self.offsets)
        flips = np.asarray(self.flip_times, dtype=float)
        if initial.ndim != 1 or offsets.shape != (initial.size + 1,) \
                or flips.ndim != 1:
            raise ModelError(
                "expected initial_states (K,), offsets (K+1,) and "
                "1-D flip_times")
        if not np.all((initial == 0) | (initial == 1)):
            raise ModelError("initial states must be 0 or 1")
        if offsets[0] != 0 or offsets[-1] != flips.size \
                or np.any(np.diff(offsets) < 0):
            raise ModelError("offsets must rise from 0 to len(flip_times)")
        if flips.size and not (flips.min() > t_start
                               and flips.max() < t_stop):
            raise ModelError("flip times must lie strictly inside the window")
        if np.any((np.diff(flips) <= 0.0) & _within_traps(offsets)):
            raise ModelError("flip times must be strictly increasing per trap")
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "t_stop", t_stop)
        for name, array in (("initial_states", initial.astype(np.int8)),
                            ("offsets", offsets.astype(np.int64)),
                            ("flip_times", flips)):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def from_traces(cls, t_start: float, t_stop: float,
                    traces) -> "PopulationOccupancy":
        """Pool per-trap traces that all span ``[t_start, t_stop]``."""
        traces = list(traces)
        if any(trace.t_start != t_start or trace.t_stop != t_stop
               for trace in traces):
            raise ModelError("every trace must span the population window")
        return cls(t_start, t_stop, *_pooled(traces))

    # ------------------------------------------------------------------
    @property
    def n_transitions(self) -> np.ndarray:
        """State changes per trap, shape ``(K,)``."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return int(self.initial_states.size)

    def __getitem__(self, key):
        if isinstance(key, slice):
            index = np.arange(len(self))[key]
            counts = self.n_transitions[index]
            offsets = np.concatenate(([0], np.cumsum(counts)))
            source = np.arange(offsets[-1]) \
                + np.repeat(self.offsets[index] - offsets[:-1], counts)
            return PopulationOccupancy(
                self.t_start, self.t_stop, self.initial_states[index],
                offsets, self.flip_times[source])
        index = int(key)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"trap index {key} out of range")
        times, starts, parity = self._boundaries()
        lo, hi = int(starts[index]), int(starts[index + 1])
        return OccupancyTrace._trusted(
            times[lo:hi], parity[self.initial_states[index]][:hi - lo - 1])

    def __iter__(self):
        times, starts, parity = self._boundaries()
        bounds = starts.tolist()
        for index, state in enumerate(self.initial_states.tolist()):
            lo, hi = bounds[index], bounds[index + 1]
            yield OccupancyTrace._trusted(times[lo:hi],
                                          parity[state][:hi - lo - 1])

    def __eq__(self, other) -> bool:
        if isinstance(other, PopulationOccupancy):
            return (self.t_start == other.t_start
                    and self.t_stop == other.t_stop
                    and all(np.array_equal(getattr(self, name),
                                           getattr(other, name))
                            for name in ("initial_states", "offsets",
                                         "flip_times")))
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                np.array_equal(a.times, b.times)
                and np.array_equal(a.states, b.states)
                for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def _boundaries(self) -> tuple:
        """Cached ``(boundary times, per-trap starts, state templates)``.

        One flat buffer holds ``[t_start, flips_k..., t_stop]`` for
        every trap; a trace's ``times`` is a slice of it and its
        ``states`` a slice of the alternating template that starts in
        its initial state.  All three are read-only, so an in-place
        edit of one trace cannot corrupt its siblings.
        """
        cached = getattr(self, "_boundary_cache", None)
        if cached is None:
            n_traps = len(self)
            starts = self.offsets + 2 * np.arange(n_traps + 1)
            times = np.empty(int(starts[-1]), dtype=float)
            times[starts[:-1]] = self.t_start
            times[starts[1:] - 1] = self.t_stop
            interior = np.ones(times.size, dtype=bool)
            interior[starts[:-1]] = False
            interior[starts[1:] - 1] = False
            times[interior] = self.flip_times
            longest = int(self.n_transitions.max(initial=0)) + 1
            parity = ((np.arange(longest, dtype=np.int8) % 2),
                      ((np.arange(longest, dtype=np.int8) + 1) % 2))
            for array in (times, *parity):
                array.flags.writeable = False
            cached = (times, starts, parity)
            object.__setattr__(self, "_boundary_cache", cached)
        return cached


def _within_traps(offsets: np.ndarray) -> np.ndarray:
    """Mask of consecutive flip pairs that belong to the same trap.

    Entry ``i`` pairs flips ``i`` and ``i + 1``; shape ``(F - 1,)``.
    """
    n_flips = int(offsets[-1])
    mask = np.ones(max(n_flips - 1, 0), dtype=bool)
    cuts = offsets[1:-1]
    mask[cuts[(cuts > 0) & (cuts < n_flips)] - 1] = False
    return mask


def _pooled(traces: list) -> tuple:
    """``(initial states, offsets, flip times)`` of a list of traces."""
    initial = np.array([trace.initial_state for trace in traces],
                       dtype=np.int8)
    counts = np.array([trace.n_transitions for trace in traces],
                      dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    flips = (np.concatenate([trace.times[1:-1] for trace in traces])
             if traces else np.zeros(0, dtype=float))
    return initial, offsets, flips


def number_filled(traces, grid: np.ndarray,
                  groups: np.ndarray | None = None) -> np.ndarray:
    """Return ``N_filled(t)`` on a grid: how many of the traces are filled.

    This is the multi-trap occupancy count that enters paper Eq. (3).
    ``traces`` is a :class:`PopulationOccupancy` or a list of
    :class:`OccupancyTrace` (pooled first; their windows may differ, and
    the grid must lie in all of them).  An empty population yields
    all-zeros (a trap-free device).  Each flip adds +-1 from its time on
    (right-open, as :meth:`OccupancyTrace.state_at`), so ``t_stop`` sees
    the final states.

    With ``groups`` — trap offsets ``(G + 1,)`` from 0 to ``K`` — the
    traps ``groups[g]:groups[g + 1]`` form device ``g`` and the result
    is one count per device, shape ``(G,) + grid.shape``, from one pass:
    every flip lands in a grid column by binary search, the +-1 steps
    are binned per ``(device, column)`` and accumulated along time.
    """
    grid = np.asarray(grid, dtype=float)
    if isinstance(traces, PopulationOccupancy):
        lo, hi = traces.t_start, traces.t_stop
        initial, offsets, flips = (traces.initial_states, traces.offsets,
                                   traces.flip_times)
    else:
        traces = list(traces)
        lo = max((trace.t_start for trace in traces), default=0.0)
        hi = min((trace.t_stop for trace in traces), default=0.0)
        initial, offsets, flips = _pooled(traces)
    n_traps = initial.size
    bounds = np.array([0, n_traps]) if groups is None \
        else np.asarray(groups, dtype=np.int64)
    if bounds.ndim != 1 or bounds.size < 1 or bounds[0] != 0 \
            or bounds[-1] != n_traps or np.any(np.diff(bounds) < 0):
        raise AnalysisError(f"groups must rise from 0 to {n_traps} traps")
    if n_traps and not np.all((grid >= lo) & (grid <= hi)):
        raise AnalysisError(f"query times must lie in [{lo:g}, {hi:g}]")

    points = grid.ravel()
    order = None
    if np.any(points[1:] < points[:-1]):
        order = np.argsort(points, kind="stable")
        points = points[order]
    n_groups, width = bounds.size - 1, points.size + 1
    # A trap leaves state (initial + k) % 2 at its k-th flip.
    per_trap = np.diff(offsets)
    rank = np.arange(flips.size) - np.repeat(offsets[:-1], per_trap)
    left = (np.repeat(initial, per_trap) + rank) % 2
    group = np.repeat(np.arange(n_groups), np.diff(offsets[bounds]))
    column = np.searchsorted(points, flips, side="left")
    steps = np.bincount(group * width + column, weights=1 - 2 * left,
                        minlength=n_groups * width)
    start = np.concatenate(([0], np.cumsum(initial, dtype=np.int64)))
    counts = np.cumsum(steps.reshape(n_groups, width)[:, :-1], axis=1,
                       dtype=float) \
        + (start[bounds[1:]] - start[bounds[:-1]])[:, None]
    if order is not None:
        counts[:, order] = counts.copy()
    if groups is None:
        return counts[0].reshape(grid.shape)
    return counts.reshape((n_groups,) + grid.shape)
