"""Batched uniformisation: paper Algorithm 1 over a whole trap population.

:func:`repro.markov.uniformization.simulate_trap` runs one trap at a
time with a Python-level candidate loop.  Array-scale studies (SRAM
arrays, Monte-Carlo write-error prediction) need thousands of traps, so
this module simulates the *entire population in flat numpy arrays* with
a single thinning sweep.

The vectorisation rests on a regenerative reformulation of the thinning
step.  Uniformise trap ``i`` at a rate ``Lambda_i`` that dominates the
propensity **sum** ``lambda_c(t) + lambda_e(t)`` (not merely each rate).
At a candidate time ``t`` draw one uniform ``u`` and partition::

    u <  lambda_c(t)/Lambda                 ->  state := 1 (filled)
    u <  (lambda_c(t)+lambda_e(t))/Lambda   ->  state := 0 (empty)
    otherwise                               ->  hold (self-loop)

From state 0 this transitions with probability ``lambda_c/Lambda`` and
from state 1 with probability ``lambda_e/Lambda`` — exactly the thinning
acceptance of Algorithm 1 — but the *outcome* of a non-hold candidate no
longer depends on the current state.  The trajectory is therefore a
forward-fill of the forced outcomes over the candidate sequence, which
vectorises across every candidate of every trap at once.

The kernel uniformises trap ``i`` at its table's peak sum
``Lambda_i = max_t (lambda_c + lambda_e)``, the tightest valid sum
bound.  For SAMURAI traps the sum is bias-independent (paper Eq. 1), so
``Lambda_i`` is the constant ``lambda_c + lambda_e`` that line 3 of paper
Algorithm 1 uses, and every candidate is forced.  The scalar kernel
bounds each trap by its larger peak *rate*, ``max(peak lambda_c, peak
lambda_e) <= Lambda_i``, so it may draw slightly fewer candidates.

One flat sweep draws every candidate of every trap.  Given its Poisson
count, a trap's candidate times are uniform order statistics: the sweep
draws ``total + K`` standard exponentials and takes one ``cumsum``;
trap ``i``'s times are its segment's partial sums, minus the sum before
the segment, over the segment's total.  They come out sorted by (trap,
time), with no sort and no padding.  Rounding keeps that order: a
``cumsum`` of positive spacings is non-decreasing, and the per-trap
shift and scale are monotone, so each trap's times are non-decreasing.
An exact tie goes through :func:`_untied`, and a time that rounds onto
``t_start`` or ``t_stop`` is unforced by the window-edge mask.

Both population kernels take one input, a *rate table*, read through
one small interface, so a table need not hold its rates as dense
arrays: ``times``, ``n_traps``, ``rate_sums()``, ``_sum_info()``,
``grid_coordinates(t)``, ``capture_at(rows, cols)``/``emission_at(rows,
cols)`` (rate samples at ``(trap, grid column)`` pairs) and
``single(k)`` (trap ``k`` for the scalar kernel).  :class:`BatchPropensity` is the dense form; the trap
physics supplies a lazy one
(:func:`repro.traps.propensity.population_propensity`) that evaluates
rates only at the columns around each candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import SimulationError
from ..obs import clock
from ..testing import faults as _faults
from .occupancy import PopulationOccupancy, _within_traps
from .propensity import SampledTwoStatePropensity, checked_rate_grid
from .uniformization import (
    MAX_EXPECTED_CANDIDATES,
    UniformizationStats,
    check_window,
    simulate_trap_detailed,
)

__all__ = [
    "BatchPropensity",
    "BatchUniformizationStats",
    "simulate_traps_batch",
    "simulate_traps_scalar",
]

@dataclass(frozen=True)
class BatchPropensity:
    """Capture/emission rates of ``K`` traps sampled on one shared grid.

    The dense rate table: all traps of a device (or of a whole array)
    share the bias time grid, so their rates stack into ``(K, M)``
    arrays and :meth:`capture_at`/:meth:`emission_at` are plain gathers.

    Rates are linearly interpolated between grid points and clamp to the
    endpoint values outside the grid, exactly like
    :class:`~repro.markov.propensity.SampledTwoStatePropensity`.

    Attributes
    ----------
    times:
        Strictly increasing shared sample times [s], shape ``(M,)``.
    capture, emission:
        Non-negative rate samples [1/s], shape ``(K, M)``.
    """

    times: np.ndarray
    capture: np.ndarray
    emission: np.ndarray

    def __post_init__(self) -> None:
        times, capture, emission = checked_rate_grid(
            self.times, np.atleast_2d(self.capture),
            np.atleast_2d(self.emission))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "capture", capture)
        object.__setattr__(self, "emission", emission)

    # ------------------------------------------------------------------
    @property
    def n_traps(self) -> int:
        """Number of traps in the batch."""
        return int(self.capture.shape[0])

    def rate_sums(self) -> np.ndarray:
        """Per-trap peak of ``lambda_c + lambda_e`` over the grid, shape ``(K,)``.

        Linear interpolation never exceeds the sample maximum, so this
        is an exact sum bound — for SAMURAI traps it equals the constant
        Eq.-(1) sum.
        """
        return self._sum_info()[0]

    def _sum_info(self) -> tuple[np.ndarray, bool]:
        """Cached ``(per-trap peak sum, every row is constant)``.

        SAMURAI propensities have a bias-independent sum (paper Eq. 1);
        detecting that once lets the kernel skip the acceptance-threshold
        interpolation on every sweep.
        """
        cached = getattr(self, "_sum_cache", None)
        if cached is None:
            sums = self.capture + self.emission
            peaks = np.max(sums, axis=1)
            spread = peaks - np.min(sums, axis=1)
            constant = bool(np.all(spread <= 1e-9 * np.maximum(peaks, 1e-300)))
            cached = (peaks, constant)
            object.__setattr__(self, "_sum_cache", cached)
        return cached

    def single(self, index: int) -> SampledTwoStatePropensity:
        """Extract trap ``index`` as a scalar-kernel propensity object."""
        return SampledTwoStatePropensity(
            times=self.times,
            capture_values=self.capture[index],
            emission_values=self.emission[index],
        )

    def grid_coordinates(self, t: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`grid_coordinates` on this batch's grid."""
        return grid_coordinates(self.times, t)

    def capture_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Capture-rate samples at ``(trap, grid column)`` pairs."""
        return self.capture[rows, cols]

    def emission_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Emission-rate samples at ``(trap, grid column)`` pairs."""
        return self.emission[rows, cols]


def grid_coordinates(grid: np.ndarray, t: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Map times to ``(segment index, blend weight)`` on a sample grid.

    Uniform grids resolve arithmetically; general grids binary-search.
    Out-of-grid times clamp to the endpoints (constant extrapolation).
    """
    n_segments = grid.size - 1
    steps = np.diff(grid)
    dt0 = steps[0]
    if np.allclose(steps, dt0, rtol=1e-9, atol=0.0):
        # Clamp before the integer cast: a float pos beyond int range
        # would wrap negative and silently land on segment 0.
        pos = np.clip((t - grid[0]) / dt0, 0.0, float(n_segments))
        idx = np.minimum(pos.astype(np.int64), n_segments - 1)
        w = np.clip(pos - idx, 0.0, 1.0)
    else:
        idx = np.clip(
            np.searchsorted(grid, np.ravel(t), side="right") - 1,
            0, n_segments - 1,
        ).astype(np.int32).reshape(np.shape(t))
        span = grid[idx + 1] - grid[idx]
        w = np.clip((t - grid[idx]) / span, 0.0, 1.0)
    return idx, w


def _rate_table(table):
    """``table`` itself, or a :class:`TypeError` if it is no rate table."""
    if not hasattr(table, "capture_at"):
        raise TypeError(
            f"the population kernels take a rate table, not "
            f"{type(table).__name__}: stack per-trap rates into a "
            f"BatchPropensity (or build one with population_propensity)")
    return table


@dataclass(frozen=True)
class BatchUniformizationStats:
    """Per-trap bookkeeping of one batched uniformisation sweep.

    Attributes
    ----------
    n_candidates:
        Candidates drawn per trap, shape ``(K,)``.
    n_accepted:
        Accepted candidates (state transitions) per trap, shape ``(K,)``.
    rate_bounds:
        The per-trap uniformisation rates ``Lambda_i``, shape ``(K,)``.
    """

    n_candidates: np.ndarray
    n_accepted: np.ndarray
    rate_bounds: np.ndarray

    @property
    def total_candidates(self) -> int:
        """Candidates across the whole population."""
        return int(np.sum(self.n_candidates))

    @property
    def total_accepted(self) -> int:
        """Transitions across the whole population."""
        return int(np.sum(self.n_accepted))

    @property
    def acceptance_ratio(self) -> float:
        """Population-level fraction of candidates accepted."""
        total = self.total_candidates
        return self.total_accepted / total if total else 0.0

    @property
    def aggregate(self) -> UniformizationStats:
        """Collapse to a scalar-kernel-compatible stats record.

        ``rate_bound`` is the largest per-trap bound — the rate a single
        dominating process for the whole population would need.
        """
        bound = float(np.max(self.rate_bounds)) if self.rate_bounds.size else 0.0
        return UniformizationStats(
            n_candidates=self.total_candidates,
            n_accepted=self.total_accepted,
            rate_bound=bound,
        )


def simulate_traps_batch(
        table, t_start: float, t_stop: float,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
) -> tuple[PopulationOccupancy, BatchUniformizationStats]:
    """Simulate a whole trap population over ``[t_start, t_stop]`` at once.

    One vectorised thinning sweep replaces the per-trap candidate loops
    of :func:`~repro.markov.uniformization.simulate_trap`: candidate
    counts are Poisson-drawn per trap, candidate times for *all* traps
    are generated in one flat array, both rates are gathered with a
    single interpolation pass, and the regenerative thinning rule (see
    the module docstring) resolves every candidate without sequential
    state tracking.  The law of each returned trajectory is exactly that
    of the scalar kernel.

    Parameters
    ----------
    table:
        The population's rate table: a :class:`BatchPropensity`, or any
        object with its kernel interface (see the module docstring),
        such as :func:`repro.traps.propensity.population_propensity`.
        Trap ``i`` is uniformised at ``table.rate_sums()[i]``.
    t_start, t_stop:
        Simulation window [s]; ``t_stop`` must exceed ``t_start``.
    rng:
        NumPy random generator.  The batched kernel consumes draws in a
        different order than a scalar loop, so traces match the scalar
        kernel in distribution, not draw-for-draw.
    initial_states:
        Per-trap state at ``t_start`` (0/1), shape ``(K,)``; defaults to
        all-empty.

    Returns
    -------
    (occupancy, stats):
        The population's flips as one
        :class:`~repro.markov.occupancy.PopulationOccupancy` (a sequence
        of per-trap :class:`~repro.markov.occupancy.OccupancyTrace`),
        plus per-trap :class:`BatchUniformizationStats` (use
        ``stats.aggregate`` for the population summary).
    """
    check_window(t_start, t_stop)
    batch = _rate_table(table)
    n_traps = batch.n_traps
    init = _checked_states(initial_states, n_traps)
    bounds = batch.rate_sums().copy()
    if np.any(~np.isfinite(bounds)) or np.any(bounds <= 0.0):
        worst = int(np.argmin(bounds))
        raise SimulationError(
            f"invalid uniformisation rate bound {bounds[worst]!r} "
            f"for trap {worst}"
        )

    window = t_stop - t_start
    expected = float(np.sum(bounds)) * window
    if expected > MAX_EXPECTED_CANDIDATES:
        raise SimulationError(
            f"expected candidate count {expected:.3g} exceeds the safety "
            f"cap {MAX_EXPECTED_CANDIDATES:g}; shorten the window or shard "
            f"the population"
        )

    kernel_started = clock.monotonic() if obs.enabled() else 0.0
    counts = rng.poisson(lam=bounds * window).astype(np.int64)
    flips_per_trap, flip_times = _sweep(
        batch, bounds, counts, init, t_start, t_stop, window, rng)

    offsets, flip_times = _untied(flips_per_trap, flip_times)
    occupancy = PopulationOccupancy(t_start, t_stop, init, offsets,
                                    flip_times)
    stats = BatchUniformizationStats(n_candidates=counts,
                                     n_accepted=occupancy.n_transitions,
                                     rate_bounds=bounds)
    if obs.enabled():
        elapsed = clock.monotonic() - kernel_started
        obs.inc("kernel.batch.calls")
        obs.inc("kernel.batch.traps", n_traps)
        obs.inc("kernel.batch.candidates", stats.total_candidates)
        obs.inc("kernel.batch.accepted", stats.total_accepted)
        obs.observe("kernel.batch.seconds", elapsed)
        obs.complete_span("markov.batch", kernel_started, elapsed,
                          traps=n_traps, candidates=stats.total_candidates,
                          accepted=stats.total_accepted,
                          acceptance_ratio=stats.acceptance_ratio)
    return occupancy, stats


def _sweep(batch, bounds: np.ndarray,
           counts: np.ndarray, init: np.ndarray,
           t_start: float, t_stop: float, window: float,
           rng: np.random.Generator
           ) -> tuple[np.ndarray, np.ndarray]:
    """The thinning sweep: trap ``i`` owns ``counts[i] + 1`` consecutive
    exponential spacings (see the module docstring)."""
    n_traps = counts.size
    owner = np.repeat(np.arange(n_traps), counts)
    sums = np.cumsum(rng.standard_exponential(owner.size + n_traps))
    last = np.cumsum(counts + 1) - 1
    before = np.zeros(n_traps)
    before[1:] = sums[last[:-1]]
    span = sums[last] - before
    t_cand = t_start + window * ((np.delete(sums, last) - before[owner])
                                 / span[owner])

    idx, w = batch.grid_coordinates(t_cand)
    lam_c = (1.0 - w) * batch.capture_at(owner, idx) \
        + w * batch.capture_at(owner, idx + 1)
    bound_at = bounds[owner]
    draws = rng.random(owner.size)
    # Candidates exactly on the window edge would violate the trace
    # invariant that transitions lie strictly inside (t_start, t_stop).
    forced = (t_cand > t_start) & (t_cand < t_stop)
    if not batch._sum_info()[1]:
        # Only a non-constant sum thins: an Eq.-(1) sum is the bound
        # and forces every candidate (SAMURAI's fast path).
        lam_e = (1.0 - w) * batch.emission_at(owner, idx) \
            + w * batch.emission_at(owner, idx + 1)
        forced &= draws < (lam_c + lam_e) / bound_at
    owner_f = owner[forced]
    t_f = t_cand[forced]
    p_fill = (lam_c / bound_at)[forced]
    bias = _faults.kernel_bias()
    if bias:
        # Injected off-by-epsilon acceptance bug (verification drills).
        p_fill = np.clip(p_fill + bias, 0.0, 1.0)
    value_f = (draws[forced] < p_fill).astype(np.int8)

    # Forward-fill: the state after a forced candidate IS its outcome,
    # so a transition happens exactly where the outcome differs from the
    # previous forced outcome of the trap (or from its initial state).
    seg_start = np.ones(owner_f.size, dtype=bool)
    seg_start[1:] = owner_f[1:] != owner_f[:-1]
    flip = value_f != np.where(seg_start, init[owner_f], np.roll(value_f, 1))

    flips_per_trap = np.bincount(owner_f[flip], minlength=n_traps)
    return flips_per_trap.astype(np.int64), t_f[flip]


def _untied(flips_per_trap: np.ndarray, flip_times: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-trap flip offsets and flip times, exact ties cancelled.

    Exact candidate-time ties are measure-zero; one vectorised pass
    detects them and only the traps that have one are rebuilt.
    """
    offsets = np.concatenate(([0], np.cumsum(flips_per_trap)))
    tied = (np.diff(flip_times) <= 0.0) & _within_traps(offsets)
    if not tied.any():
        return offsets, flip_times
    per_trap = np.split(flip_times, offsets[1:-1])
    for index in np.unique(np.searchsorted(offsets, np.flatnonzero(tied),
                                           side="right") - 1):
        per_trap[index] = _cancel_tied_flips(per_trap[index])
    counts = [flips.size for flips in per_trap]
    return np.concatenate(([0], np.cumsum(counts))), np.concatenate(per_trap)


def _cancel_tied_flips(flips: np.ndarray) -> np.ndarray:
    """Collapse coincident transition times (a double flip is a no-op).

    Exact ties among continuous candidate times have probability ~0 but
    are possible in float64; two flips at one instant cancel, keeping
    the trace's strictly-increasing invariant without biasing the law.
    """
    out: list[float] = []
    for t in flips:
        if out and out[-1] == t:
            out.pop()
        else:
            out.append(float(t))
    return np.asarray(out, dtype=float)


def _checked_states(initial_states, n_traps: int) -> np.ndarray:
    """Validated 0/1 ``int8`` initial states (all-empty when ``None``).

    The values are checked before the cast: ``int8`` would wrap 256 to
    0 and truncate 1.5 to 1.
    """
    if initial_states is None:
        return np.zeros(n_traps, dtype=np.int8)
    states = np.asarray(initial_states)
    if states.shape != (n_traps,):
        raise SimulationError(
            f"initial_states must have shape ({n_traps},), "
            f"got {states.shape}"
        )
    if not np.all((states == 0) | (states == 1)):
        raise SimulationError("initial states must be 0 or 1")
    return states.astype(np.int8)


def simulate_traps_scalar(
        table, t_start: float, t_stop: float,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
) -> tuple[PopulationOccupancy, BatchUniformizationStats]:
    """Paper Algorithm 1 trap by trap over a whole population.

    The exact scalar kernel
    (:func:`~repro.markov.uniformization.simulate_trap_detailed`) runs
    on each trap's row ``table.single(k)``, in population order, on one
    shared generator, so a population's traces are reproducible draw for
    draw from one seed.  Each trap is uniformised at its row's
    ``rate_bound()``, the larger peak rate.  This is the per-cell Fig.-8
    path and the ensemble's degrade path for the batched kernel.

    Parameters
    ----------
    table, t_start, t_stop, rng, initial_states:
        As for :func:`simulate_traps_batch`.
    """
    check_window(t_start, t_stop)
    table = _rate_table(table)
    n_traps = table.n_traps
    states = _checked_states(initial_states, n_traps)
    traces = []
    candidates = np.zeros(n_traps, dtype=np.int64)
    bounds = np.zeros(n_traps, dtype=float)
    for index in range(n_traps):
        trace, stats = simulate_trap_detailed(
            table.single(index), t_start, t_stop, rng,
            initial_state=int(states[index]))
        traces.append(trace)
        candidates[index] = stats.n_candidates
        bounds[index] = stats.rate_bound
    occupancy = PopulationOccupancy.from_traces(t_start, t_stop, traces)
    return occupancy, BatchUniformizationStats(
        n_candidates=candidates, n_accepted=occupancy.n_transitions,
        rate_bounds=bounds)
