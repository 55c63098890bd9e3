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

For SAMURAI traps the sum is bias-independent (paper Eq. 1), so
``Lambda_i = lambda_c + lambda_e`` is simultaneously the tightest valid
sum bound *and* the bound used by line 3 of paper Algorithm 1: the
batched kernel then draws no more candidates than the scalar one.

Two layouts implement the same sweep:

- a *padded row-wise* layout ``(K, max_candidates)`` whose candidate
  times come pre-sorted per trap from exponential spacings (uniform
  order statistics), avoiding any sort — the fast path for populations
  with comparable rates;
- a *flat* layout that concatenates all candidates and lexsorts them by
  (trap, time) — used when per-trap candidate counts are so skewed that
  padding would waste memory.

Both are exact and produce trajectories with the law of the scalar
kernel (verified by the statistical-equivalence tests).

The sweeps read rates through one small *rate-table* interface, so a
table need not hold its rates as dense arrays: ``times``, ``n_traps``,
``rate_sums()``, ``_sum_info()``, ``grid_coordinates(t)``,
``capture_at(rows, cols)``/``emission_at(rows, cols)`` (rate samples at
``(trap, grid column)`` pairs) and ``single(k)`` (trap ``k`` for the
scalar kernel).  :class:`BatchPropensity` is the dense form; the trap
physics supplies a lazy one
(:func:`repro.traps.propensity.population_propensity`) that evaluates
rates only at the columns around each candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import ModelError, SimulationError
from ..obs import clock
from ..testing import faults as _faults
from .occupancy import PopulationOccupancy, _within_traps
from .propensity import (
    ConstantTwoStatePropensity,
    SampledTwoStatePropensity,
)
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

#: Padded layout budget: fall back to the flat layout when padding would
#: allocate more than this factor times the actual candidate count.
_PAD_WASTE_FACTOR = 4.0
#: ... unless the padded allocation is small anyway (elements).
_PAD_MIN_BUDGET = 2_000_000


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
        times = np.asarray(self.times, dtype=float)
        capture = np.atleast_2d(np.asarray(self.capture, dtype=float))
        emission = np.atleast_2d(np.asarray(self.emission, dtype=float))
        if times.ndim != 1 or times.size < 2:
            raise ModelError("times must be a 1-D array with >= 2 samples")
        if not np.all(np.isfinite(times)):
            raise ModelError("times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ModelError("times must be strictly increasing")
        if capture.shape != emission.shape:
            raise ModelError(
                f"capture {capture.shape} and emission {emission.shape} "
                f"shapes must match"
            )
        if capture.shape[1] != times.size:
            raise ModelError(
                f"rate arrays have {capture.shape[1]} samples for "
                f"{times.size} grid points"
            )
        if not (np.all(np.isfinite(capture))
                and np.all(np.isfinite(emission))):
            raise ModelError("propensity samples must be finite")
        if np.any(capture < 0.0) or np.any(emission < 0.0):
            raise ModelError("propensity samples must be non-negative")
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

    def digest(self) -> str:
        """Content digest of the compiled table (cached, hex BLAKE2b).

        Two batches with equal grids and equal rate samples share one
        digest, so it serves for asserting bit-identical tables across
        execution backends.
        """
        cached = getattr(self, "_digest_cache", None)
        if cached is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.times.size).tobytes())
            h.update(np.int64(self.capture.shape[0]).tobytes())
            h.update(np.ascontiguousarray(self.times).tobytes())
            h.update(np.ascontiguousarray(self.capture).tobytes())
            h.update(np.ascontiguousarray(self.emission).tobytes())
            cached = h.hexdigest()
            object.__setattr__(self, "_digest_cache", cached)
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

    # ------------------------------------------------------------------
    @classmethod
    def from_propensities(cls, propensities, times: np.ndarray | None = None
                          ) -> "BatchPropensity":
        """Stack per-trap propensity objects into one batch.

        - All :class:`SampledTwoStatePropensity` on *identical* grids
          stack directly (exact).
        - All sampled propensities on differing grids are re-sampled on
          the union grid, which is still exact for piecewise-linear
          rates (the union contains every knot).
        - All :class:`ConstantTwoStatePropensity` stack on a trivial
          two-point grid (exact; the kernel clamps outside it).
        - Anything else needs an explicit ``times`` grid and is sampled
          on it — exact only when the rates are linear between samples.
        """
        props = list(propensities)
        if not props:
            raise ModelError("cannot build a batch from zero propensities")
        if times is None and all(isinstance(p, SampledTwoStatePropensity)
                                 for p in props):
            grid = props[0].times
            if all(p.times is grid or np.array_equal(p.times, grid)
                   for p in props[1:]):
                return cls(
                    times=grid,
                    capture=np.stack([p.capture_values for p in props]),
                    emission=np.stack([p.emission_values for p in props]),
                )
            times = np.unique(np.concatenate([p.times for p in props]))
        if times is None and all(isinstance(p, ConstantTwoStatePropensity)
                                 for p in props):
            times = np.array([0.0, 1.0])
        if times is None:
            raise ModelError(
                "mixed/callable propensities need an explicit `times` grid"
            )
        times = np.asarray(times, dtype=float)
        capture = np.stack([np.asarray(p.capture(times), dtype=float)
                            for p in props])
        emission = np.stack([np.asarray(p.emission(times), dtype=float)
                             for p in props])
        return cls(times=times, capture=capture, emission=emission)


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


def _is_rate_table(propensities) -> bool:
    """Whether ``propensities`` is a rate table (dense or lazy), not a
    sequence of per-trap propensity objects."""
    return hasattr(propensities, "capture_at")


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
        propensities, t_start: float, t_stop: float,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
        rate_bounds: np.ndarray | None = None,
) -> tuple[PopulationOccupancy, BatchUniformizationStats]:
    """Simulate a whole trap population over ``[t_start, t_stop]`` at once.

    One vectorised thinning sweep replaces the per-trap candidate loops
    of :func:`~repro.markov.uniformization.simulate_trap`: candidate
    counts are Poisson-drawn per trap, candidate times for *all* traps
    are generated in stacked arrays, both rates are gathered with a
    single interpolation pass, and the regenerative thinning rule (see
    the module docstring) resolves every candidate without sequential
    state tracking.  The law of each returned trajectory is exactly that
    of the scalar kernel.

    Parameters
    ----------
    propensities:
        A rate table (a :class:`BatchPropensity`, or any object with its
        kernel interface, see the module docstring), or a sequence of
        per-trap propensity objects (stacked via
        :meth:`BatchPropensity.from_propensities`; sequences that cannot
        be stacked run through :func:`simulate_traps_scalar`).
    t_start, t_stop:
        Simulation window [s]; ``t_stop`` must exceed ``t_start``.
    rng:
        NumPy random generator.  The batched kernel consumes draws in a
        different order than a scalar loop, so traces match the scalar
        kernel in distribution, not draw-for-draw.
    initial_states:
        Per-trap state at ``t_start`` (0/1), shape ``(K,)``; defaults to
        all-empty.
    rate_bounds:
        Optional per-trap override of the uniformisation rates.  Each
        must dominate that trap's propensity **sum** (a stricter
        requirement than the scalar kernel's max-rate bound); looser
        bounds change cost but not statistics.

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
    if not _is_rate_table(propensities):
        try:
            batch = BatchPropensity.from_propensities(propensities)
        except ModelError:
            return simulate_traps_scalar(propensities, t_start, t_stop, rng,
                                         initial_states, rate_bounds)
    else:
        batch = propensities

    n_traps = batch.n_traps
    init = _checked_states(initial_states, n_traps)

    sums = batch.rate_sums()
    if rate_bounds is None:
        bounds = sums.copy()
    else:
        bounds = np.asarray(rate_bounds, dtype=float)
        if bounds.shape != (n_traps,):
            raise SimulationError(
                f"rate_bounds must have shape ({n_traps},), got {bounds.shape}"
            )
        if np.any(bounds < sums * (1.0 - 1e-12)):
            worst = int(np.argmax(sums - bounds))
            raise SimulationError(
                f"rate bound {bounds[worst]:g} of trap {worst} does not "
                f"dominate its propensity sum {sums[worst]:g}"
            )
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
            f"cap {MAX_EXPECTED_CANDIDATES:g}; shorten the window, tighten "
            f"the bounds or shard the population"
        )

    kernel_started = clock.monotonic() if obs.enabled() else 0.0
    counts = rng.poisson(lam=bounds * window).astype(np.int64)
    total = int(counts.sum())
    padded = n_traps * (int(counts.max(initial=0)) + 1)
    if total == 0:
        # No candidates anywhere (likely for low-rate populations over
        # short windows) — every trap simply holds its initial state.
        flips_per_trap = np.zeros(n_traps, dtype=np.int64)
        flip_times = np.zeros(0, dtype=float)
    elif padded <= max(_PAD_MIN_BUDGET, _PAD_WASTE_FACTOR * (total + n_traps)):
        flips_per_trap, flip_times = _padded_sweep(
            batch, bounds, counts, init, t_start, window, rng)
    else:
        flips_per_trap, flip_times = _flat_sweep(
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


def _padded_sweep(batch, bounds: np.ndarray,
                  counts: np.ndarray, init: np.ndarray,
                  t_start: float, window: float,
                  rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise sweep on a ``(K, max_count)`` padded layout.

    Candidate times arrive *pre-sorted per trap* from normalised
    exponential spacings — conditioned on its count, a homogeneous
    Poisson process's event times are uniform order statistics — so no
    sort is ever performed.  Rates are read only at the valid
    candidates (``rows``, in row-major order); pad slots never are.
    """
    n_traps = counts.size
    maxn = int(counts.max(initial=0))
    col = np.arange(maxn + 1, dtype=np.int32)

    gaps = rng.standard_exponential((n_traps, maxn + 1))
    gaps *= col[None, :] <= counts[:, None]
    totals = gaps.sum(axis=1)
    t2d = t_start + window * (np.cumsum(gaps, axis=1)[:, :maxn]
                              / totals[:, None])
    valid = col[None, :maxn] < counts[:, None]
    rows = np.repeat(np.arange(n_traps), counts)

    idx, w = batch.grid_coordinates(t2d[valid])
    inv = 1.0 / bounds[rows]
    c_lo = batch.capture_at(rows, idx)
    c_hi = batch.capture_at(rows, idx + 1)
    p_fill = (1.0 - w) * (c_lo * inv) + w * (c_hi * inv)
    bias = _faults.kernel_bias()
    if bias:
        # Injected off-by-epsilon acceptance bug (verification drills).
        p_fill = np.clip(p_fill + bias, 0.0, 1.0)

    draws = rng.random((n_traps, maxn))
    sums, constant_sum = batch._sum_info()
    if constant_sum:
        # SAMURAI fast path: a bias-independent sum (paper Eq. 1) makes
        # the acceptance threshold constant per trap — no interpolation,
        # and the caller's bound validation already proved it <= 1.
        forced = valid & (draws < (sums / bounds)[:, None])
    else:
        p_forced = (1.0 - w) * ((c_lo + batch.emission_at(rows, idx)) * inv) \
            + w * ((c_hi + batch.emission_at(rows, idx + 1)) * inv)
        if bool(np.any(p_forced > 1.0 + 1e-9)):
            raise SimulationError(
                "a propensity sum exceeds its uniformisation bound inside "
                "the window; the bound is invalid"
            )
        forced = valid.copy()
        forced[valid] = draws[valid] < p_forced
    value = np.zeros_like(valid)
    value[valid] = draws[valid] < p_fill

    # Forward-fill: the state after a forced candidate IS its outcome,
    # so a transition happens exactly where the outcome differs from the
    # previous forced outcome (or from the initial state before the
    # first forced candidate of the trap).
    forced_col = np.where(forced, col[None, :maxn], np.int32(-1))
    prev_col = np.empty_like(forced_col)
    prev_col[:, 0] = -1
    np.maximum.accumulate(forced_col[:, :-1], axis=1, out=prev_col[:, 1:])
    prev_value = np.where(
        prev_col >= 0,
        np.take_along_axis(value, np.maximum(prev_col, 0), 1),
        (init > 0)[:, None],
    )
    flip = forced & (value != prev_value)
    # Row-major extraction keeps flips grouped by trap, chronological.
    return flip.sum(axis=1).astype(np.int64), t2d[flip]


def _flat_sweep(batch, bounds: np.ndarray,
                counts: np.ndarray, init: np.ndarray,
                t_start: float, t_stop: float, window: float,
                rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """Flat concatenated-candidate sweep (lexsort by trap, then time).

    Used when per-trap candidate counts are too skewed for the padded
    layout — e.g. a population whose rates span many decades.
    """
    n_traps = counts.size
    total = int(counts.sum())
    owner = np.repeat(np.arange(n_traps), counts)
    t_cand = t_start + window * rng.random(total)
    order = np.lexsort((t_cand, owner))
    owner = owner[order]
    t_cand = t_cand[order]

    idx, w = batch.grid_coordinates(t_cand)
    lam_c = (1.0 - w) * batch.capture_at(owner, idx) \
        + w * batch.capture_at(owner, idx + 1)
    bound_at = bounds[owner]
    sums, constant_sum = batch._sum_info()
    if constant_sum:
        # As in the padded sweep: the Eq.-(1) sum needs no interpolation.
        p_forced = (sums / bounds)[owner]
    else:
        lam_e = (1.0 - w) * batch.emission_at(owner, idx) \
            + w * batch.emission_at(owner, idx + 1)
        if np.any(lam_c + lam_e > bound_at * (1.0 + 1e-9)):
            raise SimulationError(
                "a propensity sum exceeds its uniformisation bound inside "
                "the window; the bound is invalid"
            )
        p_forced = (lam_c + lam_e) / bound_at

    draws = rng.random(total)
    forced = draws < p_forced
    # Candidates exactly on the window edge would violate the trace
    # invariant that transitions lie strictly inside (t_start, t_stop).
    forced &= (t_cand > t_start) & (t_cand < t_stop)
    owner_f = owner[forced]
    t_f = t_cand[forced]
    p_fill = (lam_c / bound_at)[forced]
    bias = _faults.kernel_bias()
    if bias:
        # Injected off-by-epsilon acceptance bug (verification drills).
        p_fill = np.clip(p_fill + bias, 0.0, 1.0)
    value_f = (draws[forced] < p_fill).astype(np.int8)

    if owner_f.size:
        seg_start = np.empty(owner_f.size, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = owner_f[1:] != owner_f[:-1]
        prev = np.empty_like(value_f)
        prev[1:] = value_f[:-1]
        prev = np.where(seg_start, init[owner_f], prev)
        flip = value_f != prev
    else:
        flip = np.zeros(0, dtype=bool)

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
        propensities, t_start: float, t_stop: float,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
        rate_bounds: np.ndarray | None = None,
) -> tuple[PopulationOccupancy, BatchUniformizationStats]:
    """Paper Algorithm 1 trap by trap over a whole population.

    The exact scalar kernel
    (:func:`~repro.markov.uniformization.simulate_trap_detailed`) runs
    once per trap, in population order, on one shared generator, so a
    population's traces are reproducible draw for draw from one seed.
    This is the per-cell Fig.-8 path and the degrade path of the
    batched kernel.

    Parameters
    ----------
    propensities:
        A rate table (trap ``k`` runs on its ``single(k)``, e.g.
        :meth:`BatchPropensity.single`) or a sequence of per-trap
        propensity objects.
    t_start, t_stop, rng, initial_states:
        As for :func:`simulate_traps_batch`.
    rate_bounds:
        Optional per-trap override of each propensity's
        ``rate_bound()`` (must dominate both rates).
    """
    check_window(t_start, t_stop)
    if _is_rate_table(propensities):
        props = [propensities.single(index)
                 for index in range(propensities.n_traps)]
    else:
        props = list(propensities)
    n_traps = len(props)
    states = _checked_states(initial_states, n_traps)
    if rate_bounds is None:
        rate_bounds = [None] * n_traps
    if len(rate_bounds) != n_traps:
        raise SimulationError(
            "rate_bounds must match the population size")
    traces = []
    candidates = np.zeros(n_traps, dtype=np.int64)
    bounds = np.zeros(n_traps, dtype=float)
    for index, prop in enumerate(props):
        bound = rate_bounds[index]
        trace, stats = simulate_trap_detailed(
            prop, t_start, t_stop, rng, initial_state=int(states[index]),
            rate_bound=None if bound is None else float(bound),
        )
        traces.append(trace)
        candidates[index] = stats.n_candidates
        bounds[index] = stats.rate_bound
    occupancy = PopulationOccupancy.from_traces(t_start, t_stop, traces)
    return occupancy, BatchUniformizationStats(
        n_candidates=candidates, n_accepted=occupancy.n_transitions,
        rate_bounds=bounds)
