"""Tests for :class:`PopulationOccupancy` and the grouped ``number_filled``.

The kernels return a population's flips as flat arrays, and the count
of filled traps reads them directly.  The reference here is the
list-based count that came before: every trace's flips pooled, sorted
and accumulated, one call per device.  The flat count and the
materialised traces must equal it (and the validated per-trap
constructor) exactly, for both kernels and any spread of trap rates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, ModelError
from repro.markov import batch as batch_module
from repro.markov.batch import (
    BatchPropensity,
    simulate_traps_batch,
    simulate_traps_scalar,
)
from repro.markov.occupancy import (
    OccupancyTrace,
    PopulationOccupancy,
    number_filled,
)

pytestmark = pytest.mark.tier1

GRID = np.linspace(0.0, 1e-3, 81)


def reference_number_filled(traces, grid) -> np.ndarray:
    """The list-based count: pool every trace's flips, one stable sort."""
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
    counts = np.cumsum(np.concatenate(([initial],
                                       1 - 2 * left.astype(np.int64))))
    return counts[np.searchsorted(flips[order], grid, side="right")] \
        .astype(float)


def _groups(rng, n_traps: int) -> np.ndarray:
    """Random device offsets with empty devices at start, middle and end."""
    cuts = rng.integers(0, n_traps + 1, size=6)
    return np.sort(np.concatenate(([0, 0], cuts, cuts[:1],
                                   [n_traps, n_traps])))


def _rate_table(rng, n_traps: int, decades: float) -> BatchPropensity:
    """Non-stationary rates; per-trap scales spread over ``decades``."""
    scale = 10.0 ** rng.uniform(4.0, 4.0 + decades, size=(n_traps, 1))
    shape = rng.uniform(0.1, 1.0, size=(2, n_traps, GRID.size))
    return BatchPropensity(times=GRID, capture=scale * shape[0],
                           emission=scale * shape[1])


def assert_matches_reference(occupancy, stats, groups, grid=GRID) -> None:
    """The flat count, the materialised traces and ``n_accepted`` all
    equal the list-based reference."""
    assert isinstance(occupancy, PopulationOccupancy)
    traces = list(occupancy)
    assert len(traces) == len(occupancy)
    for trace, state, flips in zip(
            traces, occupancy.initial_states,
            np.split(occupancy.flip_times, occupancy.offsets[1:-1])):
        # The validated per-trap constructor builds the same arrays.
        built = OccupancyTrace.from_transitions(
            occupancy.t_start, occupancy.t_stop, int(state), flips)
        assert np.array_equal(trace.times, built.times)
        assert np.array_equal(trace.states, built.states)
        assert trace.states.dtype == built.states.dtype
    assert np.array_equal(stats.n_accepted,
                          [trace.n_transitions for trace in traces])
    assert np.array_equal(number_filled(occupancy, grid),
                          reference_number_filled(traces, grid))
    table = number_filled(occupancy, grid, groups)
    assert table.shape == (len(groups) - 1,) + np.shape(grid)
    for device, (lo, hi) in enumerate(zip(groups[:-1], groups[1:])):
        assert np.array_equal(table[device],
                              reference_number_filled(traces[lo:hi], grid))


class TestFlatCountIsTheListCount:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_padded_sweep(self, seed):
        # Comparable rates: most traps draw a few candidates, the shape
        # a padded (K, max+1) block would fit.
        rng = np.random.default_rng(seed)
        occupancy, stats = simulate_traps_batch(
            _rate_table(rng, 120, 1.0), 0.0, 1e-3, rng,
            initial_states=rng.integers(0, 2, 120))
        assert stats.total_accepted > 500
        assert_matches_reference(occupancy, stats, _groups(rng, 120))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_sweep(self, seed):
        # Rates over four decades: the fastest traps draw ~10^5
        # candidates, the mean trap ~10^4.
        rng = np.random.default_rng(seed)
        table = _rate_table(rng, 60, 4.0)
        occupancy, stats = simulate_traps_batch(
            table, 0.0, 1e-3, rng, initial_states=rng.integers(0, 2, 60))
        assert_matches_reference(occupancy, stats, _groups(rng, 60))

    @pytest.mark.parametrize("seed", [0, 4])
    def test_scalar_kernel(self, seed):
        rng = np.random.default_rng(seed)
        occupancy, stats = simulate_traps_scalar(
            _rate_table(rng, 20, 1.0), 0.0, 1e-3, rng,
            initial_states=rng.integers(0, 2, 20))
        assert stats.total_accepted > 50
        assert_matches_reference(occupancy, stats, _groups(rng, 20))

    def test_flips_on_grid_points(self, rng):
        occupancy, stats = simulate_traps_batch(
            _rate_table(rng, 40, 0.5), 0.0, 1e-3, rng,
            initial_states=rng.integers(0, 2, 40))
        on_flips = rng.choice(occupancy.flip_times, size=30, replace=False)
        grid = np.union1d(GRID, on_flips)
        assert_matches_reference(occupancy, stats, _groups(rng, 40), grid)
        # Right-open: a grid point on a flip already sees the new state.
        trace = next(t for t in occupancy if t.n_transitions)
        flip = trace.times[1]
        assert number_filled([trace], [flip])[0] == trace.states[1]

    def test_unsorted_and_two_dimensional_grids(self, rng):
        occupancy, stats = simulate_traps_batch(
            _rate_table(rng, 30, 0.5), 0.0, 1e-3, rng)
        groups = _groups(rng, 30)
        shuffled = rng.permutation(GRID)
        assert_matches_reference(occupancy, stats, groups, shuffled)
        assert_matches_reference(occupancy, stats, groups,
                                 GRID[1:].reshape(8, 10))

    def test_empty_population(self):
        empty = PopulationOccupancy(0.0, 1e-3, np.zeros(0, dtype=np.int8),
                                    [0], [])
        assert len(empty) == 0 and list(empty) == [] and empty == []
        assert np.array_equal(number_filled(empty, GRID), np.zeros(81))
        assert np.array_equal(number_filled(empty, GRID, [0, 0, 0]),
                              np.zeros((2, 81)))
        occupancy, stats = simulate_traps_batch(
            BatchPropensity(times=GRID, capture=np.zeros((0, 81)),
                            emission=np.zeros((0, 81))),
            0.0, 1e-3, np.random.default_rng(0))
        assert occupancy == empty and stats.total_candidates == 0

    def test_population_without_flips(self, rng):
        # Rates so low that no trap draws a candidate.
        table = BatchPropensity(times=GRID, capture=np.full((12, 81), 1e-3),
                                emission=np.full((12, 81), 1e-3))
        init = np.array([0, 1] * 6)
        occupancy, stats = simulate_traps_batch(table, 0.0, 1e-3, rng,
                                                initial_states=init)
        assert occupancy.flip_times.size == 0
        assert_matches_reference(occupancy, stats, _groups(rng, 12))
        assert np.array_equal(number_filled(occupancy, GRID, [0, 5, 12]),
                              np.repeat([[2.0], [4.0]], 81, axis=1))

    def test_planted_tie_is_cancelled(self, rng, monkeypatch):
        # An exact tie between two flips of one trap is a double flip
        # at one instant: both cancel, and only that trap is rebuilt.
        original = batch_module._sweep
        planted = {}

        def tied(*args):
            flips_per_trap, flip_times = original(*args)
            trap = int(np.flatnonzero(flips_per_trap >= 3)[0])
            first = int(flips_per_trap[:trap].sum())
            flip_times = flip_times.copy()
            flip_times[first + 1] = flip_times[first]
            planted.update(trap=trap, counts=flips_per_trap.copy(),
                           kept=np.delete(flip_times, [first, first + 1]))
            return flips_per_trap, flip_times

        monkeypatch.setattr(batch_module, "_sweep", tied)
        occupancy, stats = simulate_traps_batch(
            _rate_table(rng, 50, 0.5), 0.0, 1e-3, rng,
            initial_states=rng.integers(0, 2, 50))
        expected = planted["counts"].copy()
        expected[planted["trap"]] -= 2
        assert np.array_equal(stats.n_accepted, expected)
        assert np.array_equal(occupancy.flip_times, planted["kept"])
        for trace in occupancy:
            OccupancyTrace(times=trace.times.copy(),
                           states=trace.states.copy())
        assert_matches_reference(occupancy, stats, _groups(rng, 50))


class TestPopulationOccupancy:
    @pytest.fixture
    def occupancy(self):
        return PopulationOccupancy(
            0.0, 4.0, np.array([1, 0, 1], dtype=np.int8), [0, 2, 2, 3],
            [1.0, 3.0, 2.5])

    def test_sequence_protocol(self, occupancy):
        assert len(occupancy) == 3
        assert occupancy[0].times.tolist() == [0.0, 1.0, 3.0, 4.0]
        assert occupancy[0].states.tolist() == [1, 0, 1]
        assert occupancy[1].times.tolist() == [0.0, 4.0]
        assert occupancy[-1].states.tolist() == [1, 0]
        assert occupancy.n_transitions.tolist() == [2, 0, 1]
        with pytest.raises(IndexError):
            occupancy[3]
        assert [t.initial_state for t in occupancy] == [1, 0, 1]

    def test_slices_are_sub_populations(self, occupancy):
        tail = occupancy[1:]
        assert isinstance(tail, PopulationOccupancy)
        assert tail == list(occupancy)[1:]
        assert occupancy[::-2] == [occupancy[2], occupancy[0]]
        assert occupancy[:0] == []

    def test_buffers_are_read_only(self, occupancy):
        for array in (occupancy.flip_times, occupancy.offsets,
                      occupancy.initial_states, occupancy[0].times,
                      occupancy[0].states):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_from_traces_round_trip(self, occupancy):
        assert PopulationOccupancy.from_traces(0.0, 4.0, occupancy) \
            == occupancy
        with pytest.raises(ModelError):
            PopulationOccupancy.from_traces(0.0, 5.0, occupancy)

    @pytest.mark.parametrize("arrays", [
        ([2], [0, 0], []),                 # state out of range
        ([0], [0, 2], [1.0]),              # offsets past the flips
        ([0, 0], [0, 2, 1], [1.0]),        # falling offsets
        ([0], [0, 1], [0.0]),              # flip on the window edge
        ([0], [0, 2], [2.0, 1.0]),         # flips out of order
        ([0], [0, 2], [2.0, 2.0]),         # tied flips
    ])
    def test_validation(self, arrays):
        with pytest.raises(ModelError):
            PopulationOccupancy(0.0, 4.0, *arrays)

    def test_flips_of_adjacent_traps_may_tie(self):
        pair = PopulationOccupancy(0.0, 4.0, [0, 0], [0, 1, 2], [2.0, 2.0])
        assert number_filled(pair, [1.0, 2.0]).tolist() == [0.0, 2.0]

    def test_grid_outside_the_window_raises(self, occupancy):
        for grid in ([-0.1, 1.0], [1.0, 4.1], [np.nan]):
            with pytest.raises(AnalysisError):
                number_filled(occupancy, grid)
            with pytest.raises(AnalysisError):
                number_filled(occupancy, grid, [0, 1, 3])

    @pytest.mark.parametrize("groups", [[1, 3], [0, 2], [0, 2, 1, 3], []])
    def test_bad_groups_raise(self, occupancy, groups):
        with pytest.raises(AnalysisError):
            number_filled(occupancy, [1.0], groups)
