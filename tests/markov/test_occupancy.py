"""Unit and property tests for OccupancyTrace."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, ModelError
from repro.markov.occupancy import OccupancyTrace, number_filled

pytestmark = pytest.mark.tier1


def make_trace() -> OccupancyTrace:
    return OccupancyTrace(
        times=np.array([0.0, 1.0, 3.0, 4.0]),
        states=np.array([0, 1, 0]),
    )


class TestConstruction:
    def test_valid_trace_roundtrips(self):
        trace = make_trace()
        assert trace.t_start == 0.0
        assert trace.t_stop == 4.0
        assert trace.n_transitions == 2
        assert trace.initial_state == 0
        assert trace.final_state == 0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ModelError):
            OccupancyTrace(times=np.array([0.0, 1.0]), states=np.array([0, 1]))

    def test_rejects_empty_segments(self):
        with pytest.raises(ModelError):
            OccupancyTrace(times=np.array([0.0]), states=np.array([]))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ModelError):
            OccupancyTrace(times=np.array([0.0, 2.0, 2.0]), states=np.array([0, 1]))

    def test_rejects_bad_states(self):
        with pytest.raises(ModelError):
            OccupancyTrace(times=np.array([0.0, 1.0]), states=np.array([2]))

    def test_rejects_repeated_states(self):
        with pytest.raises(ModelError):
            OccupancyTrace(times=np.array([0.0, 1.0, 2.0]), states=np.array([1, 1]))

    def test_constant_factory(self):
        trace = OccupancyTrace.constant(0.0, 5.0, 1)
        assert trace.n_transitions == 0
        assert trace.fraction_filled() == 1.0

    def test_from_transitions(self):
        trace = OccupancyTrace.from_transitions(0.0, 10.0, 1, np.array([2.0, 7.0]))
        assert trace.initial_state == 1
        assert list(trace.states) == [1, 0, 1]

    def test_from_transitions_rejects_flip_on_boundary(self):
        with pytest.raises(ModelError):
            OccupancyTrace.from_transitions(0.0, 10.0, 0, np.array([0.0]))
        with pytest.raises(ModelError):
            OccupancyTrace.from_transitions(0.0, 10.0, 0, np.array([10.0]))


class TestStateQueries:
    def test_state_at_scalar(self):
        trace = make_trace()
        assert trace.state_at(0.5) == 0
        assert trace.state_at(2.0) == 1
        assert trace.state_at(3.5) == 0

    def test_state_at_right_open_convention(self):
        trace = make_trace()
        assert trace.state_at(1.0) == 1  # new state starts at the flip
        assert trace.state_at(3.0) == 0

    def test_state_at_endpoints(self):
        trace = make_trace()
        assert trace.state_at(0.0) == 0
        assert trace.state_at(4.0) == 0  # t_stop returns final state

    def test_state_at_vectorised(self):
        trace = make_trace()
        values = trace.state_at(np.array([0.5, 2.0, 3.5]))
        assert list(values) == [0, 1, 0]

    def test_state_at_out_of_window_raises(self):
        trace = make_trace()
        with pytest.raises(AnalysisError):
            trace.state_at(-0.1)
        with pytest.raises(AnalysisError):
            trace.state_at(4.1)

    def test_sample_matches_state_at(self):
        trace = make_trace()
        grid = np.linspace(0.0, 4.0, 41)
        assert np.array_equal(trace.sample(grid), trace.state_at(grid))


class TestStatistics:
    def test_fraction_filled(self):
        trace = make_trace()
        assert trace.fraction_filled() == pytest.approx(2.0 / 4.0)

    def test_dwell_times_excludes_censored(self):
        trace = make_trace()
        # Only the middle segment (state 1, duration 2) is uncensored.
        assert trace.dwell_times(1).tolist() == [2.0]
        assert trace.dwell_times(0).tolist() == []

    def test_dwell_times_include_censored(self):
        trace = make_trace()
        assert sorted(trace.dwell_times(0, include_censored=True).tolist()) == \
            [1.0, 1.0]

    def test_dwell_times_bad_state(self):
        with pytest.raises(AnalysisError):
            make_trace().dwell_times(2)

    def test_transition_times(self):
        assert make_trace().transition_times().tolist() == [1.0, 3.0]


class TestConversions:
    def test_step_arrays_staircase(self):
        trace = make_trace()
        t, s = trace.to_step_arrays()
        assert t.tolist() == [0.0, 1.0, 1.0, 3.0, 3.0, 4.0]
        assert s.tolist() == [0, 0, 1, 1, 0, 0]

    def test_restricted_interior(self):
        trace = make_trace()
        sub = trace.restricted(0.5, 3.5)
        assert sub.t_start == 0.5
        assert sub.t_stop == 3.5
        assert list(sub.states) == [0, 1, 0]
        assert sub.state_at(2.0) == 1

    def test_restricted_single_segment(self):
        trace = make_trace()
        sub = trace.restricted(1.2, 2.8)
        assert sub.n_transitions == 0
        assert sub.initial_state == 1

    def test_restricted_bad_window(self):
        with pytest.raises(AnalysisError):
            make_trace().restricted(-1.0, 2.0)
        with pytest.raises(AnalysisError):
            make_trace().restricted(3.0, 3.0)


class TestNumberFilled:
    def test_counts_filled_traces(self):
        a = OccupancyTrace.constant(0.0, 4.0, 1)
        b = make_trace()
        grid = np.array([0.5, 2.0, 3.5])
        assert number_filled([a, b], grid).tolist() == [1.0, 2.0, 1.0]

    def test_empty_list_is_zero(self):
        grid = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(number_filled([], grid), np.zeros(5))


def per_trace_sum(traces, grid) -> np.ndarray:
    """The per-trace definition of N_filled(t): sum every trace's samples."""
    grid = np.asarray(grid, dtype=float)
    total = np.zeros(grid.shape, dtype=float)
    for trace in traces:
        total += trace.sample(grid)
    return total


class TestNumberFilledMatchesPerTraceSum:
    """The flip-event pass equals the per-trace sum bit for bit."""

    @staticmethod
    def assert_matches(traces, grid):
        counted = number_filled(traces, grid)
        expected = per_trace_sum(traces, grid)
        assert counted.dtype == expected.dtype
        assert counted.shape == np.shape(grid)
        assert np.array_equal(counted, expected)

    def test_batched_kernel_traces(self, rng):
        from repro.markov.batch import BatchPropensity, simulate_traps_batch

        times = np.linspace(0.0, 1e-3, 50)
        capture = rng.uniform(1e3, 2e4, size=(40, times.size))
        emission = rng.uniform(1e3, 2e4, size=(40, times.size))
        traces, _ = simulate_traps_batch(
            BatchPropensity(times=times, capture=capture, emission=emission),
            0.0, 1e-3, rng, initial_states=rng.integers(0, 2, 40))
        assert sum(t.n_transitions for t in traces) > 100
        self.assert_matches(traces, times)
        self.assert_matches(traces, np.linspace(0.0, 1e-3, 2001))

    def test_scalar_kernel_traces(self, rng):
        from repro.markov.propensity import ConstantTwoStatePropensity
        from repro.markov.uniformization import simulate_trap

        prop = ConstantTwoStatePropensity(lambda_c=300.0, lambda_e=500.0)
        traces = [simulate_trap(prop, 0.0, 0.05, rng, initial_state=k % 2)
                  for k in range(12)]
        self.assert_matches(traces, np.linspace(0.0, 0.05, 777))

    def test_grid_on_flips_and_window_ends(self):
        a = make_trace()                                    # flips 1, 3
        b = OccupancyTrace.from_transitions(0.0, 4.0, 1, np.array([1.0, 2.5]))
        c = OccupancyTrace.from_transitions(0.0, 4.0, 0, np.array([3.0]))
        traces = [a, b, c]
        grid = np.array([0.0, 1.0, 2.5, 3.0, 4.0])
        self.assert_matches(traces, grid)
        # Right-open at the flips, final states at t_stop.
        assert number_filled(traces, grid).tolist() == [1.0, 1.0, 2.0, 2.0, 2.0]

    def test_traces_without_flips(self):
        traces = [OccupancyTrace.constant(0.0, 2.0, state)
                  for state in (1, 0, 1)]
        self.assert_matches(traces, np.linspace(0.0, 2.0, 9))
        self.assert_matches(traces + [make_trace().restricted(0.0, 2.0)],
                            np.linspace(0.0, 2.0, 9))

    def test_empty_list_and_empty_grid(self):
        self.assert_matches([], np.linspace(0.0, 1.0, 5))
        self.assert_matches([make_trace()], np.array([]))

    def test_two_dimensional_grid(self):
        traces = [make_trace(), OccupancyTrace.constant(0.0, 4.0, 1)]
        grid = np.linspace(0.0, 4.0, 12).reshape(3, 4)
        self.assert_matches(traces, grid)
        self.assert_matches([], grid)

    def test_unequal_windows_share_the_overlap(self):
        late = OccupancyTrace.from_transitions(1.5, 6.0, 1, np.array([2.0, 5.0]))
        traces = [make_trace(), late]
        self.assert_matches(traces, np.linspace(1.5, 4.0, 11))

    @pytest.mark.parametrize("t", [-0.1, 4.1, 1.4])
    def test_grid_outside_one_window_raises(self, t):
        late = OccupancyTrace.from_transitions(1.5, 6.0, 1, np.array([2.0]))
        grid = np.array([2.0, t])
        with pytest.raises(AnalysisError):
            per_trace_sum([make_trace(), late], grid)
        with pytest.raises(AnalysisError):
            number_filled([make_trace(), late], grid)


@settings(max_examples=50, deadline=None)
@given(
    flips=st.lists(
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        max_size=30, unique=True,
    ),
    initial=st.integers(min_value=0, max_value=1),
)
def test_property_from_transitions_consistency(flips, initial):
    """Sampling immediately after each flip reflects the parity of flips."""
    flips = np.array(sorted(flips))
    trace = OccupancyTrace.from_transitions(0.0, 1.0, initial, flips)
    assert trace.initial_state == initial
    assert trace.n_transitions == len(flips)
    # The state after k flips has parity initial + k.
    for k, t in enumerate(flips):
        assert trace.state_at(t) == (initial + k + 1) % 2
    # Time-average consistency: fraction_filled equals integral of samples.
    grid = np.linspace(0.0, 1.0, 20001)
    approx = trace.sample(grid)[:-1].mean()
    assert abs(approx - trace.fraction_filled()) < 5e-3


@settings(max_examples=30, deadline=None)
@given(
    flips=st.lists(
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        max_size=20, unique=True,
    ),
)
@example(flips=[0.25])
@example(flips=[0.75])
def test_property_restriction_preserves_states(flips):
    """A restriction agrees with the parent trace everywhere inside it.

    On ``[0.25, 0.75)`` the two share the right-open convention.  At
    its own ``t_stop`` a trace reports its last segment's state, so
    there the restriction holds the parent's state just before 0.75,
    even when the parent flips at exactly 0.75.
    """
    trace = OccupancyTrace.from_transitions(0.0, 1.0, 0, np.array(sorted(flips)))
    sub = trace.restricted(0.25, 0.75)
    grid = np.linspace(0.25, 0.75, 101)
    assert np.array_equal(sub.sample(grid[:-1]), trace.sample(grid[:-1]))
    before_stop = np.searchsorted(trace.times, 0.75, side="left") - 1
    assert sub.state_at(0.75) == trace.states[before_stop]
