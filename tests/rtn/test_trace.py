"""Tests for the RTNTrace container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, ModelError
from repro.rtn.trace import RTNTrace

pytestmark = pytest.mark.tier1


def make_trace() -> RTNTrace:
    return RTNTrace(times=np.array([0.0, 1.0, 2.0, 3.0]),
                    current=np.array([0.0, 2.0, 2.0, 0.0]), label="m1")


class TestConstruction:
    def test_valid(self):
        trace = make_trace()
        assert trace.t_start == 0.0
        assert trace.t_stop == 3.0
        assert trace.dt_mean == pytest.approx(1.0)
        assert trace.label == "m1"

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ModelError):
            RTNTrace(times=np.array([0.0, 1.0]), current=np.array([1.0]))

    def test_rejects_short(self):
        with pytest.raises(ModelError):
            RTNTrace(times=np.array([0.0]), current=np.array([1.0]))

    def test_rejects_non_increasing(self):
        with pytest.raises(ModelError):
            RTNTrace(times=np.array([0.0, 0.0]), current=np.zeros(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ModelError):
            RTNTrace(times=np.array([0.0, 1.0]),
                     current=np.array([0.0, np.inf]))

    def test_zeros_factory(self):
        trace = RTNTrace.zeros(np.linspace(0, 1, 5), label="empty")
        assert trace.peak() == 0.0
        assert trace.label == "empty"


class TestInterpolation:
    def test_value_at_nodes(self):
        trace = make_trace()
        assert trace.value_at(1.0) == 2.0

    def test_value_between_nodes(self):
        assert make_trace().value_at(0.5) == pytest.approx(1.0)

    def test_constant_extrapolation(self):
        trace = make_trace()
        assert trace.value_at(-1.0) == 0.0
        assert trace.value_at(10.0) == 0.0


class TestAlgebra:
    def test_scaled(self):
        scaled = make_trace().scaled(30.0)
        assert scaled.peak() == 60.0
        assert scaled.label == "m1"

    def test_superpose(self):
        total = make_trace() + make_trace()
        assert total.value_at(1.5) == pytest.approx(4.0)

    def test_superpose_different_grids(self):
        other = RTNTrace(times=np.array([0.0, 3.0]),
                         current=np.array([1.0, 1.0]))
        total = make_trace().superpose(other)
        assert total.value_at(0.0) == pytest.approx(1.0)
        assert total.value_at(1.0) == pytest.approx(3.0)

    def test_superpose_type_check(self):
        with pytest.raises(AnalysisError):
            make_trace().superpose("not a trace")


class TestStatistics:
    def test_mean(self):
        # Trapezoid of [0,2,2,0] over 3 s -> (1 + 2 + 1) / 3.
        assert make_trace().mean() == pytest.approx(4.0 / 3.0)

    def test_variance_of_constant_is_zero(self):
        trace = RTNTrace(times=np.array([0.0, 1.0, 2.0]),
                         current=np.full(3, 5.0))
        assert trace.variance() == pytest.approx(0.0, abs=1e-15)

    def test_peak_uses_magnitude(self):
        trace = RTNTrace(times=np.array([0.0, 1.0]),
                         current=np.array([-3.0, 1.0]))
        assert trace.peak() == 3.0


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-1e-3, max_value=1e-3,
                              allow_nan=False), min_size=2, max_size=50),
    factor=st.floats(min_value=0.1, max_value=100.0),
)
def test_property_scaling_linearity(values, factor):
    """scaled(k).mean() == k * mean() and variance scales with k^2."""
    times = np.arange(len(values), dtype=float)
    trace = RTNTrace(times=times, current=np.array(values))
    scaled = trace.scaled(factor)
    assert scaled.mean() == pytest.approx(factor * trace.mean(), abs=1e-12)
    assert scaled.variance() == pytest.approx(
        factor ** 2 * trace.variance(), rel=1e-6, abs=1e-18)
