"""Tests for the propensity abstractions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.markov.propensity import (
    CallableTwoStatePropensity,
    ConstantTwoStatePropensity,
    SampledTwoStatePropensity,
    TwoStatePropensity,
)

pytestmark = pytest.mark.tier1


class TestConstantPropensity:
    def test_values_and_bound(self):
        prop = ConstantTwoStatePropensity(lambda_c=3.0, lambda_e=7.0)
        assert prop.capture(0.0) == 3.0
        assert prop.emission(123.4) == 7.0
        assert prop.rate_bound() == 10.0

    def test_vectorised_evaluation(self):
        prop = ConstantTwoStatePropensity(lambda_c=3.0, lambda_e=7.0)
        t = np.linspace(0, 1, 5)
        assert np.all(prop.capture(t) == 3.0)
        assert np.all(prop.emission(t) == 7.0)

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            ConstantTwoStatePropensity(lambda_c=-1.0, lambda_e=2.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ModelError):
            ConstantTwoStatePropensity(lambda_c=0.0, lambda_e=0.0)

    def test_satisfies_protocol(self):
        assert isinstance(ConstantTwoStatePropensity(lambda_c=1.0, lambda_e=1.0), TwoStatePropensity)

    def test_repr_mentions_rates(self):
        text = repr(ConstantTwoStatePropensity(lambda_c=1.5, lambda_e=2.5))
        assert "1.5" in text and "2.5" in text


class TestCallablePropensity:
    def test_passthrough(self):
        prop = CallableTwoStatePropensity(
            capture_fn=lambda t: 1.0 + t, emission_fn=lambda t: 2.0 - t,
            rate_bound=3.0)
        assert prop.capture(1.0) == 2.0
        assert prop.emission(0.5) == 1.5
        assert prop.rate_bound() == 3.0

    def test_rejects_bad_bound(self):
        with pytest.raises(ModelError):
            CallableTwoStatePropensity(capture_fn=lambda t: 1.0,
                                       emission_fn=lambda t: 1.0,
                                       rate_bound=0.0)
        with pytest.raises(ModelError):
            CallableTwoStatePropensity(capture_fn=lambda t: 1.0, emission_fn=lambda t: 1.0,
                                       rate_bound=float("inf"))

    def test_satisfies_protocol(self):
        prop = CallableTwoStatePropensity(capture_fn=lambda t: 1.0,
                                          emission_fn=lambda t: 1.0,
                                          rate_bound=2.0)
        assert isinstance(prop, TwoStatePropensity)


class TestSampledPropensity:
    def make(self) -> SampledTwoStatePropensity:
        times = np.array([0.0, 1.0, 2.0])
        return SampledTwoStatePropensity(
            times=times, capture_values=np.array([1.0, 3.0, 1.0]),
            emission_values=np.array([4.0, 2.0, 4.0]))

    def test_interpolation(self):
        prop = self.make()
        assert prop.capture(0.5) == pytest.approx(2.0)
        assert prop.emission(1.5) == pytest.approx(3.0)

    def test_clamped_extrapolation(self):
        prop = self.make()
        assert prop.capture(-5.0) == 1.0
        assert prop.capture(10.0) == 1.0
        assert prop.emission(10.0) == 4.0

    def test_bound_is_sample_peak(self):
        assert self.make().rate_bound() == 4.0

    def test_bound_safety_scales(self):
        times = np.array([0.0, 1.0])
        prop = SampledTwoStatePropensity(
            times=times, capture_values=np.array([1.0, 2.0]),
            emission_values=np.array([1.0, 1.0]), bound_safety=3.0)
        assert prop.rate_bound() == 6.0

    def test_window_properties(self):
        prop = self.make()
        assert prop.t_start == 0.0
        assert prop.t_stop == 2.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ModelError):
            SampledTwoStatePropensity(
                times=np.array([0.0, 1.0]), capture_values=np.array([1.0]),
                emission_values=np.array([1.0, 1.0]))

    def test_rejects_non_monotone_times(self):
        with pytest.raises(ModelError):
            SampledTwoStatePropensity(
                times=np.array([0.0, 0.0]), capture_values=np.array([1.0, 1.0]),
                emission_values=np.array([1.0, 1.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ModelError):
                SampledTwoStatePropensity(
                    times=np.array([0.0, bad]),
                    capture_values=np.array([1.0, 1.0]),
                    emission_values=np.array([1.0, 1.0]))

    def test_rejects_negative_samples(self):
        with pytest.raises(ModelError):
            SampledTwoStatePropensity(
                times=np.array([0.0, 1.0]), capture_values=np.array([-1.0, 1.0]),
                emission_values=np.array([1.0, 1.0]))
        # NaN compares False against 0, so it needs its own check (a NaN
        # sample used to give rate_bound() == nan).
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ModelError, match="finite"):
                SampledTwoStatePropensity(
                    times=np.array([0.0, 1.0]),
                    capture_values=np.array([bad, 1.0]),
                    emission_values=np.array([1.0, 1.0]))
            with pytest.raises(ModelError, match="finite"):
                SampledTwoStatePropensity(
                    times=np.array([0.0, 1.0]),
                    capture_values=np.array([1.0, 1.0]),
                    emission_values=np.array([1.0, bad]))

    def test_rejects_all_zero_samples(self):
        with pytest.raises(ModelError):
            SampledTwoStatePropensity(
                times=np.array([0.0, 1.0]), capture_values=np.zeros(2),
                emission_values=np.zeros(2))

    def test_rejects_bound_safety_below_one(self):
        with pytest.raises(ModelError):
            SampledTwoStatePropensity(
                times=np.array([0.0, 1.0]), capture_values=np.ones(2),
                emission_values=np.ones(2), bound_safety=0.5)


@settings(max_examples=50, deadline=None)
@given(
    captures=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2,
                      max_size=20),
    emissions=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2,
                       max_size=20),
)
def test_property_sampled_bound_dominates_interpolant(captures, emissions):
    """Linear interpolation never exceeds the declared rate bound."""
    n = min(len(captures), len(emissions))
    captures = np.asarray(captures[:n])
    emissions = np.asarray(emissions[:n])
    if captures.max() == 0.0 and emissions.max() == 0.0:
        captures = captures + 1.0
    times = np.arange(n, dtype=float)
    prop = SampledTwoStatePropensity(times=times, capture_values=captures, emission_values=emissions)
    bound = prop.rate_bound()
    grid = np.linspace(0.0, n - 1.0, 257)
    assert np.all(prop.capture(grid) <= bound + 1e-9)
    assert np.all(prop.emission(grid) <= bound + 1e-9)
