"""Tests for the keyword-only propensity constructors."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import ModelError
from repro.markov.propensity import (
    CallableTwoStatePropensity,
    ConstantTwoStatePropensity,
    SampledTwoStatePropensity,
    make_propensity,
)

pytestmark = pytest.mark.tier1

TIMES = np.array([0.0, 0.5, 1.0])
RATES = np.array([1.0, 2.0, 4.0])


def _vec(value: float):
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


class TestKeywordPath:
    def test_keyword_construction_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ConstantTwoStatePropensity(lambda_c=1.0, lambda_e=2.0)
            CallableTwoStatePropensity(capture_fn=_vec(1.0),
                                       emission_fn=_vec(1.0), rate_bound=2.0)
            SampledTwoStatePropensity(times=TIMES, capture_values=RATES,
                                      emission_values=RATES,
                                      bound_safety=2.0)

    def test_unexpected_keyword_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ConstantTwoStatePropensity(lambda_c=1.0, lambda_e=2.0, bogus=3)

    @pytest.mark.parametrize("build", [
        lambda: ConstantTwoStatePropensity(3.0, 4.0),
        lambda: CallableTwoStatePropensity(_vec(1.0), _vec(2.0), 5.0),
        lambda: SampledTwoStatePropensity(TIMES, RATES, RATES, 2.0),
    ], ids=["constant", "callable", "sampled"])
    def test_positional_call_raises(self, build):
        with pytest.raises(TypeError, match="positional argument"):
            build()


class TestMakePropensity:
    def test_constant_dispatch(self):
        prop = make_propensity(lambda_c=1.0, lambda_e=2.0)
        assert isinstance(prop, ConstantTwoStatePropensity)
        assert prop.rate_bound() == 3.0

    def test_sampled_dispatch(self):
        prop = make_propensity(times=TIMES, capture_values=RATES,
                               emission_values=RATES)
        assert isinstance(prop, SampledTwoStatePropensity)
        assert prop.capture(0.25) == pytest.approx(1.5)

    def test_callable_dispatch(self):
        prop = make_propensity(capture_fn=_vec(1.0), emission_fn=_vec(2.0),
                               rate_bound=3.0)
        assert isinstance(prop, CallableTwoStatePropensity)

    def test_mixed_descriptions_rejected(self):
        with pytest.raises(ModelError, match="exactly one"):
            make_propensity(lambda_c=1.0, times=TIMES)
        with pytest.raises(ModelError):
            make_propensity()

    def test_incomplete_description_rejected(self):
        with pytest.raises(ModelError):
            make_propensity(lambda_c=1.0)
        with pytest.raises(ModelError):
            make_propensity(times=TIMES, capture_values=RATES)
        with pytest.raises(ModelError):
            make_propensity(capture_fn=_vec(1.0), emission_fn=_vec(1.0))
