"""Deprecation behaviour of the public constructors.

The positional-argument shims are gone; the supported keyword form must
construct without emitting any deprecation warning.
"""

from __future__ import annotations

import warnings

import pytest

pytestmark = pytest.mark.tier1


class TestShimsWarnOncePerSite:
    def test_keyword_calls_stay_silent(self):
        from repro.markov.propensity import ConstantTwoStatePropensity

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ConstantTwoStatePropensity(lambda_c=1.0, lambda_e=2.0)
