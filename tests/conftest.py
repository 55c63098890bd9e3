"""Shared fixtures for the SAMURAI-reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministically seeded generator, fresh per test."""
    return np.random.default_rng(20110314)  # DATE 2011 dates


@pytest.fixture
def rng_factory():
    """Factory for independently seeded generators inside one test."""
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)
    return make
