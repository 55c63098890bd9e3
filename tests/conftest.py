"""Shared fixtures for the SAMURAI-reproduction test suite."""

from __future__ import annotations

import hashlib

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


@pytest.fixture
def waveform_digest():
    """``digest(waveform) -> str``: BLAKE2b over the sample times and
    every signal's bytes, by name, so a moved bit changes it."""
    def digest(waveform) -> str:
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(waveform.times.tobytes())
        for name in sorted(waveform.signals):
            hasher.update(name.encode())
            hasher.update(waveform[name].tobytes())
        return hasher.hexdigest()
    return digest


@pytest.fixture
def occupancy_digest():
    """``digest(occupancy, stats) -> str``: BLAKE2b over a population
    run's initial states, flip offsets, flip times and per-trap
    candidate counts, so a moved draw changes it."""
    def digest(occupancy, stats) -> str:
        hasher = hashlib.blake2b(digest_size=16)
        for array in (occupancy.initial_states, occupancy.offsets,
                      occupancy.flip_times, stats.n_candidates):
            hasher.update(np.ascontiguousarray(array).tobytes())
        return hasher.hexdigest()
    return digest

