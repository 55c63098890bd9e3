"""Tier-2 proof of the batched sweep: the screen's exact ``N_filled`` law.

With the constant Eq.-(1) sums every trap's filled probability follows
an exact grid recurrence, so the filled counts of the ensemble screen's
six kernel runs have a known mean and variance
(:func:`~repro.verify.oracles.check_population_occupancy`).  Two claims
make that a proof of the kernel:

1. **Calibrated.**  The oracle passes at twenty consecutive seeds on the
   batched kernel, and on the scalar per-trap kernel, which shares no
   sampling code with the batched sweep.
2. **Real power.**  The planted acceptance bias of the verification
   drills (+0.05 on the fill probability) trips it.
"""

from __future__ import annotations

import pytest

from repro.markov.batch import simulate_traps_scalar
from repro.testing.faults import inject_faults
from repro.verify import oracles
from repro.verify.harness import AlphaBudget
from repro.verify.oracles import (
    check_population_occupancy,
    sample_screen_populations,
)

pytestmark = pytest.mark.tier2

#: Twenty seeds share the family-wise budget.
ALPHA = AlphaBudget().split(20)


def _failures(seeds) -> list:
    checks = {seed: check_population_occupancy(
        sample_screen_populations(seed), ALPHA) for seed in seeds}
    return [(seed, check.detail) for seed, check in checks.items()
            if not check.passed]


class TestScreenOccupancyOracle:
    def test_batched_kernel_passes_twenty_seeds(self):
        assert not _failures(range(20))

    def test_scalar_kernel_passes(self, monkeypatch):
        monkeypatch.setattr(oracles, "simulate_traps_batch",
                            simulate_traps_scalar)
        assert not _failures(range(2))

    def test_acceptance_bias_trips_it(self):
        # Most screen traps draw no candidate, so the bias moves one
        # seed's pooled z by about 4; four seeds pooled move it by ~9.
        with inject_faults(acceptance_bias=0.05):
            populations = [run for seed in range(4)
                           for run in sample_screen_populations(seed)]
        check = check_population_occupancy(populations, ALPHA)
        assert not check.passed, check.detail
        assert min(check.extras["z"]) > 0.0  # the bias fills more traps
