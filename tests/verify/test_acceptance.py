"""Tier-2 acceptance drills for the statistical correctness harness.

Two claims make the harness worth having, and both are tested here:

1. **No flakes.**  A correct kernel passes the statistical suite for
   many consecutive seeds — the Bonferroni budget really does control
   the family-wise false-positive rate.
2. **Real power.**  An off-by-epsilon *physics* bug — the batched
   kernel's fill-acceptance probability shifted by 0.05, injected
   through the fault harness without touching the kernel source — is
   caught by the oracles even though every trajectory it produces still
   looks individually plausible.  Likewise a DRAM leakage factor off by
   5 % is caught by the exact retention law of the nominal cell.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.scenario import get_scenario, run_scenario
from repro.dram.cell import RetentionModel
from repro.testing.faults import inject_faults
from repro.verify.harness import AlphaBudget
from repro.verify.oracles import check_retention_law
from repro.verify.suite import run_suite

pytestmark = pytest.mark.tier2


class TestCleanKernelNeverFlakes:
    def test_twenty_consecutive_seeds_pass(self):
        failures = []
        for seed in range(20):
            report = run_suite(seed=seed, statistical=True)
            if not report.passed:
                failures.append((seed, [c.name for c in report.failures]))
        assert not failures, f"statistical flakes: {failures}"


class TestInjectedKernelBugIsCaught:
    def test_acceptance_bias_flagged_by_the_oracles(self):
        """The drill from the harness design: bias the batched kernel's
        acceptance probability by +0.05 and the law-level oracles must
        notice, on every seed tried."""
        for seed in (0, 1, 2):
            with inject_faults(acceptance_bias=0.05):
                report = run_suite(seed=seed, statistical=True)
            assert not report.passed, f"seed {seed}: bug went unnoticed"
            # The bug lives in the Markov kernel; a Markov oracle (not a
            # SPICE check) must be the one that fires.
            assert all(c.name.startswith("markov.")
                       for c in report.failures), seed

    def test_bias_shifts_occupancy_upward(self):
        """Direction check: extra acceptance fills more traps."""
        clean = run_suite(seed=5, statistical=True)
        with inject_faults(acceptance_bias=0.05):
            dirty = run_suite(seed=5, statistical=True)
        name = "markov.stationary_occupancy"
        assert dirty[name].extras["observed"] > \
            clean[name].extras["observed"]

    def test_injection_is_scoped(self):
        """Outside the context manager the kernel is exact again."""
        with inject_faults(acceptance_bias=0.05):
            pass
        report = run_suite(seed=0, statistical=True)
        assert report.passed


class TestPlantedRetentionBiasIsCaught:
    """The suite's retention oracle at the suite's sizing and per-check
    alpha: trials of a cell whose leakage factor is 5 % off must fail the
    nominal cell's law, while the nominal cell's own trials pass it."""

    N_TRIALS = 2000
    ALPHA = AlphaBudget().split(7)

    def _check(self, leakage_bias: float, seed: int):
        scan = get_scenario("dram.retention").default_config(self.N_TRIALS)
        nominal = RetentionModel.build(scan.spec, scan.trap)
        planted = dataclasses.replace(scan, spec=dataclasses.replace(
            scan.spec, leakage_factor=leakage_bias
            * scan.spec.leakage_factor))
        times = run_scenario("dram.retention", planted, seed=seed,
                             workers=1).value
        return check_retention_law(times, nominal, scan.t_max, self.ALPHA)

    @pytest.mark.parametrize("leakage_bias", [1.05, 0.95])
    def test_leakage_factor_off_by_five_percent(self, leakage_bias):
        for seed in (0, 1, 2):
            result = self._check(leakage_bias, seed)
            assert not result.passed, f"seed {seed}: bias went unnoticed"

    def test_nominal_cell_passes(self):
        assert self._check(1.0, 0).passed
