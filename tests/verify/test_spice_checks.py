"""Tests for the deterministic SPICE-level verification checks."""

from __future__ import annotations

import pytest

from repro.devices.technology import TECH_45NM, TECH_90NM
from repro.sram.cell import SramCellSpec, build_sram_cell
from repro.verify.spice_checks import (
    check_dcop_kcl,
    check_sram_bistability,
    check_transient_charge_conservation,
    check_transient_rc_analytic,
)

pytestmark = pytest.mark.tier1


class TestDcopKcl:
    def test_sram_cell_satisfies_kcl(self):
        cell = build_sram_cell()
        check = check_dcop_kcl(
            cell.circuit,
            initial_guess={"q": TECH_90NM.vdd, "qb": 0.0,
                           "vdd": TECH_90NM.vdd})
        assert check.passed
        assert check.statistic < 1e-6
        assert check.kind == "bound"

    def test_residual_reported_even_when_tiny(self):
        cell = build_sram_cell()
        check = check_dcop_kcl(
            cell.circuit,
            initial_guess={"q": 0.0, "qb": TECH_90NM.vdd,
                           "vdd": TECH_90NM.vdd})
        assert check.statistic >= 0.0


class TestBistability:
    def test_default_cell_is_bistable(self):
        check = check_sram_bistability()
        assert check.passed
        assert check.kind == "exact"
        assert check.extras["q_high"] > 0.8 * TECH_90NM.vdd
        assert check.extras["q_low"] < 0.2 * TECH_90NM.vdd

    def test_45nm_cell_is_bistable_too(self):
        spec = SramCellSpec(technology=TECH_45NM)
        check = check_sram_bistability(spec)
        assert check.passed


class TestTransientChecks:
    def test_charge_conservation(self):
        check = check_transient_charge_conservation()
        assert check.passed
        assert check.statistic < 1e-4

    def test_rc_discharge_matches_closed_form(self):
        check = check_transient_rc_analytic()
        assert check.passed
        assert check.statistic < 2e-3

    def test_rc_tolerance_scales_with_step(self):
        """Behavioural: a coarser integration grid drifts further from
        the closed form — the error really measures the integrator."""
        fine = check_transient_rc_analytic(steps_per_tau=200)
        coarse = check_transient_rc_analytic(steps_per_tau=25, tol=1.0)
        assert coarse.statistic > fine.statistic
