"""Tests for the 6T cell builder."""

from __future__ import annotations

import pytest

from repro.devices.technology import TECH_45NM, TECH_90NM
from repro.errors import NetlistError
from repro.spice.dcop import dc_operating_point
from repro.sram.cell import (
    SramCellSpec,
    TRANSISTOR_NAMES,
    build_sram_cell,
)

pytestmark = pytest.mark.tier1


class TestSpec:
    def test_defaults(self):
        spec = SramCellSpec()
        assert spec.technology is TECH_90NM
        assert spec.supply == TECH_90NM.vdd

    def test_vdd_override(self):
        assert SramCellSpec(vdd=0.5).supply == 0.5

    def test_validation(self):
        with pytest.raises(NetlistError):
            SramCellSpec(pass_factor=0.0)
        with pytest.raises(NetlistError):
            SramCellSpec(node_capacitance=-1.0)
        with pytest.raises(NetlistError):
            SramCellSpec(vdd=0.0)

    def test_device_params_roles(self):
        spec = SramCellSpec()
        pd = spec.device_params("M5")
        pg = spec.device_params("M1")
        pu = spec.device_params("M3")
        assert pd.polarity == "n" and pg.polarity == "n"
        assert pu.polarity == "p"
        # Classic ratioed sizing: pulldown > pass > pullup.
        assert pd.width > pg.width > pu.width

    def test_device_params_unknown(self):
        with pytest.raises(NetlistError):
            SramCellSpec().device_params("M7")

    def test_other_technology(self):
        spec = SramCellSpec(technology=TECH_45NM)
        assert spec.device_params("M1").technology is TECH_45NM


class TestBuiltCell:
    def test_all_transistors_present(self):
        cell = build_sram_cell()
        assert set(cell.transistors) == set(TRANSISTOR_NAMES)
        assert set(cell.terminals) == set(TRANSISTOR_NAMES)

    def test_paper_gate_assignments(self):
        """M5's gate is Q and M6's gate is QB (paper Fig. 8 b, c)."""
        cell = build_sram_cell()
        assert cell.terminals["M5"][1] == "q"
        assert cell.terminals["M6"][1] == "qb"
        assert cell.terminals["M1"][1] == "wl"
        assert cell.terminals["M2"][1] == "wl"

    def test_sources_present(self):
        cell = build_sram_cell()
        for name in ("VDD", "VWL", "VBL", "VBLB"):
            assert cell.source(name) is not None

    def test_initial_voltages(self):
        cell = build_sram_cell()
        holding_one = cell.initial_voltages(1)
        assert holding_one["q"] == cell.vdd
        assert holding_one["qb"] == 0.0
        holding_zero = cell.initial_voltages(0)
        assert holding_zero["q"] == 0.0
        with pytest.raises(NetlistError):
            cell.initial_voltages(2)

    def test_hold_state_is_dc_stable(self):
        """With WL low, both data states are DC solutions of the cell."""
        cell = build_sram_cell()
        for bit in (0, 1):
            guess = cell.initial_voltages(bit)
            sol = dc_operating_point(cell.circuit, initial_guess=guess)
            expected_q = cell.vdd if bit else 0.0
            assert sol["q"] == pytest.approx(expected_q, abs=0.05)
            assert sol["qb"] == pytest.approx(cell.vdd - expected_q, abs=0.05)

    def test_node_capacitors_attached(self):
        cell = build_sram_cell(SramCellSpec(node_capacitance=1e-15))
        names = {e.name for e in cell.circuit.elements}
        assert "Cq" in names and "Cqb" in names

    def test_set_stimuli(self):
        from repro.spice.sources import DC
        cell = build_sram_cell()
        cell.set_stimuli(DC(1.0), DC(0.5), DC(0.2))
        assert cell.source("VWL").stimulus.value == 1.0
        assert cell.source("VBL").stimulus.value == 0.5
        assert cell.source("VBLB").stimulus.value == 0.2
