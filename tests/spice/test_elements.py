"""Element-level stamp tests (including Newton/companion consistency).

Each element is assembled through :class:`repro.spice.mna.StampProgram`;
DC systems use ``gmin=0`` so only the element's own stamp shows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.ekv import drain_current
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.errors import NetlistError
from repro.spice.circuit import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    IntegrationCoeff,
    Mosfet,
    Resistor,
    VoltageSource,
    attach_mosfet_parasitics,
)
from repro.spice.mna import StampProgram
from repro.spice.sources import DC

pytestmark = pytest.mark.tier1


def dc_system(circuit, x=None):
    """``(A, z)`` of the circuit's DC stamps (no gmin) at ``x``."""
    program = StampProgram(circuit)
    x = np.zeros(program.n) if x is None else x
    return program.dc_assembler(gmin=0.0)(x)


class TestValidation:
    def test_resistor_positive(self):
        with pytest.raises(NetlistError):
            Resistor("R1", Circuit(), "a", "0", 0.0)

    def test_capacitor_positive(self):
        with pytest.raises(NetlistError):
            Capacitor("C1", Circuit(), "a", "0", -1e-12)

    def test_element_name_required(self):
        with pytest.raises(NetlistError):
            Resistor("", Circuit(), "a", "0", 1.0)

    def test_integration_coeff_validation(self):
        with pytest.raises(NetlistError):
            IntegrationCoeff(method="euler", dt=1e-9)
        with pytest.raises(NetlistError):
            IntegrationCoeff(method="be", dt=0.0)
        with pytest.raises(NetlistError):
            IntegrationCoeff(method="trap", dt=float("nan"))


class TestResistorStamp:
    def test_matrix_pattern(self):
        c = Circuit()
        Resistor("R1", c, "a", "b", 2.0)
        matrix, __ = dc_system(c)
        assert matrix[0, 0] == pytest.approx(0.5)
        assert matrix[0, 1] == pytest.approx(-0.5)


class TestCapacitorStamp:
    def test_dc_open(self):
        c = Circuit()
        Capacitor("C1", c, "a", "0", 1e-9)
        matrix, __ = dc_system(c)
        assert np.all(matrix == 0.0)

    def test_be_companion_values(self):
        c = Circuit()
        Capacitor("C1", c, "a", "0", 1e-9)
        program = StampProgram(c)
        history = program.initial_history(np.array([0.5]))
        matrix, rhs = program.transient_assembler(
            0.0, IntegrationCoeff("be", 1e-9), history)(np.array([0.5]))
        geq = 1e-9 / 1e-9
        assert matrix[0, 0] == pytest.approx(geq)
        # ieq = -geq * v_prev flows a->ground: RHS[a] = -ieq = +geq*v.
        assert rhs[0] == pytest.approx(geq * 0.5)

    def test_history_current_tracking_trap(self):
        """After a step, the stored current matches i = C dv/dt."""
        c = Circuit()
        Capacitor("C1", c, "a", "0", 2e-9)
        program = StampProgram(c)
        history = program.initial_history(np.array([0.0]))
        coeff = IntegrationCoeff("trap", 1e-9)
        (v,), (i,) = program.advance(np.array([0.1]), coeff, history)
        assert v == pytest.approx(0.1)
        # First trap step from rest: i = 2C/dt * dv - 0.
        assert i == pytest.approx(2 * 2e-9 / 1e-9 * 0.1)


class TestSourceStamps:
    def test_voltage_source_rows(self):
        c = Circuit()
        v = VoltageSource("V1", c, "p", "m", DC(3.0))
        matrix, rhs = dc_system(c)
        k = v.branch_index
        assert matrix[0, k] == 1.0      # KCL at p
        assert matrix[1, k] == -1.0     # KCL at m
        assert matrix[k, 0] == 1.0      # branch equation
        assert matrix[k, 1] == -1.0
        assert rhs[k] == 3.0

    def test_current_source_rhs(self):
        c = Circuit()
        CurrentSource("I1", c, "a", "b", DC(2e-3))
        __, rhs = dc_system(c)
        assert rhs[0] == pytest.approx(-2e-3)
        assert rhs[1] == pytest.approx(2e-3)


class TestMosfetStamp:
    @settings(max_examples=30, deadline=None)
    @given(v_d=st.floats(0.0, 1.0), v_g=st.floats(0.0, 1.0),
           v_s=st.floats(0.0, 1.0))
    def test_property_linearisation_consistent(self, v_d, v_g, v_s):
        """The stamped linear system evaluated AT the iterate reproduces
        the device current exactly (Newton consistency)."""
        c = Circuit()
        params = MosfetParams.nominal(TECH_90NM, "n")
        Mosfet("M1", c, "d", "g", "s", "0", params)
        x = np.array([v_d, v_g, v_s])
        matrix, rhs = dc_system(c, x)
        # KCL residual at the drain from the stamp: A x - z equals the
        # current out of the drain, i.e. the channel current.
        residual = matrix @ x - rhs
        i_expected = drain_current(params, v_g, v_d, v_s, 0.0)
        assert residual[0] == pytest.approx(i_expected, abs=1e-15 + 1e-9)
        assert residual[2] == pytest.approx(-i_expected, abs=1e-15 + 1e-9)

    def test_terminal_voltages_helper(self):
        c = Circuit()
        m = Mosfet("M1", c, "d", "g", "0", "0",
                   MosfetParams.nominal(TECH_90NM, "n"))
        c.assign_branches()
        assert m.terminal_voltages(np.array([0.7, 0.9])) == \
            (0.7, 0.9, 0.0, 0.0)


class TestParasitics:
    def test_attach_creates_four_caps(self):
        c = Circuit()
        m = Mosfet("M1", c, "d", "g", "s", "0",
                   MosfetParams.nominal(TECH_90NM, "n"))
        attach_mosfet_parasitics(c, m, "d", "g", "s", "0")
        caps = [e for e in c.elements if isinstance(e, Capacitor)]
        assert len(caps) == 4
        assert all(cap.capacitance > 0.0 for cap in caps)

    def test_gate_cap_magnitude(self):
        """C_gs ~ W L C_ox / 2 + overlap: sub-femtofarad at 90 nm."""
        c = Circuit()
        params = MosfetParams.nominal(TECH_90NM, "n")
        m = Mosfet("M1", c, "d", "g", "s", "0", params)
        attach_mosfet_parasitics(c, m, "d", "g", "s", "0")
        cgs = c.element("CM1_gs").capacitance
        assert 1e-17 < cgs < 1e-15
