"""Tests for the circuit container and the MNA stamp program."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice.circuit import Circuit
from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.mna import GROUND, StampProgram
from repro.spice.sources import DC

pytestmark = pytest.mark.tier1


class TestCircuit:
    def test_node_registration(self):
        c = Circuit()
        assert c.node("a") == 0
        assert c.node("b") == 1
        assert c.node("a") == 0  # idempotent
        assert c.n_nodes == 2
        assert c.node_names == ["a", "b"]

    def test_ground_aliases(self):
        c = Circuit()
        for name in ("0", "gnd", "GND", "vss", "VSS"):
            assert c.node(name) == GROUND

    def test_empty_node_name(self):
        with pytest.raises(NetlistError):
            Circuit().node("")

    def test_duplicate_element_rejected(self):
        c = Circuit()
        Resistor("R1", c, "a", "0", 1.0)
        with pytest.raises(NetlistError):
            Resistor("R1", c, "b", "0", 1.0)

    def test_element_lookup_and_remove(self):
        c = Circuit()
        r = Resistor("R1", c, "a", "0", 1.0)
        assert c.element("R1") is r
        c.remove("R1")
        with pytest.raises(NetlistError):
            c.element("R1")

    def test_branch_assignment(self):
        c = Circuit()
        Resistor("R1", c, "a", "b", 1.0)
        VoltageSource("V1", c, "a", "0", DC(1.0))
        VoltageSource("V2", c, "b", "0", DC(2.0))
        n = c.assign_branches()
        assert n == 4  # 2 nodes + 2 branch currents
        assert c.element("V1").branch_index == 2
        assert c.element("V2").branch_index == 3
        assert c.branch_names() == ["i(V1)", "i(V2)"]

    def test_summary_mentions_counts(self):
        c = Circuit("demo")
        Resistor("R1", c, "a", "0", 1.0)
        text = c.summary()
        assert "demo" in text
        assert "1 Resistor" in text

    def test_has_node(self):
        c = Circuit()
        c.node("x")
        assert c.has_node("x")
        assert c.has_node("0")
        assert not c.has_node("y")


def dc_system(circuit):
    """``(A, z)`` of the circuit's DC stamps (no gmin) at ``x = 0``."""
    program = StampProgram(circuit)
    return program.dc_assembler(gmin=0.0)(np.zeros(program.n))


class TestStamper:
    """Stamp conventions, assembled through the stamp program."""

    def test_conductance_stamp_pattern(self):
        c = Circuit()
        Resistor("R1", c, "a", "b", 0.2)
        matrix, __ = dc_system(c)
        expected = np.array([[5.0, -5.0], [-5.0, 5.0]])
        assert np.array_equal(matrix, expected)

    def test_ground_skipped(self):
        c = Circuit()
        Resistor("R1", c, "a", "0", 1.0 / 3.0)
        c.node("b")
        CurrentSource("I1", c, "0", "gnd", DC(9.0))
        matrix, rhs = dc_system(c)
        assert matrix[0, 0] == 3.0
        assert np.count_nonzero(matrix) == 1
        assert np.all(rhs == 0.0)

    def test_current_injection_signs(self):
        c = Circuit()
        CurrentSource("I1", c, "a", "b", DC(2.0))
        __, rhs = dc_system(c)
        # Current leaves node 0 (RHS -2) and enters node 1 (+2).
        assert rhs[0] == -2.0
        assert rhs[1] == 2.0
