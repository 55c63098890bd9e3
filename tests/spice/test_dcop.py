"""Tests for the DC operating-point analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.errors import ConvergenceError, NetlistError
from repro.spice.circuit import Circuit
from repro.spice import dcop
from repro.spice.dcop import dc_operating_point, dc_sweep
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.spice.sources import DC, PULSE

pytestmark = pytest.mark.tier1


def nmos(width=0.24e-6):
    return MosfetParams(width=width, length=TECH_90NM.node, polarity="n",
                        technology=TECH_90NM)


def pmos(width=0.36e-6):
    return MosfetParams(width=width, length=TECH_90NM.node, polarity="p",
                        technology=TECH_90NM)


class TestLinearCircuits:
    def test_voltage_divider(self):
        c = Circuit()
        VoltageSource("V1", c, "in", "0", DC(10.0))
        Resistor("R1", c, "in", "mid", 6000.0)
        Resistor("R2", c, "mid", "0", 4000.0)
        sol = dc_operating_point(c)
        assert sol["mid"] == pytest.approx(4.0, rel=1e-6)
        # SPICE convention: current into the + terminal is negative when
        # the source delivers power.
        assert sol["i(V1)"] == pytest.approx(-1e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        c = Circuit()
        CurrentSource("I1", c, "0", "out", DC(2e-3))
        Resistor("R1", c, "out", "0", 500.0)
        sol = dc_operating_point(c)
        assert sol["out"] == pytest.approx(1.0, rel=1e-6)

    def test_capacitor_open_in_dc(self):
        c = Circuit()
        VoltageSource("V1", c, "in", "0", DC(5.0))
        Resistor("R1", c, "in", "out", 1e3)
        Capacitor("C1", c, "out", "0", 1e-9)
        sol = dc_operating_point(c)
        assert sol["out"] == pytest.approx(5.0, rel=1e-4)

    def test_source_evaluated_at_t(self):
        c = Circuit()
        VoltageSource("V1", c, "in", "0",
                      PULSE(0.0, 2.0, delay=0.0, rise=1e-9, fall=1e-9,
                            width=1e-6))
        Resistor("R1", c, "in", "0", 1e3)
        assert dc_operating_point(c, t=0.0)["in"] == pytest.approx(0.0, abs=1e-9)
        assert dc_operating_point(c, t=0.5e-6)["in"] == pytest.approx(2.0)

    def test_getitem_unknown_key(self):
        c = Circuit()
        VoltageSource("V1", c, "in", "0", DC(1.0))
        Resistor("R1", c, "in", "0", 1e3)
        sol = dc_operating_point(c)
        with pytest.raises(KeyError):
            sol["nope"]

    def test_unknown_nodeset_name_rejected_not_created(self):
        c = Circuit()
        VoltageSource("V1", c, "in", "0", DC(1.0))
        Resistor("R1", c, "in", "b", 1e3)
        Resistor("R2", c, "b", "0", 1e3)
        with pytest.raises(NetlistError, match="bb"):
            dc_operating_point(c, initial_guess={"bb": 0.3})
        assert c.node_names == ["in", "b"]
        # Ground aliases are known names: they seed nothing.
        assert dc_operating_point(c, initial_guess={"0": 0.0})["b"] == \
            pytest.approx(0.5)

    def test_empty_circuit_rejected(self):
        with pytest.raises(ConvergenceError):
            dc_operating_point(Circuit())


class TestNonlinearCircuits:
    def test_diode_connected_nmos(self):
        """A diode-connected NMOS fed by a current source settles where
        I_D(v) equals the source current."""
        from repro.devices.ekv import drain_current
        c = Circuit()
        CurrentSource("I1", c, "0", "d", DC(50e-6))
        Mosfet("M1", c, "d", "d", "0", "0", nmos())
        sol = dc_operating_point(c)
        v = sol["d"]
        assert 0.3 < v < 1.0
        assert drain_current(nmos(), v, v, 0.0) == pytest.approx(50e-6,
                                                                 rel=1e-3)

    def test_inverter_transfer_endpoints(self):
        c = Circuit()
        VoltageSource("VDD", c, "vdd", "0", DC(1.0))
        VoltageSource("VIN", c, "in", "0", DC(0.0))
        Mosfet("MP", c, "out", "in", "vdd", "vdd", pmos())
        Mosfet("MN", c, "out", "in", "0", "0", nmos())
        low_in = dc_operating_point(c)
        assert low_in["out"] == pytest.approx(1.0, abs=0.01)
        c.element("VIN").stimulus = DC(1.0)
        high_in = dc_operating_point(c)
        assert high_in["out"] == pytest.approx(0.0, abs=0.01)

    def test_inverter_transfer_is_monotone(self):
        c = Circuit()
        VoltageSource("VDD", c, "vdd", "0", DC(1.0))
        vin = VoltageSource("VIN", c, "in", "0", DC(0.0))
        Mosfet("MP", c, "out", "in", "vdd", "vdd", pmos())
        Mosfet("MN", c, "out", "in", "0", "0", nmos())
        outputs = []
        for v in np.linspace(0.0, 1.0, 11):
            vin.stimulus = DC(float(v))
            outputs.append(dc_operating_point(c)["out"])
        assert np.all(np.diff(outputs) < 1e-6)

    def test_bistable_latch_follows_nodeset(self):
        """Cross-coupled inverters settle onto the branch selected by the
        initial guess — the mechanism used to initialise the SRAM cell."""
        c = Circuit()
        VoltageSource("VDD", c, "vdd", "0", DC(1.0))
        Mosfet("MP1", c, "q", "qb", "vdd", "vdd", pmos())
        Mosfet("MN1", c, "q", "qb", "0", "0", nmos())
        Mosfet("MP2", c, "qb", "q", "vdd", "vdd", pmos())
        Mosfet("MN2", c, "qb", "q", "0", "0", nmos())
        state0 = dc_operating_point(c, initial_guess={"q": 0.0, "qb": 1.0})
        state1 = dc_operating_point(c, initial_guess={"q": 1.0, "qb": 0.0})
        assert state0["q"] < 0.1 and state0["qb"] > 0.9
        assert state1["q"] > 0.9 and state1["qb"] < 0.1

    def test_nmos_source_follower(self):
        c = Circuit()
        VoltageSource("VDD", c, "vdd", "0", DC(1.0))
        VoltageSource("VG", c, "g", "0", DC(0.9))
        Mosfet("M1", c, "vdd", "g", "out", "0", nmos())
        Resistor("RL", c, "out", "0", 20e3)
        sol = dc_operating_point(c)
        # Output follows the gate minus roughly a threshold.
        assert 0.2 < sol["out"] < 0.7


def _inverter():
    c = Circuit()
    VoltageSource("VDD", c, "vdd", "0", DC(1.0))
    vin = VoltageSource("VIN", c, "in", "0", DC(0.0))
    Mosfet("MP", c, "out", "in", "vdd", "vdd", pmos())
    Mosfet("MN", c, "out", "in", "0", "0", nmos())
    return c, vin


class TestDcSweep:
    """One compiled program for a whole sweep, each point exactly
    ``dc_operating_point`` seeded from the previous one."""

    def test_equals_point_by_point_solves(self):
        values = np.linspace(0.0, 1.0, 21)
        circuit, vin = _inverter()
        swept = dc_sweep(circuit, vin, values, initial_guess={"out": 1.0})
        circuit, vin = _inverter()
        guess = {"out": 1.0}
        for value, solution in zip(values, swept):
            vin.stimulus = DC(float(value))
            alone = dc_operating_point(circuit, initial_guess=guess)
            assert np.array_equal(solution.x, alone.x)
            assert solution.voltages == alone.voltages
            guess = dict(alone.voltages)
        assert len(swept) == values.size
        assert vin.stimulus(0.0) == 1.0  # left at the last value

    def test_compiles_once(self, monkeypatch):
        compiled = []
        program = dcop.StampProgram

        def counting(circuit):
            compiled.append(circuit)
            return program(circuit)

        monkeypatch.setattr(dcop, "StampProgram", counting)
        circuit, vin = _inverter()
        dc_sweep(circuit, vin, np.linspace(0.0, 1.0, 9))
        assert len(compiled) == 1

    def test_every_point_keeps_the_continuation_ladder(self, monkeypatch):
        """Plain Newton failing at one point falls back to gmin stepping
        there (ten levels), and the sweep goes on."""
        solve = dcop.solve_newton
        calls = []

        def failing_third_point(assemble, x0, options=None):
            calls.append(len(calls))
            if len(calls) == 3:  # the third point's plain Newton
                raise ConvergenceError("injected", iterations=1,
                                       residual=1.0)
            return solve(assemble, x0, options)

        monkeypatch.setattr(dcop, "solve_newton", failing_third_point)
        circuit, vin = _inverter()
        swept = dc_sweep(circuit, vin, np.linspace(0.0, 1.0, 5))
        assert len(calls) == 1 + 1 + (1 + 10) + 1 + 1
        assert len(swept) == 5
        assert np.all(np.diff([s["out"] for s in swept]) < 1e-6)

    def test_empty_circuit_rejected(self):
        c = Circuit()
        with pytest.raises(ConvergenceError):
            dc_sweep(c, None, [0.0])
