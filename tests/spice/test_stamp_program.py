"""The stamp program assembles bit-identically to the scalar stamps.

:class:`repro.spice.mna.StampProgram` replaces the element-by-element
``Stamper`` loop; its contract is that every Newton system ``(A, z)`` it
produces is the *same bytes* as that loop's (kept in
``reference_stamps``).  ``tobytes()`` comparison also pins the sign of
every zero.  Random circuits mix all five element classes with the
awkward cases of the SRAM netlists: terminals tied to ground, a
capacitor across a single node (``CM3_sb``: source and bulk both at
vdd) and PMOS devices with their bulk at vdd.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.errors import NetlistError
from repro.spice.circuit import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Element,
    IntegrationCoeff,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.spice.mna import GMIN_FLOOR, StampProgram
from repro.spice.sources import DC, PULSE, PWL

from . import reference_stamps as ref

pytestmark = pytest.mark.tier1

NODES = ("0", "gnd", "vdd", "a", "b", "c")
node = st.sampled_from(NODES)
# Exact zeros of both signs and repeated values exercise the zero-sign
# and equal-terminal paths; the float range covers the SRAM swing.
voltage = st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.2)),
                    st.floats(-1.5, 2.5, allow_nan=False))
stimulus = st.one_of(
    st.builds(DC, st.floats(-2.0, 2.0)),
    st.builds(lambda v, d: PULSE(0.0, v, delay=d, rise=1e-10, fall=1e-10,
                                 width=2e-10),
              st.floats(-2.0, 2.0), st.floats(0.0, 1e-9)),
    st.builds(lambda v: PWL(times=(0.0, 5e-10, 1e-9), values=(0.0, v, -v)),
              st.floats(-1e-3, 1e-3)),
)
element = st.one_of(
    st.tuples(st.just("R"), node, node, st.floats(1.0, 1e6)),
    st.tuples(st.just("C"), node, node, st.floats(1e-18, 1e-12)),
    st.tuples(st.just("V"), node, node, stimulus),
    st.tuples(st.just("I"), node, node, stimulus),
    st.tuples(st.just("M"), st.tuples(node, node, node, node),
              st.sampled_from("np"), st.floats(0.5, 4.0)),
)


def build(spec) -> Circuit:
    circuit = Circuit("random")
    VoltageSource("VDD", circuit, "vdd", "0", DC(1.2))
    Capacitor("CM3_sb", circuit, "vdd", "vdd", 1e-17)
    Mosfet("MP", circuit, "a", "b", "vdd", "vdd",
           MosfetParams.nominal(TECH_90NM, "p"))
    for index, (kind, *args) in enumerate(spec):
        name = f"{kind}{index}"
        if kind == "R":
            Resistor(name, circuit, *args)
        elif kind == "C":
            Capacitor(name, circuit, *args)
        elif kind == "V":
            VoltageSource(name, circuit, *args)
        elif kind == "I":
            CurrentSource(name, circuit, *args)
        else:
            terminals, polarity, scale = args
            params = MosfetParams.nominal(TECH_90NM, polarity).scaled(scale)
            Mosfet(name, circuit, *terminals, params)
    return circuit


def histories(circuit, values):
    """The same capacitor state as the program's arrays and the
    reference's per-element dict."""
    caps = [e for e in circuit.elements if isinstance(e, Capacitor)]
    v = np.array(values[:len(caps)])
    i = np.array(values[len(caps):2 * len(caps)]) * 1e-6
    return (v, i), {cap.name: (float(v[k]), float(i[k]))
                    for k, cap in enumerate(caps)}


def same_bytes(left, right) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(left, right))


@settings(max_examples=60, deadline=None)
@given(spec=st.lists(element, min_size=0, max_size=8),
       values=st.lists(voltage, min_size=40, max_size=40),
       t=st.floats(0.0, 2e-9),
       dt=st.floats(1e-13, 1e-9),
       scale=st.sampled_from((1.0, 0.125)))
def test_property_transient_matches_reference(spec, values, t, dt, scale):
    circuit = build(spec)
    program = StampProgram(circuit)
    x = np.array(values[-program.n:])
    state, reference_state = histories(circuit, values)
    for method in ("be", "trap"):
        coeff = IntegrationCoeff(method, dt)
        expected = ref.transient_assemble(circuit, x, t, coeff,
                                          reference_state, scale)
        got = program.transient_assembler(t, coeff, state, scale)(x)
        assert same_bytes(got, expected)


@settings(max_examples=60, deadline=None)
@given(spec=st.lists(element, min_size=0, max_size=8),
       values=st.lists(voltage, min_size=20, max_size=20),
       t=st.floats(0.0, 2e-9),
       gmin=st.sampled_from((GMIN_FLOOR, 1e-5)),
       scale=st.sampled_from((1.0, 0.125)))
def test_property_dc_matches_reference(spec, values, t, gmin, scale):
    circuit = build(spec)
    program = StampProgram(circuit)
    x = np.array(values[:program.n])
    expected = ref.dc_assemble(circuit, x, gmin, scale, t=t)
    got = program.dc_assembler(t, gmin, scale)(x)
    assert same_bytes(got, expected)


@settings(max_examples=40, deadline=None)
@given(spec=st.lists(element, min_size=0, max_size=8),
       values=st.lists(voltage, min_size=60, max_size=60),
       dt=st.floats(1e-13, 1e-9))
def test_property_history_matches_reference(spec, values, dt):
    circuit = build(spec)
    program = StampProgram(circuit)
    n = program.n
    x0, x1 = np.array(values[:n]), np.array(values[n:2 * n])
    reference_state = {}
    for e in circuit.elements:
        ref.init_history(e, x0, reference_state)
    state = program.initial_history(x0)
    for method in ("be", "trap", "trap"):
        coeff = IntegrationCoeff(method, dt)
        for e in circuit.elements:
            ref.update_history(e, x1, coeff, reference_state)
        state = program.advance(x1, coeff, state)
        x0, x1 = x1, x0
    caps = [e for e in circuit.elements if isinstance(e, Capacitor)]
    v = np.array([reference_state[c.name][0] for c in caps])
    i = np.array([reference_state[c.name][1] for c in caps])
    assert same_bytes(state, (v, i))


def test_sram_cell_matches_reference():
    """The netlist the methodology simulates, at a mid-swing iterate."""
    from repro.sram.cell import build_sram_cell

    circuit = build_sram_cell().circuit
    program = StampProgram(circuit)
    x = np.random.default_rng(7).uniform(-0.1, 1.3, program.n)
    state, reference_state = histories(
        circuit, list(np.random.default_rng(8).uniform(-0.1, 1.3, 200)))
    coeff = IntegrationCoeff("trap", 1e-12)
    assert same_bytes(program.transient_assembler(0.0, coeff, state)(x),
                      ref.transient_assemble(circuit, x, 0.0, coeff,
                                             reference_state))


def test_unknown_element_type_rejected():
    class Inductor(Element):
        pass

    circuit = Circuit()
    Resistor("R1", circuit, "a", "0", 1.0)
    circuit.add(Inductor("L1", (0, -1)))
    with pytest.raises(NetlistError, match="Inductor"):
        StampProgram(circuit)


def test_stimuli_are_read_when_the_assembler_is_built():
    """Sweeps and co-simulation hooks swap stimuli between solves."""
    circuit = Circuit()
    source = VoltageSource("V1", circuit, "a", "0", DC(1.0))
    Resistor("R1", circuit, "a", "0", 1.0)
    program = StampProgram(circuit)
    source.stimulus = DC(2.5)
    __, rhs = program.dc_assembler()(np.zeros(program.n))
    assert rhs[source.branch_index] == 2.5


def test_an_assembler_keeps_its_own_pools():
    """Each public assembler owns its pools: building another one, for
    another time and state, does not change what the first assembles."""
    from repro.sram.cell import build_sram_cell

    circuit = build_sram_cell().circuit
    for element in circuit.elements:
        if isinstance(element, VoltageSource) and element.name == "VWL":
            element.stimulus = PWL(times=(0.0, 1e-9), values=(0.0, 1.0))
    program = StampProgram(circuit)
    x = np.random.default_rng(7).uniform(-0.1, 1.3, program.n)
    state, _ = histories(
        circuit, list(np.random.default_rng(8).uniform(-0.1, 1.3, 200)))
    early = program.transient_assembler(
        2e-10, IntegrationCoeff("be", 1e-12), state)
    expected = early(x)
    program.transient_assembler(8e-10, IntegrationCoeff("trap", 3e-12),
                                program.advance(x, IntegrationCoeff(
                                    "trap", 3e-12), state), 0.5)(x)
    program.dc_assembler(5e-10, 1e-5, 0.25)(x)
    assert same_bytes(early(x), expected)
