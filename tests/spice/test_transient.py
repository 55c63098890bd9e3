"""Tests for the transient engine against closed-form circuit responses."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.errors import NetlistError, RecoveredWarning, SimulationError
from repro.spice.circuit import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
    attach_mosfet_parasitics,
)
from repro.spice.newton import NewtonOptions
from repro.spice.sources import DC, PULSE, PWL, SIN
from repro.spice.transient import TransientOptions, simulate_transient

pytestmark = pytest.mark.tier1


def rc_circuit(v_in=1.0, r=1e3, c_val=1e-9) -> Circuit:
    c = Circuit("rc")
    VoltageSource("V1", c, "in", "0", DC(v_in))
    Resistor("R1", c, "in", "out", r)
    Capacitor("C1", c, "out", "0", c_val)
    return c


class TestInterface:
    def test_rejects_bad_times(self, deadline):
        c = rc_circuit()
        with pytest.raises(SimulationError):
            simulate_transient(c, -1.0, 1e-9)
        with pytest.raises(SimulationError):
            simulate_transient(c, 1e-6, 0.0)
        with pytest.raises(SimulationError):
            simulate_transient(c, 1e-6, 1e-5)
        # Non-finite windows and steps; a NaN dt used to loop forever.
        nan, inf = float("nan"), float("inf")
        for t_stop, dt in ((1e-6, nan), (nan, 1e-9), (inf, 1e-9),
                           (1e-6, inf)):
            with deadline(10), pytest.raises(SimulationError):
                simulate_transient(c, t_stop, dt)

    def test_unknown_initial_node_rejected_not_created(self):
        c = rc_circuit()
        names = list(c.node_names)
        with pytest.raises(NetlistError, match="typo"):
            simulate_transient(c, 1e-7, 1e-8, initial_voltages={"typo": 5.0})
        assert c.node_names == names

    def test_rejects_bad_initial_x(self):
        c = rc_circuit()
        with pytest.raises(SimulationError):
            simulate_transient(c, 1e-6, 1e-8, initial_x=np.zeros(99))

    def test_options_validation(self):
        with pytest.raises(SimulationError):
            TransientOptions(method="rk4")
        with pytest.raises(SimulationError):
            TransientOptions(record_every=0)

    def test_output_covers_window(self):
        wf = simulate_transient(rc_circuit(), 1e-6, 1e-8)
        assert wf.times[0] == 0.0
        assert wf.times[-1] == pytest.approx(1e-6)
        assert "out" in wf and "in" in wf and "i(V1)" in wf

    def test_record_every_thins_output(self):
        full = simulate_transient(rc_circuit(), 1e-6, 1e-8)
        thin = simulate_transient(rc_circuit(), 1e-6, 1e-8,
                                  options=TransientOptions(record_every=10))
        assert thin.times.size < full.times.size / 5
        assert thin.times[-1] == pytest.approx(1e-6)


class TestLinearAccuracy:
    def test_rc_charge_matches_exponential(self):
        tau = 1e-6
        wf = simulate_transient(rc_circuit(), 5 * tau, tau / 100,
                                initial_voltages={"out": 0.0})
        exact = 1.0 - np.exp(-wf.times / tau)
        assert np.max(np.abs(wf["out"] - exact)) < 2e-3

    def test_rc_discharge(self):
        c = Circuit()
        Resistor("R1", c, "out", "0", 1e3)
        Capacitor("C1", c, "out", "0", 1e-9)
        tau = 1e-6
        wf = simulate_transient(c, 3 * tau, tau / 100,
                                initial_voltages={"out": 2.0})
        exact = 2.0 * np.exp(-wf.times / tau)
        assert np.max(np.abs(wf["out"] - exact)) < 4e-3

    def test_trap_beats_be_accuracy(self):
        """Trapezoidal (with its BE ramp-in making the initial capacitor
        current consistent) is much more accurate than pure BE."""
        tau = 1e-6
        wf_trap = simulate_transient(
            rc_circuit(), 3 * tau, tau / 20,
            options=TransientOptions(method="trap"))
        wf_be = simulate_transient(
            rc_circuit(), 3 * tau, tau / 20,
            options=TransientOptions(method="be", be_startup_steps=0))
        exact_t = 1.0 - np.exp(-wf_trap.times / tau)
        exact_b = 1.0 - np.exp(-wf_be.times / tau)
        # Compare past the ramp-in window, where the methods' intrinsic
        # orders show (BE is first order, trapezoidal second).
        late_t = wf_trap.times > tau
        late_b = wf_be.times > tau
        err_trap = np.max(np.abs(wf_trap["out"] - exact_t)[late_t])
        err_be = np.max(np.abs(wf_be["out"] - exact_b)[late_b])
        assert err_trap < err_be / 3

    def test_current_source_into_capacitor_ramps(self):
        c = Circuit()
        CurrentSource("I1", c, "0", "out", DC(1e-6))
        Capacitor("C1", c, "out", "0", 1e-9)
        Resistor("Rleak", c, "out", "0", 1e12)
        wf = simulate_transient(c, 1e-6, 1e-9)
        # dV/dt = I/C = 1e-6/1e-9 = 1000 V/s -> 1 mV after 1 us.
        assert wf.final("out") == pytest.approx(1e-3, rel=1e-3)

    def test_sin_steady_state_amplitude(self):
        """RC lowpass driven at the corner: gain 1/sqrt(2), phase -45deg."""
        r, c_val = 1e3, 1e-9
        f = 1.0 / (2 * np.pi * r * c_val)
        c = Circuit()
        VoltageSource("V1", c, "in", "0", SIN(0.0, 1.0, f))
        Resistor("R1", c, "in", "out", r)
        Capacitor("C1", c, "out", "0", c_val)
        period = 1.0 / f
        wf = simulate_transient(c, 12 * period, period / 400)
        steady = wf.window(8 * period, 12 * period)
        amplitude = 0.5 * (steady["out"].max() - steady["out"].min())
        assert amplitude == pytest.approx(1.0 / np.sqrt(2.0), rel=0.02)

    def test_pwl_source_followed(self):
        c = Circuit()
        VoltageSource("V1", c, "in", "0",
                      PWL(times=(0.0, 1e-6, 2e-6), values=(0.0, 1.0, 0.0)))
        Resistor("R1", c, "in", "0", 1e3)
        wf = simulate_transient(c, 2e-6, 1e-8)
        assert wf.at("in", 0.5e-6) == pytest.approx(0.5, abs=0.01)
        assert wf.at("in", 1.5e-6) == pytest.approx(0.5, abs=0.01)


class Recorded:
    """A stimulus that is not a ``sources`` type: it reads ``inner`` and
    records every time it is evaluated at."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.times = []

    def __call__(self, t):
        self.times.append(float(t))
        return self.inner(t)


class Held:
    """A mutable stimulus (like the co-simulation's held sources) that
    changes after every read: the k-th read returns ``0.1 * k``."""

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self, t):
        self.reads += 1
        return 0.1 * self.reads


#: 0 V until 0.45 us, 3 V from 0.55 us: a 0.1 us step across the ramp
#: moves the source 1.5 V, which two damped Newton iterates (0.5 V cap)
#: cannot cover; an eighth step (0.375 V) converges in two.
STEEP = PWL(times=(0.0, 0.45e-6, 0.55e-6, 1e-6), values=(0.0, 0.0, 3.0, 3.0))
TWO_ITERATES = TransientOptions(newton=NewtonOptions(max_iterations=2))


def driven_rc(stimulus) -> tuple:
    """An RC low-pass driven by ``stimulus`` (tau = 1 us), and its source."""
    c = Circuit("driven-rc")
    source = VoltageSource("V1", c, "in", "0", stimulus)
    Resistor("R1", c, "in", "out", 1e3)
    Capacitor("C1", c, "out", "0", 1e-9)
    return c, source


class TestStimulusContract:
    """Sources are evaluated at every (sub)step's end time; a hook's
    swap and a stateful stimulus are seen from the next step on."""

    def test_pre_step_swap_is_honoured_from_the_next_step(self):
        before = PWL(times=(0.0, 1e-6), values=(0.0, 1.0))
        after = PWL(times=(0.0, 1e-6), values=(2.0, 1.0))
        circuit, source = driven_rc(before)
        calls = []

        def swap(t, x):
            calls.append(t)
            if len(calls) == 6:  # before the 6th step, at t_5
                source.stimulus = after

        wf = simulate_transient(circuit, 1e-6, 1e-7,
                                options=TransientOptions(pre_step=swap))
        assert wf.times.size == 11
        assert wf["in"][1:6] == pytest.approx(before(wf.times[1:6]),
                                              rel=1e-12, abs=1e-15)
        assert wf["in"][6:] == pytest.approx(after(wf.times[6:]),
                                             rel=1e-12, abs=1e-15)

    def test_mutable_stimulus_is_read_at_every_step(self):
        held = Held()
        circuit, _ = driven_rc(held)
        wf = simulate_transient(circuit, 1e-6, 1e-7)
        steps = wf.times.size - 1
        assert held.reads == steps
        assert wf["in"][1:] == pytest.approx(0.1 * np.arange(1, steps + 1),
                                             rel=1e-12)

    def test_halved_step_reads_the_stimuli_at_its_sub_step_times(self):
        recorded = Recorded(STEEP)
        circuit, _ = driven_rc(recorded)
        reference = simulate_transient(circuit, 1e-6, 1e-7,
                                       options=TWO_ITERATES)
        grid = set(reference.times.tolist())
        off_grid = [t for t in recorded.times if t not in grid]
        # The steps across the ramp were halved until their sub-steps
        # converged: 0.45 us, then 0.4625 us (an eighth step) and on.
        assert off_grid
        for t_sub in (0.45e-6, 0.4625e-6, 0.5125e-6):
            assert any(t == pytest.approx(t_sub, rel=1e-9) for t in off_grid)
        # The pure source gives the same bytes as the recorded one.
        circuit, _ = driven_rc(STEEP)
        wf = simulate_transient(circuit, 1e-6, 1e-7, options=TWO_ITERATES)
        assert wf.times.tobytes() == reference.times.tobytes()
        for name in reference.signals:
            assert wf[name].tobytes() == reference[name].tobytes()

    def test_steps_after_a_drifted_halving_read_the_grid(self, monkeypatch):
        # The halved step that ends the ramp adds up one ulp short of
        # the grid (5.999999999999999e-07 against 6e-07); the steps after
        # it still read tabulated rows instead of calling the source.
        calls = []
        pwl_call = PWL.__call__

        def recording(self, t):
            calls.append(t)
            return pwl_call(self, t)

        monkeypatch.setattr(PWL, "__call__", recording)
        circuit, _ = driven_rc(STEEP)
        wf = simulate_transient(circuit, 1e-6, 1e-7, options=TWO_ITERATES)
        scalar = [t for t in calls if np.ndim(t) == 0]
        tables = [t for t in calls if np.ndim(t) == 1]
        assert 0.6e-6 not in wf.times.tolist()  # the run did drift
        assert max(scalar) < 0.6e-6
        assert [len(t) for t in tables] == [10, 4]


class TestSeedCompatibility:
    """Pinned waveform bytes; a deliberate change must re-pin them."""

    def test_recovered_transient_is_pinned(self, waveform_digest):
        # One halving allowed: the steps across the ramp exhaust it and
        # finish in the recovery ladder.
        circuit, _ = driven_rc(STEEP)
        options = TransientOptions(newton=NewtonOptions(max_iterations=2),
                                   max_halvings=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wf = simulate_transient(circuit, 1e-6, 1e-7, options=options)
        assert any(isinstance(w.message, RecoveredWarning) for w in caught)
        assert waveform_digest(wf) == "d1e7998ca73e6857d72cdf5f1adcc3e3"


class TestEnergyAndCharge:
    def test_capacitor_charge_conservation(self):
        """Charge delivered through the source equals C * delta V."""
        c = rc_circuit(v_in=1.0, r=1e3, c_val=1e-9)
        wf = simulate_transient(c, 5e-6, 1e-8,
                                initial_voltages={"out": 0.0})
        # i(V1) is the current into the + terminal: negative of the
        # current delivered into the RC.
        delivered = -np.trapezoid(wf["i(V1)"], wf.times)
        # The t=0 record carries the raw UIC vector (branch current 0),
        # so the first trapezoid panel under-counts slightly.
        assert delivered == pytest.approx(1e-9 * 1.0, rel=0.03)


class TestMosfetTransients:
    def test_inverter_switches(self):
        c = Circuit()
        VoltageSource("VDD", c, "vdd", "0", DC(1.0))
        VoltageSource("VIN", c, "in", "0",
                      PULSE(0.0, 1.0, delay=1e-9, rise=0.1e-9, fall=0.1e-9,
                            width=3e-9))
        mp = Mosfet("MP", c, "out", "in", "vdd", "vdd",
                    MosfetParams.nominal(TECH_90NM, "p"))
        mn = Mosfet("MN", c, "out", "in", "0", "0",
                    MosfetParams.nominal(TECH_90NM, "n"))
        attach_mosfet_parasitics(c, mp, "out", "in", "vdd", "vdd")
        attach_mosfet_parasitics(c, mn, "out", "in", "0", "0")
        Capacitor("CL", c, "out", "0", 2e-15)
        wf = simulate_transient(c, 6e-9, 5e-12,
                                initial_voltages={"vdd": 1.0, "out": 1.0})
        assert wf.at("out", 0.9e-9) == pytest.approx(1.0, abs=0.05)
        assert wf.at("out", 3e-9) == pytest.approx(0.0, abs=0.05)
        assert wf.at("out", 6e-9) == pytest.approx(1.0, abs=0.05)

    def test_sram_cell_write_one(self):
        """The Fig. 5 (top) scenario: a clean write flips the cell."""
        wf = _write_one_waveform(glitch=None)
        assert wf.at("q", 0.8e-9) < 0.1          # holds 0 before WL
        assert wf.final("q") > 0.9               # flipped to 1
        assert wf.final("qb") < 0.1

    def test_sram_hold_without_wordline(self):
        wf = _write_one_waveform(glitch=None, wl_high=0.0)
        assert wf.final("q") < 0.1               # cell undisturbed


def _write_one_waveform(glitch, wl_high: float = 1.0):
    """Build the 6T write-1 testbench used by several tests."""
    tech = TECH_90NM

    def mk(width, polarity):
        return MosfetParams(width=width, length=tech.node, polarity=polarity,
                            technology=tech)

    c = Circuit("sram-write")
    VoltageSource("VDD", c, "vdd", "0", DC(1.0))
    VoltageSource("VWL", c, "wl", "0",
                  PULSE(0.0, wl_high, delay=1e-9, rise=0.1e-9, fall=0.1e-9,
                        width=2e-9))
    VoltageSource("VBL", c, "bl", "0", DC(1.0))
    VoltageSource("VBLB", c, "blb", "0", DC(0.0))
    devices = [
        ("M3", "qb", "q", "vdd", "vdd", mk(0.15e-6, "p")),
        ("M5", "qb", "q", "0", "0", mk(0.3e-6, "n")),
        ("M4", "q", "qb", "vdd", "vdd", mk(0.15e-6, "p")),
        ("M6", "q", "qb", "0", "0", mk(0.3e-6, "n")),
        ("M1", "bl", "wl", "q", "0", mk(0.2e-6, "n")),
        ("M2", "blb", "wl", "qb", "0", mk(0.2e-6, "n")),
    ]
    for name, d, g, s, b, params in devices:
        m = Mosfet(name, c, d, g, s, b, params)
        attach_mosfet_parasitics(c, m, d, g, s, b)
    if glitch is not None:
        CurrentSource("Irtn", c, *glitch)
    return simulate_transient(
        c, 5e-9, 10e-12,
        initial_voltages={"q": 0.0, "qb": 1.0, "vdd": 1.0, "bl": 1.0})
