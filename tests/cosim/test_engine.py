"""Tests for the circuit-agnostic trap-coupled engine.

The SRAM and ring co-simulators are adapters over this one loop, so the
consistency oracle below covers all three: with the host bias pinned by
DC sources, the coupled occupancies must match the analytic two-state
chain — stationary at the start bias, relaxing from the engine's
zero-drive equilibrium otherwise.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cosim.engine import TrapAttachment, run_trap_coupled
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.errors import SimulationError
from repro.spice.circuit import Circuit
from repro.spice.elements import Capacitor, Mosfet, Resistor, VoltageSource
from repro.spice.sources import DC
from repro.spice.transient import TransientOptions, simulate_transient
from repro.traps.band import crossing_energy
from repro.traps.propensity import equilibrium_occupancy, rates_from_bias
from repro.traps.trap import Trap
from repro.verify.harness import AlphaBudget
from repro.verify.oracles import (
    check_stationary_occupancy,
    check_transient_occupancy,
)

pytestmark = pytest.mark.tier1


def fast_trap(v_cross: float = 0.5, y: float = 0.2e-9) -> Trap:
    return Trap(y_tr=y, e_tr=crossing_energy(v_cross, y, TECH_90NM))


def common_source_amp() -> Circuit:
    """A resistor-loaded common-source stage biased mid-swing."""
    circuit = Circuit("cs-amp")
    VoltageSource("VDD", circuit, "vdd", "0", DC(1.0))
    VoltageSource("VG", circuit, "g", "0", DC(0.55))
    Resistor("RL", circuit, "vdd", "d", 8e3)
    Mosfet("M1", circuit, "d", "g", "0", "0",
           MosfetParams.nominal(TECH_90NM, "n"))
    Capacitor("CL", circuit, "d", "0", 50e-15)
    return circuit


class TestValidation:
    def test_attachment_needs_traps(self):
        with pytest.raises(SimulationError):
            TrapAttachment("M1", traps=())

    def test_attachment_scale(self):
        with pytest.raises(SimulationError):
            TrapAttachment("M1", traps=(fast_trap(),), rtn_scale=-1.0)

    def test_empty_attachments_match_plain_transient(self, rng):
        uic = {"vdd": 1.0, "d": 0.6}
        coupled = run_trap_coupled(common_source_amp(), [], 5e-9, 1e-11,
                                   rng, initial_voltages=uic,
                                   record_every=2)
        plain = simulate_transient(common_source_amp(), 5e-9, 1e-11,
                                   initial_voltages=uic,
                                   options=TransientOptions(record_every=2))
        assert coupled.occupancies == {}
        assert coupled.waveform.signals == plain.signals
        assert np.array_equal(coupled.waveform.times, plain.times)
        for name in plain.signals:
            assert np.array_equal(coupled.waveform[name], plain[name])

    def test_duplicate_attachment(self, rng):
        atts = [TrapAttachment("M1", (fast_trap(),)),
                TrapAttachment("M1", (fast_trap(),))]
        with pytest.raises(SimulationError):
            run_trap_coupled(common_source_amp(), atts, 1e-8, 1e-11, rng)

    def test_non_mosfet_target(self, rng):
        atts = [TrapAttachment("RL", (fast_trap(),))]
        with pytest.raises(SimulationError):
            run_trap_coupled(common_source_amp(), atts, 1e-8, 1e-11, rng)

    def test_sources_removed(self, rng):
        circuit = common_source_amp()
        before = len(circuit.elements)
        run_trap_coupled(circuit,
                         [TrapAttachment("M1", (fast_trap(),))],
                         5e-9, 1e-11, rng,
                         initial_voltages={"vdd": 1.0, "d": 0.6},
                         record_every=4)
        assert len(circuit.elements) == before


class TestAmplifierRtn:
    def test_output_carries_telegraph(self, rng):
        """A big accelerated trap in the amplifying device makes the
        output voltage two-level — RTN amplified by the stage gain."""
        circuit = common_source_amp()
        atts = [TrapAttachment("M1", (fast_trap(0.5),), rtn_scale=300.0)]
        result = run_trap_coupled(
            circuit, atts, 4e-8, 2e-11, rng,
            initial_voltages={"vdd": 1.0, "d": 0.6}, record_every=2)
        traces = result.occupancies["M1"]
        assert len(traces) == 1
        assert traces[0].n_transitions >= 2
        # Output dwells at two distinguishable levels after settling.
        wf = result.waveform
        settled = wf.times > 5e-9
        v_out = wf["d"][settled]
        filled = traces[0].sample(wf.times[settled]).astype(bool)
        if filled.any() and (~filled).any():
            v_filled = v_out[filled].mean()
            v_empty = v_out[~filled].mean()
            # Less channel current while filled -> output rises.
            assert v_filled > v_empty + 0.001

    def test_zero_scale_leaves_circuit_untouched(self, rng_factory):
        circuit_a = common_source_amp()
        atts = [TrapAttachment("M1", (fast_trap(),), rtn_scale=0.0)]
        coupled = run_trap_coupled(
            circuit_a, atts, 5e-9, 1e-11, rng_factory(1),
            initial_voltages={"vdd": 1.0, "d": 0.6}, record_every=2)
        circuit_b = common_source_amp()
        plain = simulate_transient(
            circuit_b, 5e-9, 1e-11,
            initial_voltages={"vdd": 1.0, "d": 0.6},
            options=TransientOptions(record_every=2))
        assert np.allclose(coupled.waveform["d"], plain["d"], atol=1e-9)

    def test_total_transitions_helper(self, rng):
        circuit = common_source_amp()
        atts = [TrapAttachment("M1", (fast_trap(), fast_trap(0.45)))]
        result = run_trap_coupled(
            circuit, atts, 2e-8, 2e-11, rng,
            initial_voltages={"vdd": 1.0, "d": 0.6}, record_every=4)
        assert result.total_transitions() == sum(
            t.n_transitions for t in result.occupancies["M1"])


class TestSeedCompatibility:
    def test_coupled_run_is_pinned(self, waveform_digest):
        """A seeded live-coupled run: its waveform bytes and every
        trap's flips.  The hook swaps no stimulus here, but the held
        source is read at every step; a change to that contract or to
        the engine's arithmetic moves this digest."""
        result = run_trap_coupled(
            common_source_amp(),
            [TrapAttachment("M1", (fast_trap(0.5), fast_trap(0.45)),
                            rtn_scale=300.0)],
            4e-9, 2e-11, np.random.default_rng(3),
            initial_voltages={"vdd": 1.0, "d": 0.6})
        assert result.total_transitions() > 0
        flips = [trace.times.tobytes() + trace.states.tobytes()
                 for trace in result.occupancies["M1"]]
        assert waveform_digest(result.waveform) == "94fa8d847bab97569755c16eb469b29c"
        assert hashlib.blake2b(b"".join(flips),
                               digest_size=16).hexdigest() == "45f93d380a38eea567c3c50088b53245"


# ---------------------------------------------------------------------------
# Consistency oracle: the one co-simulation loop against the analytic chain.

#: Crosses the Fermi level at zero drive: half-filled at the engine's start.
ORACLE_TRAP = Trap(y_tr=0.2e-9,
                   e_tr=crossing_energy(0.0, 0.2e-9, TECH_90NM))
ORACLE_BUDGET = AlphaBudget(1e-3)
ORACLE_ALPHA = ORACLE_BUDGET.split(2)  # stationary + transient


def pinned_nmos(v_gate: float) -> Circuit:
    """One NMOS whose gate and drain are held by DC sources."""
    circuit = Circuit("pinned-nmos")
    VoltageSource("VD", circuit, "d", "0", DC(0.5))
    VoltageSource("VG", circuit, "g", "0", DC(v_gate))
    Mosfet("M1", circuit, "d", "g", "0", "0",
           MosfetParams.nominal(TECH_90NM, "n"))
    return circuit


def pinned_traces(v_gate: float, seed: int, n_traps: int = 96) -> list:
    """Occupancies of ``n_traps`` copies of the oracle trap over 3 ns."""
    result = run_trap_coupled(
        pinned_nmos(v_gate), [TrapAttachment("M1", (ORACLE_TRAP,) * n_traps)],
        3e-9, 1e-11, np.random.default_rng(seed), record_every=50)
    return result.occupancies["M1"]


class TestConsistencyOracle:
    def test_zero_drive_is_stationary(self):
        lam_c, lam_e = rates_from_bias(0.0, ORACLE_TRAP, TECH_90NM)
        check = check_stationary_occupancy(pinned_traces(0.0, seed=11),
                                           lam_c, lam_e, ORACLE_ALPHA)
        assert check.passed, check.detail

    def test_relaxes_from_the_zero_drive_equilibrium(self):
        lam_c, lam_e = rates_from_bias(0.05, ORACLE_TRAP, TECH_90NM)
        traces = pinned_traces(0.05, seed=12)
        grid = np.linspace(0.1e-9, 2.9e-9, 15)
        start = equilibrium_occupancy(0.0, ORACLE_TRAP, TECH_90NM)
        check = check_transient_occupancy(
            traces, lambda t: lam_c, lambda t: lam_e, grid,
            p1_initial=start, alpha=ORACLE_ALPHA)
        assert check.passed, check.detail
        # Power: the same traces reject a start from the filled state.
        wrong = check_transient_occupancy(
            traces, lambda t: lam_c, lambda t: lam_e, grid,
            p1_initial=1.0, alpha=ORACLE_ALPHA)
        assert not wrong.passed
