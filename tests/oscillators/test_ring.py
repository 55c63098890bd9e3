"""Tests for the ring-oscillator RTN extension (paper future-work #4)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.scenario import run_scenario
from repro.devices.technology import TECH_90NM
from repro.errors import SimulationError
from repro.oscillators.ring import (
    build_ring_oscillator,
    measure_periods,
    run_ring_with_rtn,
)
from repro.oscillators.sweeps import RingPeriodSweepConfig
from repro.spice.transient import TransientOptions, simulate_transient
from repro.spice.waveform import Waveform
from repro.traps.band import crossing_energy
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


class TestBuild:
    def test_validation(self):
        with pytest.raises(SimulationError):
            build_ring_oscillator(TECH_90NM, n_stages=4)
        with pytest.raises(SimulationError):
            build_ring_oscillator(TECH_90NM, n_stages=1)
        with pytest.raises(SimulationError):
            build_ring_oscillator(TECH_90NM, load_capacitance=-1.0)

    def test_structure(self):
        ring = build_ring_oscillator(TECH_90NM, n_stages=5)
        assert ring.n_stages == 5
        assert len(ring.nodes) == 5
        assert set(ring.nmos) == set(range(5))
        names = {e.name for e in ring.circuit.elements}
        assert "MP0" in names and "MN4" in names and "CL2" in names

    def test_initial_voltages_staggered(self):
        ring = build_ring_oscillator(TECH_90NM)
        ics = ring.initial_voltages()
        assert ics["vdd"] == TECH_90NM.vdd
        assert ics["n2"] == pytest.approx(0.5 * TECH_90NM.vdd)


class TestOscillation:
    @pytest.fixture(scope="class")
    def free_run(self):
        ring = build_ring_oscillator(TECH_90NM)
        waveform = simulate_transient(
            ring.circuit, 3e-9, 2e-12,
            initial_voltages=ring.initial_voltages(),
            options=TransientOptions(record_every=2))
        return ring, waveform

    def test_ring_oscillates(self, free_run):
        ring, waveform = free_run
        periods = measure_periods(waveform, "n0", 0.5 * ring.vdd)
        assert periods.size > 10

    def test_period_magnitude(self, free_run):
        """2 N t_pd with ~20 ps stage delay: O(100 ps) for 3 stages."""
        ring, waveform = free_run
        periods = measure_periods(waveform, "n0", 0.5 * ring.vdd)
        assert 30e-12 < periods.mean() < 1e-9

    def test_free_running_jitter_is_numerical_only(self, free_run):
        ring, waveform = free_run
        periods = measure_periods(waveform, "n0", 0.5 * ring.vdd)
        assert periods.std() / periods.mean() < 1e-3

    def test_all_stages_oscillate(self, free_run):
        ring, waveform = free_run
        for node in ring.nodes:
            assert measure_periods(waveform, node, 0.5 * ring.vdd).size > 10

    def test_period_scales_with_stage_count(self, free_run):
        """2 N t_pd: a 5-stage ring runs ~5/3 slower than a 3-stage
        ring built from the same devices."""
        __, waveform3 = free_run
        ring5 = build_ring_oscillator(TECH_90NM, n_stages=5)
        waveform5 = simulate_transient(
            ring5.circuit, 3e-9, 2e-12,
            initial_voltages=ring5.initial_voltages(),
            options=TransientOptions(record_every=2))
        period3 = measure_periods(waveform3, "n0", 0.5 * TECH_90NM.vdd
                                  ).mean()
        period5 = measure_periods(waveform5, "n0", 0.5 * TECH_90NM.vdd
                                  ).mean()
        assert period5 / period3 == pytest.approx(5.0 / 3.0, rel=0.15)

    def test_measure_periods_needs_oscillation(self):
        times = np.linspace(0.0, 1e-9, 100)
        flat = Waveform(times, {"x": np.zeros_like(times)})
        with pytest.raises(SimulationError):
            measure_periods(flat, "x", 0.5)


class TestRtnCoupling:
    def test_interface_validation(self, rng):
        ring = build_ring_oscillator(TECH_90NM)
        trap = Trap(y_tr=0.4e-9, e_tr=1.0)
        with pytest.raises(SimulationError):
            run_ring_with_rtn(ring, trap, stage=7, rng=rng, t_stop=1e-9,
                              dt=2e-12)
        with pytest.raises(SimulationError):
            run_ring_with_rtn(ring, trap, stage=0, rng=rng, t_stop=1e-9,
                              dt=2e-12, rtn_scale=-1.0)

    def test_filled_trap_slows_the_ring(self):
        """The paper's future-work #4 claim, made concrete: the period
        is longer while the pull-down's trap is filled."""
        ring = build_ring_oscillator(TECH_90NM)
        y = 0.35e-9  # dwells of a few ns vs a ~130 ps period
        trap = Trap(y_tr=y,
                    e_tr=crossing_energy(0.5, y, TECH_90NM))
        # Seed pinned so the trap visits both states in the window.
        result = run_ring_with_rtn(ring, trap, stage=0,
                                   rng=np.random.default_rng(5),
                                   t_stop=6e-9, dt=3e-12,
                                   rtn_scale=150.0, record_every=2)
        assert result.periods.size > 20
        assert result.occupancy.n_transitions >= 1
        assert result.period_when_filled > result.period_when_empty
        # The modulation is percent-level at this acceleration.
        ratio = result.period_when_filled / result.period_when_empty
        assert 1.001 < ratio < 1.2

    def test_source_removed_after_run(self, rng):
        ring = build_ring_oscillator(TECH_90NM)
        before = len(ring.circuit.elements)
        trap = Trap(y_tr=0.35e-9,
                    e_tr=crossing_energy(0.5, 0.35e-9, TECH_90NM))
        run_ring_with_rtn(ring, trap, stage=1, rng=rng, t_stop=2e-9,
                          dt=4e-12, record_every=4)
        assert len(ring.circuit.elements) == before


class TestCheckpointFingerprint:
    """A resume into a sweep over different rings must refuse the
    checkpoint instead of returning the old periods."""

    CONFIG = RingPeriodSweepConfig(stage_counts=(3,), t_stop=1e-9)

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("ring")
        run_scenario("oscillators.ring", self.CONFIG,
                     checkpoint_dir=directory)
        return directory

    def test_resume_with_the_same_config_is_accepted(self, checkpoint):
        resumed = run_scenario("oscillators.ring", self.CONFIG,
                               checkpoint_dir=checkpoint, resume=True)
        assert resumed.resumed == [0]

    @pytest.mark.parametrize("change", [
        {"load_capacitance": 3e-15},
        {"technology": dataclasses.replace(TECH_90NM, temperature=350.0)},
        {"record_every": 1},
        {"stage": 1},
        {"rtn_scale": 2.0},
    ], ids=["load_capacitance", "technology", "record_every", "stage",
            "rtn_scale"])
    def test_resume_rejects_a_changed_input(self, checkpoint, change):
        with pytest.raises(ValueError, match="different run"):
            run_scenario("oscillators.ring",
                         dataclasses.replace(self.CONFIG, **change),
                         checkpoint_dir=checkpoint, resume=True)
