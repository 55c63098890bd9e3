"""Tests for the PLL cycle-slipping model (the paper's conjecture)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.scenario import run_scenario
from repro.devices.technology import TECH_90NM
from repro.errors import SimulationError
from repro.oscillators.pll import (
    PllSpec,
    pull_out_frequency,
    simulate_pll_with_rtn,
)
from repro.oscillators.sweeps import PllPulloutSweepConfig
from repro.traps.band import crossing_energy
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


def loop() -> PllSpec:
    return PllSpec()


def vco_trap() -> Trap:
    """A trap toggling ~1e6/s, crossing near the VCO devices' mid bias."""
    tech = TECH_90NM
    y = np.log(1.0 / (tech.tau0 * 2e6)) / tech.gamma_tunnel
    return Trap(y_tr=y, e_tr=crossing_energy(0.45, y, tech))


class TestSpec:
    def test_validation(self):
        with pytest.raises(SimulationError):
            PllSpec(f_ref=0.0)
        with pytest.raises(SimulationError):
            PllSpec(c1=-1.0)

    def test_loop_constants(self):
        spec = loop()
        assert spec.natural_frequency > 0.0
        assert 0.5 < spec.damping < 5.0  # sensible default loop


class TestPullOut:
    def test_measured_threshold_is_consistent(self):
        """Steps below the measured pull-out never slip; steps well
        above it always do."""
        spec = loop()
        po = pull_out_frequency(spec)
        assert po > 0.0
        from repro.oscillators.pll import _step_response_peak
        assert _step_response_peak(spec, 0.8 * po) < 2 * np.pi
        assert _step_response_peak(spec, 1.3 * po) >= 2 * np.pi


class TestPullOutScaling:
    def test_pull_out_tracks_loop_bandwidth(self):
        """A stiffer loop (4x charge-pump current: 2x natural frequency
        AND 2x damping) absorbs at least proportionally larger
        frequency steps — super-linear in the bandwidth because the
        extra damping also trims the transient peak."""
        base = loop()
        stiff = PllSpec(i_cp=4.0 * base.i_cp)
        assert stiff.natural_frequency == pytest.approx(
            2.0 * base.natural_frequency, rel=1e-9)
        assert stiff.damping == pytest.approx(2.0 * base.damping,
                                              rel=1e-9)
        ratio = pull_out_frequency(stiff) / pull_out_frequency(base)
        assert 2.0 < ratio < 8.0


class TestRtnDrivenLoop:
    def test_interface(self, rng):
        with pytest.raises(SimulationError):
            simulate_pll_with_rtn(loop(), vco_trap(), TECH_90NM, rng,
                                  t_stop=0.0, dt=1e-9, delta_f=1e6)

    def test_small_rtn_is_absorbed(self, rng):
        """Below pull-out: no slips; the RTN reappears as a telegraph
        wave on the control voltage instead."""
        spec = loop()
        po = pull_out_frequency(spec)
        dt = 0.02 / spec.natural_frequency
        result = simulate_pll_with_rtn(spec, vco_trap(), TECH_90NM, rng,
                                       2e-5, dt, delta_f=0.3 * po)
        assert result.n_slips == 0
        assert result.occupancy.n_transitions > 3
        # Control voltage carries the two levels: ~0 and ~-delta_f/Kvco.
        expected_step = 0.3 * po / spec.k_vco
        v = result.control_voltage
        assert v.min() < -0.6 * expected_step
        assert v.max() > -0.4 * expected_step

    def test_large_rtn_causes_cycle_slips(self, rng):
        """The conjecture: frequency steps beyond pull-out slip cycles."""
        spec = loop()
        po = pull_out_frequency(spec)
        dt = 0.02 / spec.natural_frequency
        result = simulate_pll_with_rtn(spec, vco_trap(), TECH_90NM, rng,
                                       2e-5, dt, delta_f=3.0 * po)
        assert result.n_slips > 0
        assert result.occupancy.n_transitions > 0

    def test_slips_grow_with_rtn_amplitude(self, rng_factory):
        spec = loop()
        po = pull_out_frequency(spec)
        dt = 0.02 / spec.natural_frequency
        counts = []
        for factor in (2.0, 4.0, 8.0):
            result = simulate_pll_with_rtn(
                spec, vco_trap(), TECH_90NM, rng_factory(3), 2e-5, dt,
                delta_f=factor * po)
            counts.append(result.n_slips)
        assert counts[0] < counts[1] < counts[2]

    def test_no_modulation_no_slips(self, rng):
        spec = loop()
        dt = 0.02 / spec.natural_frequency
        result = simulate_pll_with_rtn(spec, vco_trap(), TECH_90NM, rng,
                                       1e-5, dt, delta_f=0.0)
        assert result.n_slips == 0
        assert np.abs(result.phase_error).max() < 1e-9


class TestCheckpointFingerprint:
    """A resume into a sweep over different loops must refuse the
    checkpoint instead of returning the old pull-out frequencies."""

    @pytest.mark.parametrize("change", [
        {"specs": (PllSpec(r1=6e3), PllSpec(c1=100e-12))},
        {"specs": (PllSpec(), PllSpec(c1=200e-12))},
        {"specs": (PllSpec(), PllSpec(c1=100e-12, i_cp=50e-6))},
    ], ids=["r1", "c1", "i_cp"])
    def test_resume_rejects_a_changed_input(self, tmp_path, change):
        config = PllPulloutSweepConfig(
            specs=(PllSpec(), PllSpec(c1=100e-12)))
        run_scenario("oscillators.pll", config, checkpoint_dir=tmp_path)
        resumed = run_scenario("oscillators.pll", config,
                               checkpoint_dir=tmp_path, resume=True)
        assert sorted(resumed.resumed) == [0, 1]
        with pytest.raises(ValueError, match="different run"):
            run_scenario("oscillators.pll",
                         dataclasses.replace(config, **change),
                         checkpoint_dir=tmp_path, resume=True)
