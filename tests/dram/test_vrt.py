"""Tests for the DRAM VRT extension (paper future-work #4)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.scenario import get_scenario, run_scenario
from repro.devices.technology import TECH_22NM, TECH_90NM
from repro.dram.cell import (
    DramCellSpec,
    RetentionModel,
    RetentionScanConfig,
    _decay,
    _leakage,
    default_vrt_cell,
    retention_distribution,
    simulate_retention,
    vrt_levels,
)
from repro.errors import ModelError, SimulationError
from repro.traps.band import crossing_energy
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


def slow_defect(spec: DramCellSpec) -> Trap:
    """A defect toggling a few times per retention window."""
    slow, __ = vrt_levels(spec)
    target_rate = 1.0 / (3.0 * slow)
    tech = spec.technology
    y = np.log(1.0 / (tech.tau0 * 2.0 * target_rate)) / tech.gamma_tunnel
    y = min(y, 0.95 * tech.t_ox)
    return Trap(y_tr=y, e_tr=crossing_energy(0.0, y, tech))


def _integrate_crossing(spec: DramCellSpec, segments) -> float:
    """Reference: integrate ``dV/dt = -m I_leak(V) / C`` over
    ``(t_lo, t_hi, m)`` segments; the threshold crossing or ``inf``."""
    from scipy.integrate import solve_ivp

    def crossing(t, y):
        return y[0] - spec.threshold
    crossing.terminal = True
    v = spec.stored_level
    for t_lo, t_hi, m in segments:
        solution = solve_ivp(
            lambda t, y: [-m * _leakage(spec, float(y[0]))
                          / spec.storage_capacitance],
            (t_lo, t_hi), [v], events=crossing, rtol=1e-10, atol=1e-14)
        if solution.t_events[0].size:
            return float(solution.t_events[0][0])
        v = float(solution.y[0][-1])
    return float("inf")


class TestSpec:
    def test_validation(self):
        with pytest.raises(SimulationError):
            DramCellSpec(storage_capacitance=0.0)
        with pytest.raises(SimulationError):
            DramCellSpec(leakage_factor=0.5)
        # The bit is lost at t = 0 at or above the stored level, and
        # never at or below 0 V.
        stored = DramCellSpec().stored_level
        for threshold in (1.2 * stored, stored, 0.0, -0.1):
            with pytest.raises(SimulationError, match="sense_threshold"):
                DramCellSpec(sense_threshold=threshold)

    def test_defaults(self):
        spec = DramCellSpec()
        assert spec.stored_level == pytest.approx(0.8 * TECH_90NM.vdd)
        assert spec.threshold == pytest.approx(0.5 * spec.stored_level)


class TestVrtLevels:
    def test_factor_sets_ratio(self):
        spec = DramCellSpec(leakage_factor=3.0)
        slow, fast = vrt_levels(spec)
        assert slow > fast > 0.0
        assert slow / fast == pytest.approx(3.0, rel=0.05)

    def test_fast_level_is_the_time_changed_slow_level(self):
        """Integrating the decay with the leakage scaled by the factor
        crosses at ``slow / factor``: the factor is a change of clock."""
        spec = DramCellSpec(leakage_factor=3.0)
        slow, fast = vrt_levels(spec)
        assert fast == slow / 3.0
        assert _integrate_crossing(spec, [(0.0, 1.0, 3.0)]) \
            == pytest.approx(fast, rel=1e-6)

    def test_unity_factor_degenerate(self):
        slow, fast = vrt_levels(DramCellSpec(leakage_factor=1.0))
        assert slow == pytest.approx(fast)

    def test_bigger_capacitor_retains_longer(self):
        small, __ = vrt_levels(DramCellSpec(storage_capacitance=10e-15))
        large, __ = vrt_levels(DramCellSpec(storage_capacitance=50e-15))
        assert large > 4 * small


#: The default cell and one changed input each.
DECAY_SPECS = [DramCellSpec(), DramCellSpec(storage_capacitance=10e-15),
               DramCellSpec(v_write=0.9), DramCellSpec(sense_threshold=0.3)]
DECAY_IDS = ["default", "storage_capacitance", "v_write", "sense_threshold"]


class TestDecayQuadrature:
    """``T_slow`` and ``V0`` come from a quadrature of ``dt = -C dV / I``;
    SciPy's adaptive quadrature and a tight ODE solve are the oracles."""

    @pytest.mark.parametrize("spec", DECAY_SPECS, ids=DECAY_IDS)
    def test_slow_level_matches_adaptive_quadrature(self, spec):
        from scipy.integrate import quad

        integral, __ = quad(lambda v: 1.0 / _leakage(spec, v),
                            spec.threshold, spec.stored_level,
                            epsabs=0.0, epsrel=1e-13)
        slow, __ = _decay(spec)
        assert slow == pytest.approx(spec.storage_capacitance * integral,
                                     rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec", DECAY_SPECS, ids=DECAY_IDS)
    def test_voltage_matches_a_tight_ode_solve(self, spec):
        from scipy.integrate import solve_ivp

        slow, decay = _decay(spec)
        tau = np.linspace(0.0, slow, 129)
        voltage = decay(tau)
        assert voltage[0] == spec.stored_level
        assert voltage[-1] == spec.threshold
        assert np.all(np.diff(voltage) < 0.0)
        reference = solve_ivp(
            lambda t, y: [-_leakage(spec, y[0]) / spec.storage_capacitance],
            (0.0, slow), [spec.stored_level], t_eval=tau, rtol=1e-12,
            atol=1e-15).y[0]
        assert np.abs(voltage - reference).max() <= 1e-8

    def test_a_cell_that_never_discharges_is_refused(self):
        spec = DramCellSpec(storage_capacitance=1e-9)
        with pytest.raises(SimulationError, match="never discharged"):
            vrt_levels(spec)
        with pytest.raises(SimulationError, match="never discharged"):
            RetentionModel.build(spec, slow_defect(DramCellSpec()))


class TestSenseThreshold:
    def test_higher_threshold_shortens_retention(self):
        """Behavioural: raising the sense threshold trips the loss
        earlier on the same decay curve."""
        spec = DramCellSpec()
        strict = DramCellSpec(
            sense_threshold=0.75 * spec.stored_level)
        slow_default, __ = vrt_levels(spec)
        slow_strict, __ = vrt_levels(strict)
        assert slow_strict < 0.8 * slow_default


class TestRetentionTrial:
    def test_interface(self, rng):
        spec = DramCellSpec()
        trap = slow_defect(spec)
        with pytest.raises(SimulationError):
            simulate_retention(RetentionModel.build(spec, trap), rng,
                               t_max=0.0)

    def test_decay_is_monotone(self, rng):
        spec = DramCellSpec()
        trap = slow_defect(spec)
        slow, __ = vrt_levels(spec)
        result = simulate_retention(RetentionModel.build(spec, trap), rng,
                                    t_max=2 * slow)
        assert np.all(np.diff(result.voltage) <= 1e-12)
        assert result.voltage[0] == pytest.approx(spec.stored_level)

    def test_pinned_states_bracket_retention(self, rng):
        spec = DramCellSpec()
        trap = slow_defect(spec)
        slow, fast = vrt_levels(spec)
        result = simulate_retention(RetentionModel.build(spec, trap), rng,
                                    t_max=2 * slow)
        assert fast * 0.95 <= result.retention_time <= slow * 1.05

    def test_survives_when_window_short(self, rng):
        spec = DramCellSpec()
        trap = slow_defect(spec)
        __, fast = vrt_levels(spec)
        result = simulate_retention(RetentionModel.build(spec, trap), rng,
                                    t_max=0.1 * fast)
        assert result.retention_time == float("inf")

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_segment_by_segment_integration(self, seed,
                                                        rng_factory):
        """The time change reproduces the piecewise ODE along the same
        occupancy trace."""
        spec, trap = default_vrt_cell()
        slow, __ = vrt_levels(spec)
        result = simulate_retention(RetentionModel.build(spec, trap),
                                    rng_factory(seed), t_max=1.5 * slow)
        trace = result.occupancy
        segments = [(trace.times[k], trace.times[k + 1],
                     spec.leakage_factor if trace.states[k] else 1.0)
                    for k in range(trace.states.size)]
        assert result.retention_time == pytest.approx(
            _integrate_crossing(spec, segments), rel=1e-6)

    def test_frozen_states_hit_the_levels(self, rng_factory):
        """With the defect pinned (enormous asymmetry), each trial sits
        on its frozen-state retention level."""
        spec = DramCellSpec()
        tech = spec.technology
        slow, fast = vrt_levels(spec)
        y = slow_defect(spec).y_tr
        always_empty = Trap(y_tr=y,
                            e_tr=crossing_energy(0.0, y, tech) + 0.4)
        always_filled = Trap(y_tr=y,
                             e_tr=crossing_energy(0.0, y, tech) - 0.4)
        r_empty = simulate_retention(
            RetentionModel.build(spec, always_empty), rng_factory(1),
            t_max=2 * slow)
        r_filled = simulate_retention(
            RetentionModel.build(spec, always_filled), rng_factory(2),
            t_max=2 * slow)
        assert r_empty.retention_time == pytest.approx(slow, rel=0.02)
        assert r_filled.retention_time == pytest.approx(fast, rel=0.02)


class TestVrtDistribution:
    def test_bimodal_signature(self, rng):
        """The VRT claim: repeated measurements of one cell cluster at
        two discrete retention levels."""
        spec = DramCellSpec(leakage_factor=3.0)
        trap = slow_defect(spec)
        slow, fast = vrt_levels(spec)
        times = retention_distribution(spec, trap, rng, 30,
                                       t_max=3 * slow)
        assert np.all(np.isfinite(times))
        near_fast = np.abs(times - fast) < 0.1 * fast
        near_slow = np.abs(times - slow) < 0.1 * slow
        # Both levels visited, and most trials sit *on* a level.
        assert near_fast.sum() >= 5
        assert near_slow.sum() >= 5
        assert (near_fast | near_slow).mean() > 0.5

    def test_no_defect_modulation_no_vrt(self, rng):
        """leakage_factor = 1: the distribution collapses to one value."""
        spec = DramCellSpec(leakage_factor=1.0)
        trap = slow_defect(DramCellSpec())
        slow, __ = vrt_levels(spec)
        times = retention_distribution(spec, trap, rng, 10, t_max=2 * slow)
        assert np.ptp(times) < 1e-3 * times.mean()

    def test_validation(self, rng):
        with pytest.raises(SimulationError):
            retention_distribution(DramCellSpec(), slow_defect(
                DramCellSpec()), rng, 0)


def _changed_spec(**changes):
    def change(config):
        return dataclasses.replace(
            config, spec=dataclasses.replace(config.spec, **changes))
    return change


class TestCheckpointFingerprint:
    """A resume into a scan with a different cell or defect must refuse
    the checkpoint instead of mixing its retention times in."""

    @pytest.mark.parametrize("change", [
        _changed_spec(storage_capacitance=30e-15),
        _changed_spec(v_write=0.9),
        _changed_spec(sense_threshold=0.3),
        _changed_spec(technology=dataclasses.replace(TECH_90NM,
                                                     temperature=350.0)),
        lambda config: dataclasses.replace(
            config, trap=dataclasses.replace(config.trap, degeneracy=2.0)),
    ], ids=["storage_capacitance", "v_write", "sense_threshold",
            "technology", "degeneracy"])
    def test_resume_rejects_a_changed_input(self, tmp_path, change):
        spec, trap = default_vrt_cell()
        config = RetentionScanConfig(spec=spec, trap=trap, n_trials=2,
                                     t_max=1e-4)
        run_scenario("dram.retention", config, seed=3,
                     checkpoint_dir=tmp_path)
        resumed = run_scenario("dram.retention", config, seed=3,
                               checkpoint_dir=tmp_path, resume=True)
        assert sorted(resumed.resumed) == [0, 1]
        with pytest.raises(ValueError, match="different run"):
            run_scenario("dram.retention", change(config), seed=3,
                         checkpoint_dir=tmp_path, resume=True)


class TestScanConfig:
    @pytest.mark.parametrize("t_max", [0.0, -1e-4, float("nan"),
                                       float("inf")])
    def test_window_must_be_positive_and_finite(self, t_max):
        spec, trap = default_vrt_cell()
        with pytest.raises(SimulationError, match="t_max"):
            RetentionScanConfig(spec=spec, trap=trap, n_trials=4,
                                t_max=t_max)

    def test_plan_refuses_a_trap_deeper_than_the_oxide(self):
        """The default trap sits in the 90 nm oxide; the 22 nm oxide is
        thinner, so the per-scan rates cannot be built."""
        spec, trap = default_vrt_cell()
        config = RetentionScanConfig(
            spec=dataclasses.replace(spec, technology=TECH_22NM),
            trap=trap, n_trials=2, t_max=1e-4)
        with pytest.raises(ModelError):
            get_scenario("dram.retention").plan(config)
