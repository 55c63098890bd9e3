"""Tests for the per-device RTN generator (integration of traps+markov+rtn)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.ekv import saturation_current
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.errors import SimulationError
from repro.markov.propensity import SampledTwoStatePropensity
from repro.markov.uniformization import simulate_trap
from repro.rtn.current import HungModel, VanDerZielModel
from repro.rtn.generator import generate_constant_bias_rtn, generate_device_rtn
from repro.traps import band
from repro.traps.band import crossing_energy
from repro.traps.profiling import TrapProfiler
from repro.traps.propensity import (
    equilibrium_occupancy,
    propensity_sum,
    rates_from_bias,
)
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1

NMOS = MosfetParams.nominal(TECH_90NM, "n")


def midpoint_trap(v_cross: float = 0.6, y_tr: float = 1.35e-9) -> Trap:
    """A trap that sits at the Fermi level at bias ``v_cross``."""
    return Trap(y_tr=y_tr, e_tr=crossing_energy(v_cross, y_tr, TECH_90NM))


class TestInterface:
    def test_rejects_bad_grid(self, rng):
        with pytest.raises(SimulationError):
            generate_device_rtn(NMOS, [], np.array([0.0]), np.array([0.0]),
                                np.array([0.0]), rng)
        times = np.array([0.0, np.nan, 2e-9])
        for traps in ([], [midpoint_trap()]):
            with pytest.raises(SimulationError):
                generate_device_rtn(NMOS, traps, times, np.ones(3),
                                    np.ones(3) * 1e-4, rng)

    def test_rejects_shape_mismatch(self, rng):
        times = np.linspace(0, 1e-6, 10)
        with pytest.raises(SimulationError):
            generate_device_rtn(NMOS, [], times, np.ones(9), np.ones(10), rng)

    def test_rejects_initial_state_mismatch(self, rng):
        times = np.linspace(0, 1e-6, 10)
        with pytest.raises(SimulationError):
            generate_device_rtn(NMOS, [midpoint_trap()], times, np.ones(10),
                                np.ones(10) * 1e-4, rng, initial_states=[0, 1])

    def test_empty_population_gives_zero_trace(self, rng):
        times = np.linspace(0, 1e-6, 64)
        result = generate_device_rtn(NMOS, [], times, np.ones(64),
                                     np.ones(64) * 1e-4, rng)
        assert result.trace.peak() == 0.0
        assert result.total_transitions == 0
        assert result.n_filled.tolist() == [0.0] * 64

    def test_constant_bias_wrapper_validation(self, rng):
        for t_stop in (-1.0, np.nan, np.inf):
            with pytest.raises(SimulationError):
                generate_constant_bias_rtn(NMOS, [], 1.0, 1e-4, t_stop, rng)
        with pytest.raises(SimulationError):
            generate_constant_bias_rtn(NMOS, [], 1.0, 1e-4, 1.0, rng,
                                       n_samples=1)

    def test_labels_propagate(self, rng):
        result = generate_constant_bias_rtn(NMOS, [], 1.0, 1e-4, 1e-6, rng,
                                            n_samples=16, label="M2")
        assert result.trace.label == "M2"


class TestStationaryBehaviour:
    def test_occupancy_matches_equilibrium(self, rng):
        trap = midpoint_trap(v_cross=0.6)
        lam_c, lam_e = rates_from_bias(0.6, trap, TECH_90NM)
        total = propensity_sum(trap, TECH_90NM)
        t_stop = 3000.0 / total  # thousands of expected transitions
        result = generate_constant_bias_rtn(NMOS, [trap], 0.6, 1e-4, t_stop,
                                            rng, n_samples=20000)
        occ = result.occupancies[0]
        assert occ.fraction_filled() == pytest.approx(
            lam_c / (lam_c + lam_e), abs=0.05)

    def test_trace_is_two_level(self, rng):
        """A single trap at constant bias yields a two-level current."""
        trap = midpoint_trap()
        result = generate_constant_bias_rtn(NMOS, [trap], 0.6, 1e-4,
                                            2000.0 / propensity_sum(trap, TECH_90NM),
                                            rng, n_samples=8192)
        levels = np.unique(result.trace.current)
        assert levels.size == 2
        assert levels[0] == 0.0
        assert levels[1] > 0.0

    def test_multi_trap_superposition(self, rng):
        """N traps at identical amplitude give N+1 current levels."""
        traps = [midpoint_trap(0.6, 1.35e-9), midpoint_trap(0.6, 1.35e-9)]
        t_stop = 2000.0 / propensity_sum(traps[0], TECH_90NM)
        result = generate_constant_bias_rtn(NMOS, traps, 0.6, 1e-4, t_stop,
                                            rng, n_samples=8192)
        assert len(result.occupancies) == 2
        assert np.max(result.n_filled) <= 2.0
        levels = np.unique(result.trace.current)
        assert 2 <= levels.size <= 3

    def test_hung_model_amplifies(self, rng_factory):
        trap = midpoint_trap()
        t_stop = 500.0 / propensity_sum(trap, TECH_90NM)
        vdz = generate_constant_bias_rtn(
            NMOS, [trap], 0.8, 1e-4, t_stop, rng_factory(3),
            model=VanDerZielModel())
        hung = generate_constant_bias_rtn(
            NMOS, [trap], 0.8, 1e-4, t_stop, rng_factory(3),
            model=HungModel())
        # Same seed => same occupancy; only the amplitude differs.
        assert hung.trace.peak() > vdz.trace.peak()

    def test_reproducible(self, rng_factory):
        trap = midpoint_trap()
        t_stop = 200.0 / propensity_sum(trap, TECH_90NM)
        a = generate_constant_bias_rtn(NMOS, [trap], 0.6, 1e-4, t_stop,
                                       rng_factory(9))
        b = generate_constant_bias_rtn(NMOS, [trap], 0.6, 1e-4, t_stop,
                                       rng_factory(9))
        assert np.array_equal(a.trace.current, b.trace.current)


class TestNonStationaryBehaviour:
    def test_occupancy_follows_gate_waveform(self, rng):
        """The Fig. 8(b)/(c) effect: trap activity tracks the gate."""
        trap = midpoint_trap(v_cross=0.5)
        total = propensity_sum(trap, TECH_90NM)
        period = 200.0 / total
        times = np.linspace(0.0, period, 4000)
        # First half: gate high (trap wants to fill); second half: low.
        v_gs = np.where(times < period / 2, 1.0, 0.0)
        i_d = np.abs(saturation_current(NMOS, 1.0)) * np.ones_like(times)
        result = generate_device_rtn(NMOS, [trap], times, v_gs, i_d, rng)
        half = times.size // 2
        filled_high = result.n_filled[:half].mean()
        filled_low = result.n_filled[half + 200:].mean()
        assert filled_high > 0.7
        assert filled_low < 0.3

    def test_rtn_current_gated_by_drain_current(self, rng):
        """Even a toggling trap produces no noise when I_d = 0 (Eq. 3)."""
        trap = midpoint_trap(v_cross=1.0)  # toggles at v_gs = 1.0
        total = propensity_sum(trap, TECH_90NM)
        times = np.linspace(0.0, 100.0 / total, 2000)
        v_gs = np.full_like(times, 1.0)
        i_d = np.zeros_like(times)
        result = generate_device_rtn(NMOS, [trap], times, v_gs, i_d, rng)
        assert result.trace.peak() == 0.0
        assert result.total_transitions > 0  # traps still toggle

    def test_explicit_initial_states(self, rng):
        trap = midpoint_trap()
        times = np.linspace(0.0, 1e-9, 8)  # too short for transitions
        v = np.full(8, 0.6)
        i = np.full(8, 1e-4)
        filled = generate_device_rtn(NMOS, [trap], times, v, i, rng,
                                     initial_states=[1])
        empty = generate_device_rtn(NMOS, [trap], times, v, i, rng,
                                    initial_states=[0])
        assert filled.n_filled[0] == 1.0
        assert empty.n_filled[0] == 0.0


def per_trap_reference(traps, times, v_gs, rng):
    """The per-trap step 2 the generator replaced: each trap's own rates
    (``rates_from_bias``) and equilibrium, then the scalar kernel trap by
    trap.  Kept here as the reference for the generator's stream."""
    tech = NMOS.technology
    states = [int(rng.random() < equilibrium_occupancy(float(v_gs[0]), trap,
                                                       tech))
              for trap in traps]
    occupancies = []
    for trap, state in zip(traps, states):
        lam_c, lam_e = rates_from_bias(v_gs, trap, tech)
        propensity = SampledTwoStatePropensity(
            times=times, capture_values=lam_c, emission_values=lam_e)
        occupancies.append(simulate_trap(propensity, float(times[0]),
                                         float(times[-1]), rng,
                                         initial_state=state))
    return occupancies


def pulsed_population(seed: int):
    """A sampled 40-trap population under a pulsed gate drive."""
    traps = TrapProfiler(TECH_90NM).sample_fixed_count(
        np.random.default_rng(seed), 40)
    times = np.linspace(0.0, 2e-6, 801)
    v_gs = np.where((times // 2.5e-7) % 2 == 0, TECH_90NM.vdd, 0.1)
    return traps, times, v_gs, np.full_like(times, 1e-4)


class TestOneRateTablePerDevice:
    def test_one_surface_potential_solve_per_table(self, rng, monkeypatch):
        """Every trap shares psi_s(V_gs): the rate table and the initial
        equilibrium solve it once each, not once per trap."""
        calls = []
        solve = band.surface_potential

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(band, "surface_potential", counting)
        traps, times, v_gs, i_d = pulsed_population(0)
        generate_device_rtn(NMOS, traps, times, v_gs, i_d, rng)
        assert len(traps) == 40
        assert 1 <= len(calls) <= 2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stream_matches_the_per_trap_path(self, rng_factory, seed):
        """Same draws as building each trap's rates on its own: rates
        differ by ulps only, so states and counts are equal and every
        transition time agrees to rounding."""
        traps, times, v_gs, i_d = pulsed_population(seed)
        result = generate_device_rtn(NMOS, traps, times, v_gs, i_d,
                                     rng_factory(seed))
        reference = per_trap_reference(traps, times, v_gs, rng_factory(seed))
        assert result.total_transitions > 0
        for got, want in zip(result.occupancies, reference, strict=True):
            assert got.initial_state == want.initial_state
            assert got.n_transitions == want.n_transitions
            np.testing.assert_allclose(got.transition_times(),
                                       want.transition_times(), rtol=1e-12)
