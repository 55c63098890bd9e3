"""Tests for the statistical trap profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_22NM, TECH_90NM, TECH_180NM
from repro.errors import ModelError
from repro.traps.band import crossing_energy
from repro.traps.profiling import TrapProfiler
from repro.traps.propensity import (
    draw_initial_states,
    equilibrium_occupancy_population,
    propensity_sum,
)
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


class TestValidation:
    def test_rejects_bad_margin(self):
        with pytest.raises(ModelError):
            TrapProfiler(TECH_90NM, energy_margin=-0.1)

    def test_rejects_bad_depth_fraction(self):
        with pytest.raises(ModelError):
            TrapProfiler(TECH_90NM, depth_fraction_min=0.0)
        with pytest.raises(ModelError):
            TrapProfiler(TECH_90NM, depth_fraction_min=1.0)

    def test_rejects_bad_max_rate(self):
        with pytest.raises(ModelError):
            TrapProfiler(TECH_90NM, max_rate=0.0)

    def test_rejects_negative_count(self, rng):
        with pytest.raises(ModelError):
            TrapProfiler(TECH_90NM).sample_fixed_count(rng, -1)

    def test_infeasible_depth_constraints(self):
        profiler = TrapProfiler(TECH_90NM, max_rate=1e-3)
        with pytest.raises(ModelError):
            profiler.depth_bounds()


class TestSampling:
    def test_poisson_mean_tracks_density(self, rng):
        profiler = TrapProfiler(TECH_180NM)
        nominal = MosfetParams.nominal(TECH_180NM)
        counts = [len(profiler.sample(rng, nominal.width, nominal.length))
                  for _ in range(20)]
        expected = profiler.expected_count(nominal.width, nominal.length)
        assert np.mean(counts) == pytest.approx(expected, rel=0.1)

    def test_scaled_node_has_few_traps(self, rng):
        profiler = TrapProfiler(TECH_22NM)
        nominal = MosfetParams.nominal(TECH_22NM)
        counts = [len(profiler.sample(rng, nominal.width, nominal.length))
                  for _ in range(50)]
        assert np.mean(counts) < 10.0  # "only about 5-10 traps are active"

    def test_depths_within_bounds(self, rng):
        profiler = TrapProfiler(TECH_90NM)
        traps = profiler.sample_fixed_count(rng, 200)
        y_min, y_max = profiler.depth_bounds()
        for trap in traps:
            assert y_min <= trap.y_tr <= y_max

    def test_energies_within_active_window(self, rng):
        profiler = TrapProfiler(TECH_90NM)
        traps = profiler.sample_fixed_count(rng, 100)
        for trap in traps:
            e_lo, e_hi = profiler.energy_bounds(trap.y_tr)
            assert e_lo <= trap.e_tr <= e_hi

    def test_max_rate_cap_enforced(self, rng):
        profiler = TrapProfiler(TECH_90NM, max_rate=1e6)
        traps = profiler.sample_fixed_count(rng, 100)
        for trap in traps:
            assert propensity_sum(trap, TECH_90NM) <= 1e6 * (1 + 1e-9)

    def test_labels(self, rng):
        traps = TrapProfiler(TECH_90NM).sample_fixed_count(
            rng, 3, label_prefix="m1_t")
        assert [t.label for t in traps] == ["m1_t0", "m1_t1", "m1_t2"]

    def test_reproducible(self, rng_factory):
        profiler = TrapProfiler(TECH_90NM)
        a = profiler.sample(rng_factory(5), 2e-7, 1e-7)
        b = profiler.sample(rng_factory(5), 2e-7, 1e-7)
        assert [(t.y_tr, t.e_tr) for t in a] == [(t.y_tr, t.e_tr) for t in b]

    def test_time_constants_span_decades(self, rng):
        """Uniform depth must spread propensity sums over many decades
        (the precondition for 1/f superposition in Fig. 3 left)."""
        profiler = TrapProfiler(TECH_180NM)
        traps = profiler.sample_fixed_count(rng, 500)
        rates = np.array([propensity_sum(t, TECH_180NM) for t in traps])
        assert np.log10(rates.max() / rates.min()) > 6.0


def scalar_loop_sample(profiler: TrapProfiler, rng: np.random.Generator,
                       count: int, label_prefix: str = "trap") -> list:
    """The per-trap reference: one rng.uniform for the depth, one for the
    energy, trap after trap."""
    y_min, y_max = profiler.depth_bounds()
    traps = []
    for index in range(count):
        y_tr = float(rng.uniform(y_min, y_max))
        e_low, e_high = profiler.energy_bounds(y_tr)
        e_tr = float(rng.uniform(e_low, e_high))
        traps.append(Trap(y_tr=y_tr, e_tr=e_tr,
                          label=f"{label_prefix}{index}"))
    return traps


class TestFixedCountMatchesScalarLoop:
    """The one-call draw is bit-identical to the scalar loop, and leaves
    the generator in the same state, so every later draw of a seeded run
    (initial states, trap dynamics) is unchanged too."""

    @pytest.mark.parametrize("max_rate", [None, 1e6])
    @pytest.mark.parametrize("count", [0, 1, 7, 200])
    def test_traps_and_generator_state(self, count, max_rate):
        profiler = TrapProfiler(TECH_90NM, max_rate=max_rate)
        fast_rng = np.random.default_rng(20110314 + count)
        loop_rng = np.random.default_rng(20110314 + count)
        fast = profiler.sample_fixed_count(fast_rng, count, label_prefix="m3_t")
        loop = scalar_loop_sample(profiler, loop_rng, count, label_prefix="m3_t")
        assert fast == loop
        assert all(type(t.y_tr) is float and type(t.e_tr) is float
                   for t in fast)
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


def _draw_at(traps, v_gs, rng):
    """Initial states drawn from the equilibrium at gate bias ``v_gs``."""
    return draw_initial_states(
        equilibrium_occupancy_population(v_gs, traps, TECH_90NM), rng)


class TestInitialStates:
    def test_low_bias_mostly_empty(self, rng):
        """At v_gs = 0 the sampled population is mostly above E_F."""
        profiler = TrapProfiler(TECH_90NM, energy_margin=0.0)
        traps = profiler.sample_fixed_count(rng, 300)
        states = _draw_at(traps, 0.0, rng)
        assert np.mean(states) < 0.3

    def test_high_bias_mostly_filled(self, rng):
        profiler = TrapProfiler(TECH_90NM, energy_margin=0.0)
        traps = profiler.sample_fixed_count(rng, 300)
        states = _draw_at(traps, TECH_90NM.vdd, rng)
        assert np.mean(states) > 0.7

    def test_states_are_binary(self, rng):
        profiler = TrapProfiler(TECH_90NM)
        traps = profiler.sample_fixed_count(rng, 50)
        states = _draw_at(traps, 0.5, rng)
        assert set(states.tolist()) <= {0, 1}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_bias(self, rng, bad):
        """A NaN bias used to return all-empty states silently."""
        traps = TrapProfiler(TECH_90NM).sample_fixed_count(rng, 20)
        with pytest.raises(ModelError, match="finite"):
            _draw_at(traps, bad, rng)


class TestSummary:
    def test_empty_population(self):
        assert TrapProfiler(TECH_90NM).summarise([])["count"] == 0

    def test_summary_fields(self, rng):
        profiler = TrapProfiler(TECH_90NM)
        traps = profiler.sample_fixed_count(rng, 10)
        summary = profiler.summarise(traps)
        assert summary["count"] == 10
        assert summary["rate_min"] <= summary["rate_max"]
        assert summary["depth_min"] <= summary["depth_max"]


class TestEnergyWindows:
    def test_window_widens_with_margin(self):
        tight = TrapProfiler(TECH_90NM, energy_margin=0.0)
        wide = TrapProfiler(TECH_90NM, energy_margin=0.3)
        lo_t, hi_t = tight.energy_bounds(1.0e-9)
        lo_w, hi_w = wide.energy_bounds(1.0e-9)
        assert lo_w == pytest.approx(lo_t - 0.3)
        assert hi_w == pytest.approx(hi_t + 0.3)

    def test_depth_arrays_of_any_shape(self):
        """Bounds of a depth array are elementwise, whatever its shape
        (a two-row array once unpacked into the two edges)."""
        profiler = TrapProfiler(TECH_90NM)
        depths = np.linspace(0.5e-9, TECH_90NM.t_ox, 6)
        for shape in ((2, 3), (3, 2), (1, 6), (6, 1)):
            lo, hi = profiler.energy_bounds(depths.reshape(shape))
            assert lo.shape == hi.shape == shape
            expected = [profiler.energy_bounds(float(y)) for y in depths]
            assert np.array_equal(lo.ravel(), [e[0] for e in expected])
            assert np.array_equal(hi.ravel(), [e[1] for e in expected])

    def test_window_matches_crossings(self):
        profiler = TrapProfiler(TECH_90NM, energy_margin=0.0)
        y = 1.0e-9
        lo, hi = profiler.energy_bounds(y)
        assert lo == pytest.approx(crossing_energy(0.0, y, TECH_90NM))
        assert hi == pytest.approx(crossing_energy(TECH_90NM.vdd, y, TECH_90NM))
