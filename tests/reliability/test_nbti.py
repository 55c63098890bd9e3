"""Tests for the NBTI/RTN common-root-cause module (paper §I-B obs. 1)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.scenario import run_scenario
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_22NM, TECH_90NM
from repro.errors import ModelError
from repro.reliability.nbti import (
    ReliabilityPopulationConfig,
    correlation,
    nbti_threshold_shift,
    per_trap_threshold_shift,
    rtn_fluctuation,
    sample_reliability_population,
)
from repro.traps.band import crossing_energy
from repro.traps.profiling import TrapProfiler
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1

DEVICE = MosfetParams.nominal(TECH_90NM, "n")


def trap_crossing_at(v: float, y: float = 1.0e-9) -> Trap:
    return Trap(y_tr=y, e_tr=crossing_energy(v, y, TECH_90NM))


class TestPerTrapShift:
    def test_magnitude(self):
        """Sub-millivolt per trap for a 90 nm-class device."""
        shift = per_trap_threshold_shift(DEVICE)
        assert 1e-4 < shift < 2e-3

    def test_grows_under_scaling(self):
        small = per_trap_threshold_shift(MosfetParams.nominal(TECH_22NM,
                                                              "n"))
        assert small > 3 * per_trap_threshold_shift(DEVICE)


class TestNbtiShift:
    def test_zero_without_traps(self):
        assert nbti_threshold_shift(DEVICE, [], 1.0) == 0.0

    def test_mid_gap_trap_contributes_fully(self):
        """A trap empty at use bias and filled at stress bias donates
        ~one full per-trap shift."""
        trap = trap_crossing_at(0.5)
        shift = nbti_threshold_shift(DEVICE, [trap], stress_bias=1.0,
                                     use_bias=0.0)
        assert shift == pytest.approx(per_trap_threshold_shift(DEVICE),
                                      rel=0.05)

    def test_always_filled_trap_contributes_nothing(self):
        """A trap filled at both biases is permanent charge, not NBTI."""
        deep = Trap(y_tr=1.0e-9,
                    e_tr=crossing_energy(0.0, 1.0e-9, TECH_90NM) - 0.4)
        shift = nbti_threshold_shift(DEVICE, [deep], stress_bias=1.0)
        assert shift < 0.05 * per_trap_threshold_shift(DEVICE)

    def test_stress_below_use_rejected(self):
        with pytest.raises(ModelError):
            nbti_threshold_shift(DEVICE, [], stress_bias=0.0, use_bias=0.5)

    def test_monotone_in_stress(self):
        traps = [trap_crossing_at(v) for v in (0.3, 0.5, 0.7, 0.9)]
        shifts = [nbti_threshold_shift(DEVICE, traps, stress)
                  for stress in (0.4, 0.7, 1.0)]
        assert shifts[0] < shifts[1] < shifts[2]


class TestRtnFluctuation:
    def test_zero_without_traps(self):
        assert rtn_fluctuation(DEVICE, [], 0.5) == 0.0

    def test_maximal_at_crossing(self):
        """p(1-p) peaks at p = 1/2: a trap fluctuates hardest when the
        bias sits at its crossing."""
        trap = trap_crossing_at(0.5)
        at_crossing = rtn_fluctuation(DEVICE, [trap], 0.5)
        away = rtn_fluctuation(DEVICE, [trap], 0.9)
        assert at_crossing > 3 * away
        assert at_crossing == pytest.approx(
            0.5 * per_trap_threshold_shift(DEVICE), rel=0.01)

    def test_variance_additivity(self):
        trap = trap_crossing_at(0.5)
        one = rtn_fluctuation(DEVICE, [trap], 0.5)
        four = rtn_fluctuation(DEVICE, [trap] * 4, 0.5)
        assert four == pytest.approx(2.0 * one, rel=1e-6)


class TestRecoverableComponent:
    def test_equal_stress_and_use_bias_means_no_nbti(self):
        """The recoverable shift is an occupancy *difference*: with no
        bias excursion there is nothing to recover."""
        traps = [trap_crossing_at(v) for v in (0.3, 0.5, 0.7)]
        shift = nbti_threshold_shift(DEVICE, traps, stress_bias=0.5,
                                     use_bias=0.5)
        assert shift == pytest.approx(0.0, abs=1e-18)


class TestSeededReproducibility:
    def test_population_replays_from_the_shared_convention(self):
        """Reliability sampling replays bit-for-bit from a derived
        seed, like every other stochastic stage in the library."""
        from repro.testing.seeding import derive_rng

        kwargs = dict(n_devices=20)
        a = sample_reliability_population(
            DEVICE, TrapProfiler(TECH_90NM), derive_rng(9, "nbti"),
            **kwargs)
        b = sample_reliability_population(
            DEVICE, TrapProfiler(TECH_90NM), derive_rng(9, "nbti"),
            **kwargs)
        assert [d.nbti_shift for d in a] == [d.nbti_shift for d in b]
        assert [d.rtn_rms for d in a] == [d.rtn_rms for d in b]


class TestCorrelation:
    def test_population_interface(self, rng):
        with pytest.raises(ModelError):
            sample_reliability_population(DEVICE, TrapProfiler(TECH_90NM),
                                          rng, 0)
        with pytest.raises(ModelError):
            correlation([])

    def test_paper_observation_positive_correlation(self, rng):
        """The §I-B claim from first principles: across sampled devices,
        NBTI shift and RTN fluctuation correlate positively."""
        population = sample_reliability_population(
            DEVICE, TrapProfiler(TECH_90NM), rng, 200)
        r = correlation(population)
        assert r > 0.3

    def test_correlation_not_perfect(self, rng):
        """The metrics weigh the traps differently (occupancy delta vs
        p(1-p)), so the correlation is strong but not 1 — leaving the
        headroom for joint-margin savings the paper points at."""
        population = sample_reliability_population(
            DEVICE, TrapProfiler(TECH_90NM), rng, 200)
        assert correlation(population) < 0.999


class TestCheckpointFingerprint:
    """A resume into a population with a different device, profiler or
    bias must refuse the checkpoint instead of mixing its devices in."""

    @pytest.mark.parametrize("change", [
        {"params": MosfetParams.nominal(
            dataclasses.replace(TECH_90NM, temperature=350.0), "n")},
        {"profiler": TrapProfiler(TECH_90NM, energy_margin=0.2)},
        {"profiler": TrapProfiler(TECH_90NM, max_rate=1e6)},
    ], ids=["technology", "energy_margin", "max_rate"])
    def test_resume_rejects_a_changed_input(self, tmp_path, change):
        config = ReliabilityPopulationConfig(
            params=DEVICE, profiler=TrapProfiler(TECH_90NM), n_devices=2)
        run_scenario("reliability.nbti", config, seed=3,
                     checkpoint_dir=tmp_path)
        resumed = run_scenario("reliability.nbti", config, seed=3,
                               checkpoint_dir=tmp_path, resume=True)
        assert sorted(resumed.resumed) == [0, 1]
        with pytest.raises(ValueError, match="different run"):
            run_scenario("reliability.nbti",
                         dataclasses.replace(config, **change), seed=3,
                         checkpoint_dir=tmp_path, resume=True)
