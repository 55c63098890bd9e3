"""Tests for the Monte-Carlo array analysis (extension E2)."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.experiments import fig8_cell_spec, fig8_pattern
from repro.core.methodology import MethodologyConfig
from repro.core.scenario import run_scenario
from repro.errors import SimulationError
from repro.rtn.current import HungModel
from repro.sram.array import (
    ArrayConfig,
    sample_vt_shifts,
)
from repro.sram.cell import SramCellSpec, TRANSISTOR_NAMES
from repro.sram.detectors import DetectorThresholds
from repro.sram.patterns import write_pattern

pytestmark = pytest.mark.tier1

TINY_PATTERN = write_pattern([1, 0], cycle=5e-9, wl_delay=1e-9,
                             wl_width=2e-9)


def simulate(config: ArrayConfig, rng: np.random.Generator):
    """One seeded ``sram.array`` run, its root seed drawn from ``rng``."""
    return run_scenario("sram.array", config,
                        seed=int(rng.integers(2**63))).value


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            ArrayConfig(n_cells=0, base_spec=SramCellSpec(),
                        pattern=TINY_PATTERN)
        with pytest.raises(SimulationError):
            ArrayConfig(n_cells=1, base_spec=SramCellSpec(),
                        pattern=TINY_PATTERN, avt=-1.0)


class TestVtSampling:
    def test_all_transistors_sampled(self, rng):
        shifts = sample_vt_shifts(rng, SramCellSpec(), avt=2.5e-9)
        assert set(shifts) == set(TRANSISTOR_NAMES)

    def test_pelgrom_scaling(self, rng):
        """Smaller devices get wider VT spread (Pelgrom)."""
        spec = SramCellSpec()
        samples = [sample_vt_shifts(rng, spec, avt=2.5e-9)
                   for _ in range(300)]
        std_pu = np.std([s["M3"] for s in samples])   # smallest device
        std_pd = np.std([s["M5"] for s in samples])   # largest device
        assert std_pu > std_pd

    def test_magnitude_plausible(self, rng):
        """~tens of millivolts at 90 nm geometries."""
        samples = [sample_vt_shifts(rng, SramCellSpec(), avt=2.5e-9)["M1"]
                   for _ in range(300)]
        sigma = np.std(samples)
        assert 5e-3 < sigma < 100e-3

    def test_zero_avt_means_no_mismatch(self, rng):
        shifts = sample_vt_shifts(rng, SramCellSpec(), avt=0.0)
        assert all(v == 0.0 for v in shifts.values())


class TestArraySimulation:
    def test_small_array_runs(self, rng):
        config = ArrayConfig(
            n_cells=2, base_spec=SramCellSpec(), pattern=TINY_PATTERN,
            rtn_scale=1.0,
            methodology=MethodologyConfig(record_every=4))
        result = simulate(config, rng)
        assert result.n_cells == 2
        assert result.n_slots == 2
        assert 0.0 <= result.cell_failure_rate <= 1.0
        assert 0.0 <= result.slot_failure_rate <= 1.0
        for outcome in result.outcomes:
            assert set(outcome.vt_shifts) == set(TRANSISTOR_NAMES)
            assert outcome.trap_count >= 0

    def test_healthy_cells_do_not_fail(self, rng):
        """At nominal supply, small mismatch and unit RTN the array is
        clean — failures are the rare events the paper describes."""
        config = ArrayConfig(
            n_cells=3, base_spec=SramCellSpec(), pattern=TINY_PATTERN,
            rtn_scale=1.0, avt=1e-9,
            methodology=MethodologyConfig(record_every=4))
        result = simulate(config, rng)
        assert result.cell_failure_rate == 0.0
        assert result.baseline_failure_rate == 0.0

    def test_reproducible(self, rng_factory):
        config = ArrayConfig(
            n_cells=2, base_spec=SramCellSpec(), pattern=TINY_PATTERN,
            methodology=MethodologyConfig(record_every=4))
        a = simulate(config, rng_factory(9))
        b = simulate(config, rng_factory(9))
        assert [o.vt_shifts for o in a.outcomes] == \
            [o.vt_shifts for o in b.outcomes]
        assert [o.trap_count for o in a.outcomes] == \
            [o.trap_count for o in b.outcomes]


class TestSeedCompatibility:
    def test_seeded_output_is_pinned(self):
        """Any change to the RNG order or the arithmetic of the per-cell
        methodology changes this digest; a deliberate change must re-pin
        it with a seed-compat note."""
        config = ArrayConfig(
            n_cells=2, base_spec=fig8_cell_spec(),
            pattern=fig8_pattern(bits=(1,)), rtn_scale=30.0,
            methodology=MethodologyConfig(record_every=4))
        run = run_scenario("sram.array", config, seed=3)
        records = repr([(r.status, r.value, r.attempts)
                        for r in run.results])
        digest = hashlib.blake2b(records.encode(), digest_size=16)
        assert digest.hexdigest() == "bef7dd9f9e2930c976f68292fdb3ae4f"


class TestCheckpointFingerprint:
    """A resume into an array with a different cell, pattern or
    methodology must refuse the checkpoint instead of mixing its cells
    in."""

    BASE = ArrayConfig(n_cells=1, base_spec=SramCellSpec(),
                       pattern=TINY_PATTERN,
                       methodology=MethodologyConfig(record_every=4))

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("array")
        run_scenario("sram.array", self.BASE, seed=3,
                     checkpoint_dir=directory)
        resumed = run_scenario("sram.array", self.BASE, seed=3,
                               checkpoint_dir=directory, resume=True)
        assert resumed.resumed == [0]
        return directory

    @pytest.mark.parametrize("changes", [
        {"base_spec": SramCellSpec(vdd=0.9)},
        {"pattern": write_pattern([1, 1], cycle=5e-9, wl_delay=1e-9,
                                  wl_width=2e-9)},
        {"pattern": write_pattern([1, 0], cycle=6e-9, wl_delay=1e-9,
                                  wl_width=2e-9)},
        {"methodology": MethodologyConfig(record_every=4, dt=2e-12)},
        {"methodology": MethodologyConfig(
            record_every=4,
            thresholds=DetectorThresholds(valid_fraction=0.8))},
        {"methodology": MethodologyConfig(record_every=4,
                                          clip_to_nominal=False)},
        {"methodology": MethodologyConfig(record_every=4,
                                          amplitude_model=HungModel())},
    ], ids=["base_spec", "operations", "timing", "dt", "thresholds",
            "clip_to_nominal", "amplitude_model"])
    def test_resume_rejects_a_changed_input(self, checkpoint, changes):
        with pytest.raises(ValueError, match="different run"):
            run_scenario("sram.array",
                         dataclasses.replace(self.BASE, **changes), seed=3,
                         checkpoint_dir=checkpoint, resume=True)
