"""Tests for the Samurai engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.technology import TECH_90NM
from repro.errors import SimulationError
from repro.core.samurai import Samurai
from repro.sram.biases import BiasRecord
from repro.sram.cell import build_sram_cell
from repro.traps.band import crossing_energy
from repro.traps.profiling import TrapProfiler
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


def flat_biases(cell, v_drive=0.6, i_d=1e-5, n=64, t_stop=1e-5):
    times = np.linspace(0.0, t_stop, n)
    return {name: BiasRecord(name=name, times=times,
                             v_drive=np.full(n, v_drive),
                             i_d=np.full(n, i_d))
            for name in cell.transistors}


class TestConstruction:
    def test_rejects_unknown_transistor(self):
        cell = build_sram_cell()
        with pytest.raises(SimulationError):
            Samurai(cell=cell, trap_populations={"M9": []})

    def test_with_sampled_traps(self, rng):
        cell = build_sram_cell()
        engine = Samurai.with_sampled_traps(cell, TrapProfiler(TECH_90NM),
                                            rng)
        assert set(engine.trap_populations) == set(cell.transistors)
        assert engine.total_trap_count > 0

    def test_trap_counts_scale_with_area(self, rng):
        """Pull-downs (widest) should average more traps than pull-ups."""
        cell = build_sram_cell()
        profiler = TrapProfiler(TECH_90NM)
        counts = {"pd": 0, "pu": 0}
        for seed in range(10):
            engine = Samurai.with_sampled_traps(
                cell, profiler, np.random.default_rng(seed))
            counts["pd"] += len(engine.trap_populations["M5"])
            counts["pu"] += len(engine.trap_populations["M3"])
        assert counts["pd"] > counts["pu"]


class TestGenerate:
    def test_all_transistors_produce_results(self, rng):
        cell = build_sram_cell()
        y = 1.4e-9
        trap = Trap(y_tr=y, e_tr=crossing_energy(0.6, y, TECH_90NM))
        engine = Samurai(cell=cell,
                         trap_populations={name: [trap]
                                           for name in cell.transistors})
        results = engine.generate(flat_biases(cell), rng)
        assert set(results) == set(cell.transistors)
        for name, result in results.items():
            assert result.trace.label == name
            assert len(result.occupancies) == 1

    def test_empty_population_zero_trace(self, rng):
        cell = build_sram_cell()
        engine = Samurai(cell=cell, trap_populations={})
        results = engine.generate(flat_biases(cell), rng)
        assert all(r.trace.peak() == 0.0 for r in results.values())

    def test_missing_bias_rejected(self, rng):
        cell = build_sram_cell()
        engine = Samurai(cell=cell, trap_populations={})
        biases = flat_biases(cell)
        del biases["M1"]
        with pytest.raises(SimulationError):
            engine.generate(biases, rng)

    def test_wrong_bias_type_rejected(self, rng):
        cell = build_sram_cell()
        engine = Samurai(cell=cell, trap_populations={})
        biases = flat_biases(cell)
        biases["M1"] = "oops"
        with pytest.raises(SimulationError):
            engine.generate(biases, rng)
