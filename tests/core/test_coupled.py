"""Tests for the bi-directionally coupled co-simulation (extension E1)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.coupled import run_coupled
from repro.devices.technology import TECH_90NM
from repro.errors import SimulationError
from repro.sram.cell import TRANSISTOR_NAMES, build_sram_cell
from repro.sram.patterns import write_pattern
from repro.traps.band import crossing_energy
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


def fast_trap(v_cross: float) -> Trap:
    """A trap fast enough to toggle inside a nanosecond-scale run."""
    y = 0.18e-9  # propensity sum ~1.7e9 Hz
    return Trap(y_tr=y, e_tr=crossing_energy(v_cross, y, TECH_90NM))


SHORT = write_pattern([1, 0], cycle=4e-9, wl_delay=1e-9, wl_width=2e-9)


class TestInterface:
    def test_rejects_unknown_transistor(self, rng):
        cell = build_sram_cell()
        with pytest.raises(SimulationError):
            run_coupled(cell, SHORT, {"M9": [fast_trap(0.5)]}, rng)

    def test_rejects_negative_scale(self, rng):
        cell = build_sram_cell()
        with pytest.raises(SimulationError):
            run_coupled(cell, SHORT, {}, rng, rtn_scale=-1.0)

    def test_sources_removed_after_run(self, rng):
        cell = build_sram_cell()
        before = len(cell.circuit.elements)
        run_coupled(cell, SHORT, {"M1": [fast_trap(0.5)]}, rng,
                    record_every=4)
        # The held source is removed; the stimuli remain installed.
        assert len(cell.circuit.elements) == before

    def test_empty_population_matches_pattern(self, rng):
        cell = build_sram_cell()
        result = run_coupled(cell, SHORT, {}, rng, record_every=4)
        assert [r.outcome.value for r in result.op_results] == ["ok", "ok"]
        assert result.occupancies == {}


class TestCoupledPhysics:
    def test_occupancies_returned_per_trap(self, rng):
        cell = build_sram_cell()
        traps = {"M5": [fast_trap(0.5), fast_trap(0.6)]}
        result = run_coupled(cell, SHORT, traps, rng, record_every=4)
        assert len(result.occupancies["M5"]) == 2
        for trace in result.occupancies["M5"]:
            assert trace.t_stop == pytest.approx(SHORT.duration)

    def test_trap_activity_follows_circuit_state(self, rng):
        """M5's gate is Q: after the write-1 its trap sees a high drive
        and fills; after the write-0 it empties — with the bias coming
        from the co-simulated circuit itself."""
        cell = build_sram_cell()
        pattern = write_pattern([1, 0], cycle=6e-9, wl_delay=1e-9,
                                wl_width=2e-9)
        trap = fast_trap(0.5 * cell.vdd)
        result = run_coupled(cell, pattern, {"M5": [trap]}, rng,
                             record_every=4)
        trace = result.occupancies["M5"][0]
        # Late in slot 0 (Q=1): filled most of the time.
        fill_one = trace.restricted(4e-9, 6e-9).fraction_filled()
        # Late in slot 1 (Q=0): empty most of the time.
        fill_zero = trace.restricted(10e-9, 12e-9).fraction_filled()
        assert fill_one > 0.6
        assert fill_zero < 0.4

    def test_clean_pattern_unharmed_at_unit_scale(self, rng):
        cell = build_sram_cell()
        traps = {name: [fast_trap(0.5)] for name in cell.transistors}
        result = run_coupled(cell, SHORT, traps, rng, rtn_scale=1.0,
                             record_every=4)
        assert all(r.outcome.value == "ok" for r in result.op_results)

    def test_reproducible(self, rng_factory):
        cell_a = build_sram_cell()
        cell_b = build_sram_cell()
        traps = {"M6": [fast_trap(0.5)]}
        res_a = run_coupled(cell_a, SHORT, traps, rng_factory(3),
                            record_every=4)
        res_b = run_coupled(cell_b, SHORT, traps, rng_factory(3),
                            record_every=4)
        assert np.array_equal(res_a.occupancies["M6"][0].times,
                              res_b.occupancies["M6"][0].times)


def coupled_digest(result) -> str:
    """BLAKE2b over every waveform signal, flip time and verdict."""
    digest = hashlib.blake2b(digest_size=16)
    waveform = result.waveform
    digest.update(waveform.times.tobytes())
    for name in sorted(waveform.signals):
        digest.update(name.encode())
        digest.update(waveform[name].tobytes())
    for name in sorted(result.occupancies):
        for trace in result.occupancies[name]:
            digest.update(name.encode())
            digest.update(trace.times.tobytes())
            digest.update(trace.states.tobytes())
    for op in result.op_results:
        digest.update(op.outcome.value.encode())
    return digest.hexdigest()


class TestSeedCompatibility:
    def test_seeded_output_is_pinned(self):
        """Any change to the RNG order of the shared co-simulation loop
        (:func:`repro.cosim.engine.run_trap_coupled`) changes this digest; a
        deliberate change must re-pin it with a seed-compat note."""
        traps = {name: [fast_trap(0.45), fast_trap(0.55)]
                 for name in TRANSISTOR_NAMES}
        result = run_coupled(build_sram_cell(), SHORT, traps,
                             np.random.default_rng(0), rtn_scale=20.0,
                             record_every=4)
        assert coupled_digest(result) == "c2212d78a95661bc4ba025c6a9248b86"
