"""Integration tests for the full Fig.-8 methodology pipeline."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.core.methodology as methodology_module
from repro.core.experiments import fig8_cell_spec, fig8_config, fig8_pattern
from repro.core.methodology import (
    MethodologyConfig,
    PatternBench,
    run_methodology,
)
from repro.devices.technology import TECH_90NM
from repro.errors import SimulationError
from repro.markov.occupancy import number_filled
from repro.sram.cell import SramCellSpec
from repro.sram.detectors import OpOutcome
from repro.sram.patterns import write_pattern
from repro.traps.band import crossing_energy
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1

#: A short pattern keeps each pipeline test to ~1 s.
SHORT_BITS = [1, 0, 1]


@pytest.fixture(scope="module")
def pipeline_result():
    pattern = write_pattern(SHORT_BITS, cycle=5e-9, wl_delay=1e-9,
                            wl_width=2e-9)
    rng = np.random.default_rng(7)
    return run_methodology(
        pattern, rng, spec=SramCellSpec(),
        config=MethodologyConfig(rtn_scale=1.0, record_every=2))


class TestPipeline:
    def test_clean_pattern_all_ok(self, pipeline_result):
        assert pipeline_result.clean_counts == {"ok": 3, "slow": 0,
                                                "error": 0}

    def test_unscaled_rtn_no_failures(self, pipeline_result):
        """Paper: unscaled RTN failures are 'extremely rare events'."""
        assert pipeline_result.rtn_counts["error"] == 0
        assert not pipeline_result.cell_compromised

    def test_waveforms_cover_pattern(self, pipeline_result):
        result = pipeline_result
        assert result.clean_waveform.times[-1] == \
            pytest.approx(result.pattern.duration)
        assert result.rtn_waveform.times[-1] == \
            pytest.approx(result.pattern.duration)

    def test_rtn_results_per_transistor(self, pipeline_result):
        assert set(pipeline_result.rtn) == set(
            pipeline_result.cell.transistors)

    def test_rtn_sources_cleaned_up(self, pipeline_result):
        """The cell must come back RTN-source-free for reuse."""
        from repro.sram.injection import RTN_SOURCE_PREFIX
        names = [e.name for e in pipeline_result.cell.circuit.elements]
        assert not any(n.startswith(RTN_SOURCE_PREFIX) for n in names)

    def test_occupancy_tracks_stored_bit(self, pipeline_result):
        """Fig. 8(b): M5 (gate = Q) fills when Q is high."""
        result = pipeline_result
        m5 = result.rtn["M5"]
        if not m5.traps:
            pytest.skip("sampled zero traps on M5 for this seed")
        wf = result.clean_waveform
        filled = number_filled(m5.occupancies, wf.times)
        q = wf["q"]
        hi, lo = q > 0.9 * result.cell.vdd, q < 0.1 * result.cell.vdd
        if hi.sum() and lo.sum():
            assert filled[hi].mean() > filled[lo].mean()

    def test_scale_zero_reproduces_clean(self):
        """rtn_scale=0 must give exactly the clean verdicts."""
        pattern = write_pattern([1, 0], cycle=5e-9, wl_delay=1e-9,
                                wl_width=2e-9)
        rng = np.random.default_rng(3)
        result = run_methodology(
            pattern, rng, config=MethodologyConfig(rtn_scale=0.0,
                                                   record_every=2))
        assert [r.outcome for r in result.rtn_results] == \
            [r.outcome for r in result.clean_results]

    def test_negative_scale_rejected(self):
        pattern = write_pattern([1])
        with pytest.raises(SimulationError):
            run_methodology(pattern, np.random.default_rng(0),
                            config=MethodologyConfig(rtn_scale=-1.0))


class TestExplicitTraps:
    def test_explicit_populations_bypass_profiler(self):
        pattern = write_pattern([1], cycle=5e-9, wl_delay=1e-9,
                                wl_width=2e-9)
        y = 1.4e-9
        trap = Trap(y_tr=y, e_tr=crossing_energy(0.5, y, TECH_90NM))
        rng = np.random.default_rng(11)
        result = run_methodology(
            pattern, rng, trap_populations={"M1": [trap]},
            config=MethodologyConfig(record_every=2))
        assert len(result.rtn["M1"].traps) == 1
        assert result.rtn["M2"].traps == []

    def test_massive_artificial_rtn_breaks_the_cell(self):
        """Sanity: with an absurd scale the methodology must report the
        cell compromised — the detector path works end to end."""
        # The WL pulse is sized barely wider than the clean write: with
        # one-way coupling, I_RTN follows the *clean* pass's current and
        # dies once the clean write completes, so only a pulse that ends
        # inside the suppressed interval can fail (the paper's
        # future-work #1 discusses exactly this coupling limit).
        pattern = write_pattern([1], cycle=5e-9, wl_delay=1e-9,
                                wl_width=0.3e-9, edge_time=0.05e-9)
        # Shallow (fast) trap pinned well below the Fermi level at every
        # bias, so it is filled from t=0 and the suppression acts through
        # the whole write window.
        y = 0.15e-9
        trap = Trap(y_tr=y, e_tr=crossing_energy(0.0, y, TECH_90NM) - 0.3)
        rng = np.random.default_rng(5)
        result = run_methodology(
            pattern, rng,
            spec=SramCellSpec(vdd=0.5, node_capacitance=2e-15),
            trap_populations={"M1": [trap] * 4, "M2": [trap] * 4},
            config=MethodologyConfig(rtn_scale=3000.0, record_every=2))
        assert result.cell_compromised
        assert any(r.outcome in (OpOutcome.ERROR, OpOutcome.SLOW)
                   for r in result.rtn_results)


def methodology_digest(result, injected: dict) -> str:
    """BLAKE2b over both waveforms, the injected step-3 currents and
    every verdict of a run."""
    digest = hashlib.blake2b(digest_size=16)
    for waveform in (result.clean_waveform, result.rtn_waveform):
        digest.update(waveform.times.tobytes())
        for name in sorted(waveform.signals):
            digest.update(name.encode())
            digest.update(waveform[name].tobytes())
    for name in sorted(injected):
        digest.update(name.encode())
        digest.update(injected[name].times.tobytes())
        digest.update(injected[name].current.tobytes())
    for op in result.clean_results + result.rtn_results:
        digest.update(op.outcome.value.encode())
    return digest.hexdigest()


class TestSeedCompatibility:
    @pytest.mark.parametrize("seed, expected", [
        (0, "c9d5f67811011de0cb78c2340c8065f5"),
        (3, "a879bec4fb64d6f3e9afabf04704b9aa"),
    ], ids=["seed0", "seed3"])
    def test_seeded_output_is_pinned(self, monkeypatch, seed, expected):
        """Any change to the RNG order or the arithmetic of the four
        Fig.-8 steps (clean pass, SAMURAI, scaled and clipped injection,
        verdicts) changes this digest; a deliberate change must re-pin
        it with a seed-compat note."""
        injected: dict = {}
        real = methodology_module.attach_rtn_sources

        def capturing(cell, traces, scale=1.0):
            injected.update(traces)
            return real(cell, traces, scale=scale)

        monkeypatch.setattr(methodology_module, "attach_rtn_sources",
                            capturing)
        result = run_methodology(
            fig8_pattern(bits=(1, 0)), np.random.default_rng(seed),
            spec=fig8_cell_spec(), config=fig8_config(rtn_scale=30.0))
        assert set(injected) == set(result.cell.transistors)
        assert methodology_digest(result, injected) == expected

    def test_injected_bench_pass_is_pinned(self, monkeypatch,
                                           waveform_digest):
        """One Fig.-8 step-3 transient on its own: the bench rerun with
        a seeded run's injected traces.  Any change to the SPICE
        engine's arithmetic (assembly, EKV, Newton, stepping, stimuli)
        moves this digest."""
        injected: dict = {}
        real = methodology_module.attach_rtn_sources

        def capturing(cell, traces, scale=1.0):
            injected.update(traces)
            return real(cell, traces, scale=scale)

        monkeypatch.setattr(methodology_module, "attach_rtn_sources",
                            capturing)
        pattern, config = fig8_pattern(bits=(1,)), fig8_config(30.0)
        run_methodology(pattern, np.random.default_rng(2),
                        spec=fig8_cell_spec(), config=config)
        bench = PatternBench.build(fig8_cell_spec(), pattern, config)
        waveform, verdicts = bench.simulate(injected)
        assert [v.outcome for v in verdicts]
        assert waveform_digest(waveform) == "1153af0be8d1b764d5cbe74505040f1b"
