"""Tests for the batched ensemble engine (:mod:`repro.core.ensemble`)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.core.ensemble as ensemble_module
from repro.core.ensemble import (
    CellEnsembleOutcome,
    EnsembleConfig,
    EnsembleResult,
    EnsembleRunner,
)
from repro.core.experiments import fig8_cell_spec, fig8_pattern
from repro.errors import SimulationError

pytestmark = pytest.mark.tier1

N_CELLS = 4


@pytest.fixture(scope="module")
def result() -> EnsembleResult:
    # One shared small run: a 2-slot pattern keeps the SPICE passes
    # short while still exercising the whole pipeline, and the paper's
    # x30 acceleration guarantees flagged cells so the verification
    # branch runs too.
    config = EnsembleConfig(
        n_cells=N_CELLS, spec=fig8_cell_spec(),
        pattern=fig8_pattern(bits=(1, 0)), rtn_scale=30.0,
        max_verified_cells=2, margin_samples=2)
    return EnsembleRunner(config).run(np.random.default_rng(11))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        # Config mistakes are programming errors (plain ValueError),
        # not simulation failures.
        with pytest.raises(ValueError):
            EnsembleConfig(n_cells=0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_cells=1, rtn_scale=-1.0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_cells=1, screen_threshold=-0.5)
        with pytest.raises(ValueError):
            EnsembleConfig(n_cells=1, margin_samples=-1)
        with pytest.raises(ValueError):
            EnsembleConfig(n_cells=1, checkpoint_every=0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_cells=1, resume=True)
        with pytest.raises(ValueError):
            EnsembleConfig(n_cells=1, max_verified_cells=-1)
        # Caught at construction, not after the clean pass (a negative
        # avt) or never (a NaN avt used to verify NaN-shifted cells).
        for field, value in [("avt", -2.5e-9), ("avt", float("nan")),
                             ("avt", float("inf")),
                             ("rtn_scale", float("nan")),
                             ("rtn_scale", float("inf"))]:
            with pytest.raises(ValueError, match=field):
                EnsembleConfig(n_cells=1, **{field: value})

    def test_value_error_not_simulation_error(self):
        # The switch must not silently widen: bad config is NOT a
        # SimulationError any more.
        with pytest.raises(ValueError) as excinfo:
            EnsembleConfig(n_cells=-3)
        assert not isinstance(excinfo.value, SimulationError)


class TestRun:
    def test_outcome_bookkeeping(self, result):
        assert result.n_cells == N_CELLS
        assert len(result.outcomes) == N_CELLS
        assert [o.index for o in result.outcomes] == list(range(N_CELLS))
        assert result.total_traps == sum(o.trap_count
                                         for o in result.outcomes)
        for outcome in result.outcomes:
            assert isinstance(outcome, CellEnsembleOutcome)
            assert len(outcome.vt_shifts) == 6
            assert outcome.screen_metric >= 0.0

    def test_one_kernel_call_per_transistor(self, result):
        # The whole array is swept in one batched kernel call per
        # transistor name — that is the point of the engine.
        assert len(result.kernel_stats) == 6
        assert sum(s.n_candidates for s in result.kernel_stats.values()) > 0

    def test_screening_and_verification(self, result):
        for outcome in result.outcomes:
            assert outcome.flagged == (
                outcome.screen_metric >= 0.02 and outcome.trap_count > 0)
            if outcome.verified:
                assert outcome.flagged
        assert result.verified_cells <= 2
        assert result.flagged_cells >= result.verified_cells

    def test_margins(self, result):
        assert result.nominal_snm_hold > 0.0
        samples = result.snm_samples()
        assert samples.size == 2
        assert np.all(samples > 0.0)

    def test_summary_and_metrics(self, result):
        summary = result.summary()
        for key in ("cells", "traps", "flagged", "verified", "failing",
                    "cell_failure_rate", "nominal_snm_hold"):
            assert key in summary
        assert summary["cells"] == N_CELLS
        assert result.screen_metrics().shape == (N_CELLS,)
        assert 0.0 <= result.cell_failure_rate <= 1.0


def ensemble_digest(result: EnsembleResult) -> str:
    """BLAKE2b over every outcome, screen metric, kernel statistic and
    trace current of a run."""
    digest = hashlib.blake2b(digest_size=16)
    for o in result.outcomes:
        digest.update(repr((o.index, o.trap_count, o.transitions, o.flagged,
                            o.verified, o.rtn_failures, list(o.error_slots),
                            o.status)).encode())
        digest.update(np.array([o.vt_shifts[k] for k in sorted(o.vt_shifts)],
                               dtype=float).tobytes())
    digest.update(result.screen_metrics().tobytes())
    for name in sorted(result.kernel_stats):
        stats = result.kernel_stats[name]
        digest.update(repr((name, int(stats.n_candidates),
                            int(stats.n_accepted),
                            float(stats.rate_bound))).encode())
    for cell in result.traces:
        for name in sorted(cell):
            digest.update(name.encode())
            digest.update(cell[name].current.tobytes())
    return digest.hexdigest()


class TestRatesAtCandidates:
    def test_screen_evaluates_rates_only_around_candidates(self,
                                                          monkeypatch):
        """The screen reads two grid columns per candidate, so the lazy
        table evaluates at most two rate pairs per candidate and no
        dense (K, M) waveform table is ever built."""
        from repro.traps import propensity

        pairs = []
        rates_at = propensity.PopulationRateTable.rates_at

        def counting(table, rows, cols):
            pairs.append(np.size(rows))
            return rates_at(table, rows, cols)

        waveforms = []
        rates_for_population = propensity.rates_for_population

        def watching(v_gs, traps, tech):
            if np.ndim(v_gs):
                waveforms.append(np.shape(v_gs))
            return rates_for_population(v_gs, traps, tech)

        monkeypatch.setattr(propensity.PopulationRateTable, "rates_at",
                            counting)
        monkeypatch.setattr(propensity, "rates_for_population", watching)
        config = EnsembleConfig(
            n_cells=16, spec=fig8_cell_spec(),
            pattern=fig8_pattern(bits=(1,)), rtn_scale=30.0,
            max_verified_cells=0)
        result = EnsembleRunner(config).run(np.random.default_rng(5))
        candidates = sum(int(stats.n_candidates)
                         for stats in result.kernel_stats.values())
        assert not result.kernel_fallbacks
        assert candidates > 0
        assert 0 < sum(pairs) <= 2 * candidates
        assert waveforms == []


class TestFlatOccupancy:
    def test_screen_makes_no_per_trap_traces(self, monkeypatch):
        """The screen counts N_filled from the kernel's flat flip arrays:
        no OccupancyTrace is built, and one grouped count per transistor
        covers every cell."""
        from repro.core import ensemble
        from repro.markov.occupancy import OccupancyTrace

        built = []
        trusted = OccupancyTrace._trusted
        init = OccupancyTrace.__init__

        def counting_trusted(cls, times, states):
            built.append("_trusted")
            return trusted(times, states)

        def counting_init(self, *args, **kwargs):
            built.append("__init__")
            init(self, *args, **kwargs)

        counts = []
        number_filled = ensemble.number_filled

        def counting_number_filled(*args, **kwargs):
            counts.append(args[0])
            return number_filled(*args, **kwargs)

        monkeypatch.setattr(OccupancyTrace, "_trusted",
                            classmethod(counting_trusted))
        monkeypatch.setattr(OccupancyTrace, "__init__", counting_init)
        monkeypatch.setattr(ensemble, "number_filled",
                            counting_number_filled)
        config = EnsembleConfig(
            n_cells=16, spec=fig8_cell_spec(),
            pattern=fig8_pattern(bits=(1,)), rtn_scale=30.0,
            max_verified_cells=0)
        result = EnsembleRunner(config).run(np.random.default_rng(5))
        assert not result.kernel_fallbacks
        assert sum(o.transitions for o in result.outcomes) > 0
        assert built == []
        assert len(counts) == len(result.kernel_stats) > 0


class TestScreenOnColumns:
    def test_one_surface_potential_solve_per_drive_and_no_trap_objects(
            self, monkeypatch):
        """Traps are sampled as columns (no Trap is built), and each
        transistor's rate table solves psi_s once on its drive, the
        initial states reading the table's first column: at most six
        surface-potential solves for the whole screen."""
        from repro import obs
        from repro.traps import band, profiling
        from repro.traps.trap import Trap

        spec = fig8_cell_spec()
        profiling.TrapProfiler(spec.technology).energy_bounds(1e-9)  # warm
        solves = []
        surface_potential = band.surface_potential

        def counting_solve(v_gb, tech):
            solves.append(np.shape(v_gb))
            return surface_potential(v_gb, tech)

        traps = []
        post_init = Trap.__post_init__

        def counting_post_init(trap):
            traps.append(trap)
            post_init(trap)

        monkeypatch.setattr(band, "surface_potential", counting_solve)
        monkeypatch.setattr(profiling, "surface_potential", counting_solve)
        monkeypatch.setattr(Trap, "__post_init__", counting_post_init)
        config = EnsembleConfig(
            n_cells=16, spec=spec, pattern=fig8_pattern(bits=(1,)),
            rtn_scale=30.0, max_verified_cells=0)
        # The traced run installs a fresh metrics registry; put the
        # module's registry back afterwards.
        monkeypatch.setattr(obs, "_metrics", obs.metrics())
        with obs.enable_tracing():
            result = EnsembleRunner(config).run(np.random.default_rng(5))
        assert result.total_traps > 0
        assert result.metrics_snapshot  # the run was traced
        assert 0 < len(solves) == len(result.kernel_stats) <= 6
        assert all(len(shape) == 1 for shape in solves)  # whole drives
        assert traps == []

    def test_corrupted_rows_cost_only_their_cells(self):
        """A NaN row of a transistor's current block fails its own cell
        with a 'finite' error and drops only that transistor from the
        cell's metric and traces; untouched cells keep their screen."""
        from repro.testing import faults

        config = EnsembleConfig(
            n_cells=8, spec=fig8_cell_spec(),
            pattern=fig8_pattern(bits=(1,)), rtn_scale=30.0,
            max_verified_cells=0, keep_traces=True)
        clean = EnsembleRunner(config).run(np.random.default_rng(2))
        with faults.inject_faults(nan_rate=0.15, seed=4):
            faulty = EnsembleRunner(config).run(np.random.default_rng(2))
            hit = {(name, index) for index, traces in enumerate(clean.traces)
                   for name in traces if faults.should("nan", (name, index))}
        assert hit  # the plan corrupts some rows, not all
        assert len(hit) < sum(len(traces) for traces in clean.traces)
        for index, outcome in enumerate(faulty.outcomes):
            lost = {name for name, cell in hit if cell == index}
            assert (faulty.traces[index].keys()
                    == clean.traces[index].keys() - lost)
            for name, trace in faulty.traces[index].items():
                assert np.array_equal(trace.current,
                                      clean.traces[index][name].current)
            if lost:
                assert outcome.status == "failed"
                assert "finite" in outcome.error
            else:
                assert outcome.status == "ok"
                assert outcome.screen_metric == \
                    clean.outcomes[index].screen_metric


class TestSeedCompatibility:
    def test_seeded_output_is_pinned(self):
        """Any change to the RNG order or the arithmetic of the screen
        (trap sampling, batched kernel, N_filled, Eq.-3 currents) changes
        this digest; a deliberate change must re-pin it with a
        seed-compat note."""
        config = EnsembleConfig(
            n_cells=8, spec=fig8_cell_spec(),
            pattern=fig8_pattern(bits=(1,)), rtn_scale=30.0,
            max_verified_cells=2, keep_traces=True)
        result = EnsembleRunner(config).run(np.random.default_rng(0))
        assert result.verified_cells == 2
        assert ensemble_digest(result) == "b3d640b6e60c85f50388b954e1850718"

    def test_fully_verified_run_is_pinned(self):
        """Six cells, every one verified: in process they share one
        lockstep transient, and the run keeps the digest the one-cell
        passes gave it."""
        config = EnsembleConfig(
            n_cells=6, spec=fig8_cell_spec(),
            pattern=fig8_pattern(bits=(1,)), rtn_scale=30.0,
            max_verified_cells=None, keep_traces=True)
        result = EnsembleRunner(config).run(np.random.default_rng(0))
        assert result.verified_cells == 6
        assert ensemble_digest(result) == "7f7e46086b115f6967840a53da507baa"


class TestVerifyBatch:
    def test_groups_by_topology_and_matches_one_cell_passes(
            self, monkeypatch):
        config = EnsembleConfig(
            n_cells=4, spec=fig8_cell_spec(),
            pattern=fig8_pattern(bits=(1,)), rtn_scale=30.0,
            max_verified_cells=0, keep_traces=True)
        result = EnsembleRunner(config).run(np.random.default_rng(5))
        method = ensemble_module.dataclasses.replace(
            config.methodology, rtn_scale=config.rtn_scale)
        payloads = []
        for outcome, traces in zip(result.outcomes, result.traces):
            spec = ensemble_module.dataclasses.replace(
                config.spec, vt_shifts=outcome.vt_shifts)
            payloads.append((spec, config.pattern, dict(traces), method))
        # Two RTN-source sets: cells 1 and 3 lose one transistor's trace.
        for position in (1, 3):
            payloads[position][2].pop(sorted(payloads[position][2])[0])
        groups = []
        real = ensemble_module.simulate_passes

        def recording(benches, traces):
            groups.append(len(benches))
            return real(benches, traces)

        monkeypatch.setattr(ensemble_module, "simulate_passes", recording)
        batched = ensemble_module._verify_cells(payloads, [None] * 4)
        assert sorted(groups) == [2, 2]
        groups.clear()
        for payload, (value, error) in zip(payloads, batched):
            assert error is None
            assert value == ensemble_module._verify_cell(payload, None)
        assert groups == [1, 1, 1, 1]
