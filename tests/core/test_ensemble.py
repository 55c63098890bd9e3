"""Tests for the batched ensemble engine (:mod:`repro.core.ensemble`)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

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
        assert ensemble_digest(result) == "20bcea4007877b2fe61484d572682e9b"
