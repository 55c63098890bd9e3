"""Tests for the golden-statistics layer and the committed artifact."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import AnalysisError
from repro.verify.golden import (
    DEFAULT_SEED,
    GOLDEN_SCHEMA,
    compare_golden,
    compute_golden_statistics,
    load_golden,
    save_golden,
)

pytestmark = pytest.mark.tier1

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" \
    / "statistics.json"


@pytest.fixture(scope="module")
def stats():
    return compute_golden_statistics(DEFAULT_SEED)


class TestComputeStatistics:
    def test_every_entry_well_formed(self, stats):
        assert len(stats) >= 8
        for name, entry in stats.items():
            assert set(entry) == {"value", "abs_tol", "detail"}, name
            assert entry["abs_tol"] > 0.0, name
            assert entry["detail"], name

    def test_deterministic_at_fixed_seed(self, stats):
        again = compute_golden_statistics(DEFAULT_SEED)
        for name in stats:
            assert stats[name]["value"] == again[name]["value"], name

    def test_statistical_entries_move_with_the_seed(self):
        other = compute_golden_statistics(DEFAULT_SEED + 1)
        fresh = compute_golden_statistics(DEFAULT_SEED)
        moved = [n for n in fresh
                 if fresh[n]["value"] != other[n]["value"]]
        assert any(n.startswith("markov.") for n in moved)
        # Deterministic entries must NOT move with the seed.
        assert fresh["sram.snm_hold_90nm"]["value"] == \
            other["sram.snm_hold_90nm"]["value"]


class TestSaveLoad:
    def test_round_trip_with_provenance(self, tmp_path, stats):
        path = tmp_path / "golden.json"
        from repro.obs import clock

        with clock.fake(start=1e9):
            save_golden(path, stats, seed=123)
        payload = load_golden(path)
        assert payload["schema"] == GOLDEN_SCHEMA
        assert payload["provenance"]["seed"] == 123
        assert payload["provenance"]["generated_at"] == 1e9
        assert payload["provenance"]["library_version"]
        assert payload["entries"].keys() == stats.keys()

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "entries": {},
                                    "provenance": {}}))
        with pytest.raises(AnalysisError):
            load_golden(path)

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": GOLDEN_SCHEMA}))
        with pytest.raises(AnalysisError):
            load_golden(path)


class TestCompare:
    def test_self_comparison_passes(self, tmp_path, stats):
        path = tmp_path / "golden.json"
        save_golden(path, stats, seed=DEFAULT_SEED)
        report = compare_golden(load_golden(path), current=stats)
        assert report.passed

    def test_drifted_value_fails(self, tmp_path, stats):
        path = tmp_path / "golden.json"
        save_golden(path, stats, seed=DEFAULT_SEED)
        drifted = json.loads(json.dumps(stats))
        name = "markov.batch_mean_occupancy"
        drifted[name]["value"] += 10 * drifted[name]["abs_tol"]
        report = compare_golden(load_golden(path), current=drifted)
        assert not report.passed
        assert not report[f"golden.{name}"].passed

    def test_missing_entries_fail_loudly(self, tmp_path, stats):
        path = tmp_path / "golden.json"
        save_golden(path, stats, seed=DEFAULT_SEED)
        shrunk = {k: v for k, v in stats.items()
                  if k != "sram.snm_hold_90nm"}
        report = compare_golden(load_golden(path), current=shrunk)
        assert not report.passed
        assert "no longer computed" in \
            report["golden.sram.snm_hold_90nm"].detail

    def test_extra_current_entry_fails_loudly(self, tmp_path, stats):
        path = tmp_path / "golden.json"
        save_golden(path, stats, seed=DEFAULT_SEED)
        extended = dict(stats)
        extended["markov.new_statistic"] = {"value": 1.0, "abs_tol": 0.1,
                                            "detail": "new"}
        report = compare_golden(load_golden(path), current=extended)
        assert not report["golden.markov.new_statistic"].passed


class TestCommittedArtifact:
    """The regression gate: the repository's own golden file."""

    def test_artifact_is_committed(self):
        assert GOLDEN_PATH.exists(), \
            "regenerate with scripts/check_golden.py --regen"

    def test_current_library_matches_the_artifact(self, stats):
        payload = load_golden(GOLDEN_PATH)
        assert payload["provenance"]["seed"] == DEFAULT_SEED
        report = compare_golden(payload, current=stats)
        assert report.passed, report.table()
