"""Tests for the assembled verification suites and the CLI wrapper."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.verify.suite import run_suite

pytestmark = pytest.mark.tier1


class TestDeterministicSuite:
    def test_passes_and_covers_both_layers(self):
        report = run_suite()
        assert report.passed
        names = [check.name for check in report.checks]
        assert any(n.startswith("traps.") for n in names)
        assert any(n.startswith("spice.") for n in names)
        assert report.alpha_total == 0.0  # no statistical checks ran

    def test_statistical_suite_adds_the_markov_oracles(self):
        report = run_suite(seed=0, statistical=True)
        assert report.passed
        names = [check.name for check in report.checks]
        assert "markov.stationary_occupancy" in names
        assert "markov.transient_occupancy" in names
        assert "markov.batch_scalar_equivalence" in names
        assert report.alpha_total == 1e-4

    def test_statistical_suite_checks_the_retention_law(self):
        report = run_suite(seed=1, statistical=True)
        assert report["dram.retention_law"].passed
        assert report["dram.retention_law"].threshold == \
            pytest.approx(1e-4 / 7 / 7)


class TestCliVerify:
    def test_deterministic_run(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "Verification report" in out
        assert "checks failed: 0" in out

    def test_statistical_run_with_json_out(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["verify", "--statistical", "--seed", "3",
                     "--json-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert payload["seed"] == 3
        assert any(c["name"] == "markov.stationary_occupancy"
                   for c in payload["checks"])

    def test_golden_comparison(self, capsys):
        assert main(["verify", "--golden",
                     "tests/golden/statistics.json"]) == 0
        out = capsys.readouterr().out
        assert "golden.sram.snm_hold_90nm" in out

    def test_failure_exit_code(self, tmp_path, capsys):
        """A drifted golden artifact turns the exit code to 2."""
        from pathlib import Path

        payload = json.loads(
            Path("tests/golden/statistics.json").read_text())
        entry = payload["entries"]["sram.snm_hold_90nm"]
        entry["value"] += 100 * entry["abs_tol"]
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(payload))
        assert main(["verify", "--golden", str(drifted)]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "checks failed: 1" in out
