"""Tests for CheckResult and VerificationReport."""

from __future__ import annotations

import json

import pytest

from repro.errors import AnalysisError
from repro.verify.result import CheckResult, VerificationReport

pytestmark = pytest.mark.tier1


class TestCheckResult:
    def test_from_pvalue_semantics(self):
        assert CheckResult.from_pvalue("x", 0.5, 1e-4).passed
        assert CheckResult.from_pvalue("x", 1e-4, 1e-4).passed
        assert not CheckResult.from_pvalue("x", 1e-5, 1e-4).passed

    def test_from_bound_semantics(self):
        assert CheckResult.from_bound("x", 1e-10, 1e-6).passed
        assert CheckResult.from_bound("x", 1e-6, 1e-6).passed
        assert not CheckResult.from_bound("x", 2e-6, 1e-6).passed

    def test_extras_carried(self):
        check = CheckResult.from_pvalue("x", 0.3, 0.05, detail="d",
                                        observed=1.5)
        assert check.extras == {"observed": 1.5}
        assert check.detail == "d"

    def test_kind_validated(self):
        with pytest.raises(AnalysisError):
            CheckResult(name="x", passed=True, statistic=0.0,
                        threshold=0.0, kind="vibes")

    def test_to_dict_round_trips_through_json(self):
        check = CheckResult.from_bound("a.b", 0.5, 1.0, extra=2.0)
        copy = json.loads(json.dumps(check.to_dict()))
        assert copy["name"] == "a.b"
        assert copy["kind"] == "bound"
        assert copy["extras"] == {"extra": 2.0}


def _report() -> VerificationReport:
    return VerificationReport(checks=(
        CheckResult.from_bound("det.good", 0.0, 1.0),
        CheckResult.from_pvalue("stat.bad", 1e-9, 1e-4),
    ), seed=7, alpha_total=1e-4)


class TestVerificationReport:
    def test_aggregation(self):
        report = _report()
        assert not report.passed
        assert report.n_failed == 1
        assert [c.name for c in report.failures] == ["stat.bad"]
        assert len(report) == 2

    def test_lookup_by_name(self):
        report = _report()
        assert report["det.good"].passed
        with pytest.raises(KeyError):
            report["missing"]

    def test_table_lists_every_check(self):
        table = _report().table()
        assert "det.good" in table and "stat.bad" in table
        assert "FAIL" in table and "pass" in table

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        _report().to_json(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["seed"] == 7
        assert payload["passed"] is False
        assert len(payload["checks"]) == 2

    def test_generated_at_uses_obs_clock(self):
        from repro.obs import clock

        with clock.fake(start=123.0):
            report = VerificationReport(checks=())
        assert report.generated_at == 123.0
