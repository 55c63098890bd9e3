"""Tests for the property harness: budgets, cases, shrinking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.verify.harness import (
    AlphaBudget,
    Case,
    CaseGenerator,
    run_property,
    shrink_case,
)
from repro.verify.result import CheckResult

pytestmark = pytest.mark.tier1


class TestAlphaBudget:
    def test_split_is_bonferroni(self):
        assert AlphaBudget(1e-3).split(10) == pytest.approx(1e-4)
        assert AlphaBudget(1e-3).split(1) == pytest.approx(1e-3)

    def test_allocate_proportional(self):
        alphas = AlphaBudget(0.01).allocate([1.0, 3.0])
        assert alphas == pytest.approx([0.0025, 0.0075])
        assert sum(alphas) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            AlphaBudget(0.0)
        with pytest.raises(AnalysisError):
            AlphaBudget(1.5)
        with pytest.raises(AnalysisError):
            AlphaBudget().split(0)
        with pytest.raises(AnalysisError):
            AlphaBudget().allocate([])
        with pytest.raises(AnalysisError):
            AlphaBudget().allocate([1.0, -1.0])


class TestCase:
    def test_rng_is_deterministic(self):
        case = Case(index=0, seed=99, params={"x": 1.0})
        assert np.array_equal(case.rng("a").random(3),
                              case.rng("a").random(3))
        assert not np.array_equal(case.rng("a").random(3),
                                  case.rng("b").random(3))

    def test_with_params_preserves_identity(self):
        case = Case(index=3, seed=99, params={"x": 1.0, "y": 2.0})
        other = case.with_params(x=5.0)
        assert other.params == {"x": 5.0, "y": 2.0}
        assert (other.index, other.seed) == (3, 99)
        assert case.params["x"] == 1.0  # original untouched

    def test_describe_mentions_everything(self):
        text = Case(index=1, seed=2,
                    params={"bias": 0.5, "tech": "90nm"}).describe()
        assert "bias=0.5" in text and "tech=90nm" in text and "seed=2" in text


class TestCaseGenerator:
    def test_families_reproducible_across_instances(self):
        a = CaseGenerator(7).trap_cases(5)
        b = CaseGenerator(7).trap_cases(5)
        assert [c.params for c in a] == [c.params for c in b]
        assert [c.seed for c in a] == [c.seed for c in b]

    def test_cases_independent_of_family_size(self):
        """Case 3 is the same whether 4 or 40 cases were asked for —
        failing cases replay from (root, index) alone."""
        short = CaseGenerator(7).rate_cases(4)[3]
        long = CaseGenerator(7).rate_cases(40)[3]
        assert short.params == long.params
        assert short.seed == long.seed

    def test_trap_cases_in_range(self):
        from repro.devices.technology import TECHNOLOGIES

        for case in CaseGenerator(0).trap_cases(20):
            assert case.params["tech"] in TECHNOLOGIES
            assert 0.05 <= case.params["depth_fraction"] <= 0.6
            assert 0.1 <= case.params["bias"] <= 0.9

    def test_rate_cases_span_decades(self):
        rates = [c.params["lambda_c"]
                 for c in CaseGenerator(1).rate_cases(50)]
        assert min(rates) < 0.3 and max(rates) > 3.0

    def test_bias_waveform_cases_have_levels(self):
        case = CaseGenerator(2).bias_waveform_cases(3, n_segments=4)[0]
        levels = [case.params[f"level_{k}"] for k in range(5)]
        assert all(0.05 <= lvl <= 0.95 for lvl in levels)


def _threshold_check(case: Case) -> CheckResult:
    """A synthetic oracle that fails whenever ``x > 0.5``."""
    return CheckResult.from_bound("synthetic", case.params["x"], 0.5)


class TestRunProperty:
    def test_all_passing(self):
        cases = [Case(index=i, seed=i, params={"x": 0.1 * i})
                 for i in range(4)]
        outcome = run_property(cases, _threshold_check)
        assert outcome.passed
        assert outcome.failures == []
        assert len(outcome.results) == 4

    def test_failures_collected_in_order(self):
        cases = [Case(index=i, seed=i, params={"x": float(i)})
                 for i in range(3)]
        outcome = run_property(cases, _threshold_check)
        assert not outcome.passed
        assert [c.index for c, _ in outcome.failures] == [1, 2]
        assert "synthetic" in outcome.describe_failures()

    def test_check_fn_type_enforced(self):
        with pytest.raises(AnalysisError):
            run_property([Case(index=0, seed=0)], lambda case: True)

    def test_shrinking_attaches_minimal_cases(self):
        cases = [Case(index=0, seed=0, params={"x": 8.0})]
        outcome = run_property(cases, _threshold_check, shrink=True,
                               nominal={"x": 0.0})
        assert len(outcome.shrunk) == 1
        assert 0.5 < outcome.shrunk[0].params["x"] < 0.6


class TestShrinkCase:
    def test_bisects_to_the_boundary(self):
        case = Case(index=0, seed=0, params={"x": 100.0})
        shrunk = shrink_case(case, lambda c: c.params["x"] > 0.5,
                             nominal={"x": 0.0}, rounds=20)
        assert shrunk.params["x"] == pytest.approx(0.5, abs=1e-3)
        assert shrunk.params["x"] > 0.5  # still failing

    def test_needs_a_failing_start(self):
        case = Case(index=0, seed=0, params={"x": 0.1})
        with pytest.raises(AnalysisError):
            shrink_case(case, lambda c: c.params["x"] > 0.5,
                        nominal={"x": 0.0})

    def test_categorical_params_left_alone(self):
        case = Case(index=0, seed=0, params={"x": 2.0, "tech": "90nm"})
        shrunk = shrink_case(case, lambda c: c.params["x"] > 0.5,
                             nominal={"x": 0.0, "tech": "45nm"})
        assert shrunk.params["tech"] == "90nm"
