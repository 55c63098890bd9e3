"""Tests for the family-wise alpha budget."""

from __future__ import annotations

import pytest

from repro.errors import AnalysisError
from repro.verify.harness import AlphaBudget

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
