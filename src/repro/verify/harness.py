"""The family-wise false-positive budget of the statistical checks.

Every statistical oracle in :mod:`repro.verify.oracles`, the
``repro verify`` suite and the tier-2 invariance suites draws its
significance level from one :class:`AlphaBudget`, split by Bonferroni.
A run of many checks on a correct kernel then fails with probability
at most the budget's ``total``, whatever the number of checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError

__all__ = ["AlphaBudget"]


@dataclass(frozen=True)
class AlphaBudget:
    """A family-wise false-positive budget, Bonferroni-split.

    ``AlphaBudget(1e-4).split(20)`` hands each of 20 statistical checks
    ``alpha = 5e-6``; by the union bound, the probability that *any*
    check fails on a correct kernel is at most ``total``.  This is what
    keeps the tier-2 suite deterministic in practice: with the default
    budget, twenty consecutive clean runs flake with probability below
    ``20 * total``.

    Attributes
    ----------
    total:
        Family-wise significance level of the whole suite/run.
    """

    total: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.total < 1.0:
            raise AnalysisError(
                f"alpha budget must lie in (0, 1), got {self.total}")

    def split(self, n_checks: int) -> float:
        """Per-check alpha for ``n_checks`` equally weighted checks."""
        if n_checks < 1:
            raise AnalysisError(f"need >= 1 check, got {n_checks}")
        return self.total / n_checks

    def allocate(self, weights) -> list:
        """Per-check alphas proportional to ``weights`` (summing to total)."""
        weights = np.asarray(list(weights), dtype=float)
        if weights.size == 0 or np.any(weights <= 0.0):
            raise AnalysisError("weights must be positive and non-empty")
        return list(self.total * weights / weights.sum())
