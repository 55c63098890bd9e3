"""Regression tests for the canonical Fig.-8 experiment configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.methodology import run_methodology
from repro.core.experiments import (
    FIG8_BITS,
    FIG8_RTN_SCALE,
    fig8_cell_spec,
    fig8_config,
    fig8_pattern,
)
from repro.sram.detectors import OpOutcome

pytestmark = pytest.mark.tier1


class TestConfigurationShape:
    def test_bits_match_paper(self):
        assert list(FIG8_BITS) == [1, 1, 0, 1, 0, 1, 0, 0, 1]

    def test_scale_matches_paper(self):
        assert FIG8_RTN_SCALE == 30.0

    def test_pattern_timing_consistent(self):
        pattern = fig8_pattern()
        assert len(pattern.operations) == 9
        assert pattern.duration == pytest.approx(36e-9)


class TestFig8Runs:
    def test_clean_pattern_writes_perfectly(self):
        """Fig. 8(a): the pattern writes cleanly without RTN."""
        rng = np.random.default_rng(2)
        result = run_methodology(fig8_pattern(), rng, spec=fig8_cell_spec(),
                                 config=fig8_config(rtn_scale=0.0))
        assert result.clean_counts == {"ok": 9, "slow": 0, "error": 0}

    def test_x30_seed2_produces_write_error(self):
        """Fig. 8(e): with the paper's x30 acceleration a write error
        appears (regression-pinned seed)."""
        rng = np.random.default_rng(2)
        result = run_methodology(fig8_pattern(), rng, spec=fig8_cell_spec(),
                                 config=fig8_config())
        assert result.clean_counts["error"] == 0
        assert result.cell_compromised
        assert 3 in result.failed_slots()
        failed = result.rtn_results[3]
        assert failed.outcome is OpOutcome.ERROR
        assert failed.expected_bit == 1
        # The stored node ended on the wrong side of the supply midpoint.
        assert failed.final_q < fig8_cell_spec().supply / 2.0
        # The physical clip keeps the nodes within the rails.
        q = result.rtn_waveform["q"]
        vdd = fig8_cell_spec().supply
        assert q.max() < 1.1 * vdd
        assert q.min() > -0.1 * vdd
