"""Tests for SNM and write-margin analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.sram.cell import SramCellSpec
from repro.sram.margins import (
    _largest_square,
    half_cell_vtc,
    static_noise_margin,
    wordline_write_margin,
)

pytestmark = pytest.mark.tier1


class TestVtc:
    def test_mode_validation(self):
        with pytest.raises(AnalysisError):
            half_cell_vtc(SramCellSpec(), mode="write")

    def test_hold_vtc_is_inverter(self):
        v_in, v_out = half_cell_vtc(SramCellSpec(), mode="hold", points=31)
        vdd = SramCellSpec().supply
        assert v_out[0] == pytest.approx(vdd, abs=0.02)
        assert v_out[-1] == pytest.approx(0.0, abs=0.02)
        assert np.all(np.diff(v_out) < 1e-6)  # monotone falling

    def test_read_vtc_degraded_low_level(self):
        """In read mode the pass gate pulls the low output up."""
        __, hold_out = half_cell_vtc(SramCellSpec(), mode="hold", points=31)
        __, read_out = half_cell_vtc(SramCellSpec(), mode="read", points=31)
        assert read_out[-1] > hold_out[-1] + 0.01


def _largest_square_loop(x, y):
    """Anchor by anchor: the reference for the one-pass grid search."""
    best = 0.0
    s_grid = np.linspace(0.0, float(x[-1] - x[0]), 512)
    for a in np.linspace(float(x[0]), float(x[-1]), 201):
        b = float(np.interp(a, y[::-1], x[::-1]))
        feasible = s_grid[b + s_grid <= np.interp(a + s_grid, x, y)]
        if feasible.size:
            best = max(best, float(feasible[-1]))
    return best


class TestLargestSquare:
    @pytest.mark.parametrize("mode", ["hold", "read"])
    @pytest.mark.parametrize("vdd", [None, 0.7])
    def test_grid_search_equals_the_anchor_loop(self, mode, vdd):
        v_in, v_out = half_cell_vtc(SramCellSpec(vdd=vdd), mode=mode,
                                    points=41)
        for x, y in ((v_in, v_out), (v_out[::-1], v_in[::-1])):
            assert _largest_square(x, y) == _largest_square_loop(x, y)

    def test_flat_curve_has_no_square(self):
        x = np.linspace(0.0, 1.0, 11)
        assert _largest_square(x, np.zeros(11)) == 0.0


class TestSnm:
    def test_hold_snm_positive_and_plausible(self):
        spec = SramCellSpec()
        snm = static_noise_margin(spec, mode="hold", points=41)
        # A healthy 1 V cell holds with SNM of a few hundred millivolts.
        assert 0.1 < snm < 0.5 * spec.supply

    def test_read_snm_below_hold_snm(self):
        """The classic result: read disturbs shrink the margin."""
        spec = SramCellSpec()
        hold = static_noise_margin(spec, mode="hold", points=41)
        read = static_noise_margin(spec, mode="read", points=41)
        assert read < hold

    def test_snm_shrinks_with_supply(self):
        hi = static_noise_margin(SramCellSpec(vdd=1.0), points=41)
        lo = static_noise_margin(SramCellSpec(vdd=0.5), points=41)
        assert lo < hi


class TestWriteMargin:
    def test_margin_below_vdd(self):
        """The cell writes with some wordline underdrive to spare."""
        spec = SramCellSpec()
        margin = wordline_write_margin(spec, resolution=0.05)
        assert 0.2 < margin < spec.supply

    def test_low_supply_needs_relatively_more_wordline(self):
        """At low V_dd the required WL fraction of V_dd grows — the
        write margin collapses, which is where RTN bites (Fig. 2)."""
        nominal = SramCellSpec()
        scaled = SramCellSpec(vdd=0.5)
        frac_hi = wordline_write_margin(nominal, resolution=0.02) \
            / nominal.supply
        frac_lo = wordline_write_margin(scaled, resolution=0.02) \
            / scaled.supply
        assert frac_lo > frac_hi
