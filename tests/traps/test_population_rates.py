"""Tests for the vectorised population-rate fast path."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.technology import TECH_90NM
from repro.errors import ModelError
from repro.traps.propensity import (
    population_propensity,
    rates_for_population,
    rates_from_bias,
)
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


class TestPopulationRates:
    def test_empty_population(self):
        lam_c, lam_e = rates_for_population(0.5, [], TECH_90NM)
        assert lam_c.size == 0 and lam_e.size == 0

    def test_matches_scalar_path(self, rng):
        traps = [Trap(y_tr=float(rng.uniform(0.1e-9, 1.9e-9)),
                      e_tr=float(rng.uniform(0.5, 1.5)),
                      degeneracy=float(rng.uniform(1.0, 4.0)))
                 for _ in range(20)]
        for v_gs in (0.0, 0.4, 0.8, 1.0):
            lam_c, lam_e = rates_for_population(v_gs, traps, TECH_90NM)
            for index, trap in enumerate(traps):
                sc, se = rates_from_bias(v_gs, trap, TECH_90NM)
                assert lam_c[index] == pytest.approx(sc, rel=1e-9, abs=1e-12)
                assert lam_e[index] == pytest.approx(se, rel=1e-9, abs=1e-12)

    def test_waveform_columns_are_the_scalar_calls(self, rng):
        """One table serves both paths: column j of the waveform table is
        the one-bias call at v_gs[j], bit for bit."""
        traps = [Trap(y_tr=float(rng.uniform(0.1e-9, 1.9e-9)),
                      e_tr=float(rng.uniform(0.5, 1.5)),
                      degeneracy=float(rng.uniform(1.0, 4.0)))
                 for _ in range(20)]
        v_gs = np.array([0.0, 0.3, 0.75, 1.0, 1.2])
        table_c, table_e = rates_for_population(v_gs, traps, TECH_90NM)
        assert table_c.shape == table_e.shape == (20, v_gs.size)
        for column, v in enumerate(v_gs):
            lam_c, lam_e = rates_for_population(float(v), traps, TECH_90NM)
            assert np.array_equal(table_c[:, column], lam_c)
            assert np.array_equal(table_e[:, column], lam_e)
        empty_c, _ = rates_for_population(v_gs, [], TECH_90NM)
        assert empty_c.shape == (0, v_gs.size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bias(self, bad):
        """A NaN/inf bias used to give NaN rate columns (and warnings);
        now it is refused before the surface-potential solve."""
        traps = [Trap(y_tr=0.5e-9, e_tr=1.0)]
        times = np.linspace(0.0, 1e-6, 4)
        v_gs = np.array([0.0, 0.5, bad, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for population in (traps, []):
                with pytest.raises(ModelError, match="finite"):
                    rates_for_population(bad, population, TECH_90NM)
                with pytest.raises(ModelError, match="finite"):
                    rates_for_population(v_gs, population, TECH_90NM)
                with pytest.raises(ModelError, match="finite"):
                    population_propensity(population, TECH_90NM, times, v_gs)

    def test_depth_validation(self):
        with pytest.raises(ModelError):
            rates_for_population(0.5, [Trap(y_tr=5e-9, e_tr=1.0)],
                                 TECH_90NM)

    @settings(max_examples=30, deadline=None)
    @given(v_gs=st.floats(min_value=0.0, max_value=1.2),
           y=st.floats(min_value=0.1e-9, max_value=1.9e-9),
           e=st.floats(min_value=0.0, max_value=2.0))
    def test_property_sum_preserved(self, v_gs, y, e):
        """The population path preserves the Eq.-1 constant sum."""
        trap = Trap(y_tr=y, e_tr=e)
        lam_c, lam_e = rates_for_population(v_gs, [trap], TECH_90NM)
        from repro.traps.propensity import propensity_sum
        assert lam_c[0] + lam_e[0] == pytest.approx(
            propensity_sum(trap, TECH_90NM), rel=1e-9)
