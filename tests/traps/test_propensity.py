"""Tests for paper Eqs. (1)-(2): trap propensities from bias."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.technology import TECH_90NM
from repro.errors import ModelError
from repro.traps.band import crossing_energy
from repro.traps.propensity import (
    equilibrium_occupancy,
    log_beta_from_bias,
    population_propensity,
    propensity_sum,
    rates_from_bias,
)
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1

depths = st.floats(min_value=0.1e-9, max_value=2.0e-9)
energies = st.floats(min_value=0.0, max_value=2.5)
biases = st.floats(min_value=0.0, max_value=1.2)


class TestPropensitySum:
    def test_eq1_formula(self):
        trap = Trap(y_tr=1.0e-9, e_tr=1.0)
        tech = TECH_90NM
        expected = 1.0 / (tech.tau0 * math.exp(tech.gamma_tunnel * trap.y_tr))
        assert propensity_sum(trap, tech) == pytest.approx(expected)

    def test_deeper_traps_are_slower(self):
        shallow = propensity_sum(Trap(y_tr=0.5e-9, e_tr=1.0), TECH_90NM)
        deep = propensity_sum(Trap(y_tr=1.5e-9, e_tr=1.0), TECH_90NM)
        assert shallow / deep == pytest.approx(math.exp(1e10 * 1.0e-9), rel=1e-6)

    def test_rejects_trap_outside_oxide(self):
        with pytest.raises(ModelError):
            propensity_sum(Trap(y_tr=3e-9, e_tr=1.0), TECH_90NM)

    def test_trap_validation(self):
        with pytest.raises(ModelError):
            Trap(y_tr=-1e-9, e_tr=1.0)
        with pytest.raises(ModelError):
            Trap(y_tr=1e-9, e_tr=1.0, degeneracy=0.0)


class TestRatesFromBias:
    @settings(max_examples=60, deadline=None)
    @given(y_tr=depths, e_tr=energies, v_gs=biases)
    def test_property_sum_is_bias_independent(self, y_tr, e_tr, v_gs):
        """Paper Eq. 1: the rate sum never depends on the bias."""
        trap = Trap(y_tr=y_tr, e_tr=e_tr)
        lam_c, lam_e = rates_from_bias(v_gs, trap, TECH_90NM)
        assert lam_c + lam_e == pytest.approx(
            propensity_sum(trap, TECH_90NM), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(y_tr=depths, e_tr=energies, v_gs=biases)
    def test_property_ratio_is_beta(self, y_tr, e_tr, v_gs):
        """Paper Eq. 2: lambda_e/lambda_c == g exp((E_T-E_F)/kT)."""
        trap = Trap(y_tr=y_tr, e_tr=e_tr)
        lam_c, lam_e = rates_from_bias(v_gs, trap, TECH_90NM)
        log_beta = log_beta_from_bias(v_gs, trap, TECH_90NM)
        if abs(log_beta) < 500:  # both rates representable
            if lam_c > 0 and lam_e > 0:
                assert math.log(lam_e / lam_c) == pytest.approx(
                    log_beta, abs=1e-6)

    def test_gate_high_fills_trap(self):
        """Capture dominates at high V_gs, emission at low V_gs."""
        tech = TECH_90NM
        y = 1.2e-9
        trap = Trap(y_tr=y, e_tr=crossing_energy(0.5 * tech.vdd, y, tech))
        lam_c_hi, lam_e_hi = rates_from_bias(tech.vdd, trap, tech)
        lam_c_lo, lam_e_lo = rates_from_bias(0.0, trap, tech)
        assert lam_c_hi > lam_e_hi
        assert lam_c_lo < lam_e_lo

    def test_degeneracy_shifts_balance(self):
        tech = TECH_90NM
        y = 1.0e-9
        e = crossing_energy(0.5, y, tech)
        plain = Trap(y_tr=y, e_tr=e)
        degenerate = Trap(y_tr=y, e_tr=e, degeneracy=4.0)
        __, lam_e_plain = rates_from_bias(0.5, plain, tech)
        __, lam_e_deg = rates_from_bias(0.5, degenerate, tech)
        assert lam_e_deg > lam_e_plain

    def test_vectorised(self):
        trap = Trap(y_tr=1.0e-9, e_tr=1.0)
        v = np.linspace(0.0, 1.0, 7)
        lam_c, lam_e = rates_from_bias(v, trap, TECH_90NM)
        assert lam_c.shape == v.shape
        assert np.allclose(lam_c + lam_e, propensity_sum(trap, TECH_90NM))

    def test_no_overflow_at_extreme_offsets(self):
        """Very shallow/deep energies must not produce inf/nan."""
        trap_hi = Trap(y_tr=1.0e-9, e_tr=10.0)
        trap_lo = Trap(y_tr=1.0e-9, e_tr=-10.0)
        for trap in (trap_hi, trap_lo):
            lam_c, lam_e = rates_from_bias(0.5, trap, TECH_90NM)
            assert np.isfinite(lam_c) and np.isfinite(lam_e)


class TestEquilibriumOccupancy:
    def test_half_at_crossing(self):
        tech = TECH_90NM
        y = 1.0e-9
        v = 0.6
        trap = Trap(y_tr=y, e_tr=crossing_energy(v, y, tech))
        assert equilibrium_occupancy(v, trap, tech) == pytest.approx(0.5, abs=1e-6)

    def test_monotone_in_bias(self):
        trap = Trap(y_tr=1.0e-9, e_tr=1.0)
        v = np.linspace(0.0, 1.2, 40)
        occ = equilibrium_occupancy(v, trap, TECH_90NM)
        assert np.all(np.diff(occ) >= 0.0)
        assert occ[0] < 0.5 < occ[-1] or occ[-1] <= 0.5  # fills with bias



class TestNonFiniteBias:
    """The per-trap rate path refuses a NaN/inf bias like the population
    path does; it used to return NaN rates with at most a warning."""

    TRAP = Trap(y_tr=0.5e-9, e_tr=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("function", [log_beta_from_bias,
                                          rates_from_bias,
                                          equilibrium_occupancy])
    def test_scalar_and_array_bias_rejected(self, function, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="finite"):
                function(bad, self.TRAP, TECH_90NM)
            with pytest.raises(ModelError, match="finite"):
                function(np.array([0.0, bad, 1.0]), self.TRAP, TECH_90NM)

    def test_finite_bias_unchanged(self):
        lam_c, lam_e = rates_from_bias(0.5, self.TRAP, TECH_90NM)
        assert isinstance(lam_c, float) and isinstance(lam_e, float)
        column_c, _ = rates_from_bias(np.array([0.5]), self.TRAP, TECH_90NM)
        assert column_c[0] == lam_c
        assert isinstance(equilibrium_occupancy(0, self.TRAP, TECH_90NM),
                          float)

class TestTrapPropensityFactory:
    def test_bound_equals_eq1_sum(self):
        """The kernel bound is the paper's tight lambda*."""
        tech = TECH_90NM
        trap = Trap(y_tr=1.2e-9, e_tr=crossing_energy(0.5, 1.2e-9, tech))
        times = np.linspace(0.0, 1e-6, 101)
        v_gs = 0.5 + 0.5 * np.sin(2 * np.pi * 5e6 * times)
        prop = population_propensity([trap], tech, times, v_gs).single(0)
        total = propensity_sum(trap, tech)
        assert prop.rate_bound() <= total * (1.0 + 1e-9)
        assert prop.rate_bound() >= 0.5 * total

    def test_propensity_tracks_bias(self):
        tech = TECH_90NM
        trap = Trap(y_tr=1.2e-9, e_tr=crossing_energy(0.5, 1.2e-9, tech))
        times = np.array([0.0, 1e-6])
        prop_hi = population_propensity(
            [trap], tech, times, np.array([1.0, 1.0])).single(0)
        prop_lo = population_propensity(
            [trap], tech, times, np.array([0.0, 0.0])).single(0)
        assert prop_hi.capture(0.5e-6) > prop_lo.capture(0.5e-6)
        assert prop_hi.emission(0.5e-6) < prop_lo.emission(0.5e-6)
