"""Tests for the EKV compact model, including derivative correctness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices.ekv import (
    drain_current,
    drain_current_derivatives,
    interpolation_f,
    interpolation_f_prime,
    inversion_charge_density,
    saturation_current,
    transconductance,
)
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.errors import ModelError

pytestmark = pytest.mark.tier1

NMOS = MosfetParams.nominal(TECH_90NM, "n")
PMOS = MosfetParams.nominal(TECH_90NM, "p")

voltages = st.floats(min_value=-1.2, max_value=1.2, allow_nan=False)


class TestInterpolationFunction:
    def test_weak_inversion_limit(self):
        """F(u) -> e^u for u << 0."""
        u = -30.0
        assert interpolation_f(u) == pytest.approx(np.exp(u), rel=1e-5)

    def test_strong_inversion_limit(self):
        """F(u) -> (u/2)^2 for u >> 0."""
        u = 80.0
        assert interpolation_f(u) == pytest.approx((u / 2.0) ** 2, rel=0.1)

    def test_no_overflow_at_extremes(self):
        assert np.isfinite(interpolation_f(1e4))
        assert interpolation_f(-1e4) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(u=st.floats(min_value=-50.0, max_value=50.0))
    def test_property_derivative_matches_numeric(self, u):
        h = 1e-6 * max(1.0, abs(u))
        numeric = (interpolation_f(u + h) - interpolation_f(u - h)) / (2 * h)
        analytic = interpolation_f_prime(u)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(u=st.floats(min_value=-700.0, max_value=700.0))
    def test_property_monotone_nonnegative(self, u):
        assert interpolation_f(u) >= 0.0
        assert interpolation_f_prime(u) >= 0.0


class TestNmosCurrent:
    def test_off_state_is_tiny(self):
        i_off = drain_current(NMOS, 0.0, TECH_90NM.vdd, 0.0)
        i_on = drain_current(NMOS, TECH_90NM.vdd, TECH_90NM.vdd, 0.0)
        assert i_on > 1e-4  # ~hundreds of microamps
        assert i_off < 1e-8
        assert i_on / i_off > 1e4

    def test_zero_vds_zero_current(self):
        assert drain_current(NMOS, 1.0, 0.4, 0.4) == pytest.approx(0.0, abs=1e-18)

    def test_symmetry_source_drain_swap(self):
        """EKV is symmetric: swapping D and S negates the current."""
        forward = drain_current(NMOS, 0.8, 0.6, 0.1)
        reverse = drain_current(NMOS, 0.8, 0.1, 0.6)
        assert forward == pytest.approx(-reverse)

    def test_monotone_in_vgs(self):
        vgs = np.linspace(0.0, 1.0, 50)
        i_d = drain_current(NMOS, vgs, 1.0, 0.0)
        assert np.all(np.diff(i_d) > 0.0)

    def test_monotone_in_vds(self):
        vds = np.linspace(0.0, 1.0, 50)
        i_d = drain_current(NMOS, 0.8, vds, 0.0)
        assert np.all(np.diff(i_d) > 0.0)

    def test_saturation_flattens(self):
        i_low = drain_current(NMOS, 1.0, 0.1, 0.0)
        i_sat1 = drain_current(NMOS, 1.0, 0.9, 0.0)
        i_sat2 = drain_current(NMOS, 1.0, 1.0, 0.0)
        assert (i_sat2 - i_sat1) / i_sat2 < 0.01
        assert i_sat1 > i_low

    def test_subthreshold_slope(self):
        """Exponential region: decade per n*Vt*ln(10) of gate swing."""
        v1, v2 = 0.02, 0.12
        i1 = drain_current(NMOS, v1, 1.0, 0.0)
        i2 = drain_current(NMOS, v2, 1.0, 0.0)
        n = TECH_90NM.slope_factor
        v_t = 0.025852
        expected_ratio = np.exp((v2 - v1) / (n * v_t))
        assert i2 / i1 == pytest.approx(expected_ratio, rel=0.1)

    def test_body_effect_via_bulk(self):
        """Raising the bulk (forward body bias) increases the current."""
        i_0 = drain_current(NMOS, 0.5, 1.0, 0.0, 0.0)
        i_fb = drain_current(NMOS, 0.5, 1.0, 0.0, 0.2)
        assert i_fb > i_0


class TestPmosCurrent:
    def test_mirror_of_nmos_shape(self):
        """A PMOS conducts when the gate is low relative to the source."""
        vdd = TECH_90NM.vdd
        i_on = drain_current(PMOS, 0.0, 0.0, vdd, vdd)
        i_off = drain_current(PMOS, vdd, 0.0, vdd, vdd)
        assert i_on < -1e-5  # conventional current flows source->drain
        assert abs(i_off) < 1e-8

    def test_polarity_validation(self):
        with pytest.raises(ModelError):
            MosfetParams(1e-6, 1e-7, "x", TECH_90NM)


#: Source one float32 ulp off the drain: the channel current nearly
#: cancels there, and a plain h = 1e-7 central difference of the PMOS
#: bulk derivative was 6 % off.
NEAR_CROSSING = dict(v_g=-1.0, v_d=0.0, v_s=1.192092896e-07, v_b=-1.0)


class TestDerivatives:
    @settings(max_examples=60, deadline=None)
    @given(v_g=voltages, v_d=voltages, v_s=voltages, v_b=voltages)
    @example(**NEAR_CROSSING)
    def test_property_nmos_derivatives_match_numeric(self, v_g, v_d, v_s, v_b):
        self._check(NMOS, v_g, v_d, v_s, v_b)

    @settings(max_examples=60, deadline=None)
    @given(v_g=voltages, v_d=voltages, v_s=voltages, v_b=voltages)
    @example(**NEAR_CROSSING)
    def test_property_pmos_derivatives_match_numeric(self, v_g, v_d, v_s, v_b):
        self._check(PMOS, v_g, v_d, v_s, v_b)

    @staticmethod
    def _check(params, v_g, v_d, v_s, v_b):
        i, dg, dd, ds, db = drain_current_derivatives(params, v_g, v_d, v_s, v_b)
        h = 1e-4
        scale = max(abs(i), params.i_spec)

        def central(step, **delta):
            args = {"v_g": v_g, "v_d": v_d, "v_s": v_s, "v_b": v_b}
            hi = {k: v + step * delta.get(k, 0.0) for k, v in args.items()}
            lo = {k: v - step * delta.get(k, 0.0) for k, v in args.items()}
            return (drain_current(params, hi["v_g"], hi["v_d"], hi["v_s"], hi["v_b"])
                    - drain_current(params, lo["v_g"], lo["v_d"], lo["v_s"], lo["v_b"])) \
                / (2 * step)

        def numeric(**delta):
            # Richardson extrapolation of central differences: the O(h^2)
            # error cancels, so h can stay far above the rounding floor
            # of a current that nearly cancels (v_d close to v_s).  Within
            # 1 % of the tolerance of high-precision derivatives at
            # random and near-crossing biases.
            return (4.0 * central(h / 2, **delta) - central(h, **delta)) / 3.0

        assert dg == pytest.approx(numeric(v_g=1.0), rel=1e-3, abs=1e-6 * scale)
        assert dd == pytest.approx(numeric(v_d=1.0), rel=1e-3, abs=1e-6 * scale)
        assert ds == pytest.approx(numeric(v_s=1.0), rel=1e-3, abs=1e-6 * scale)
        assert db == pytest.approx(numeric(v_b=1.0), rel=1e-3, abs=1e-6 * scale)

    def test_conductance_signs_in_normal_operation(self):
        __, dg, dd, ds, __ = drain_current_derivatives(NMOS, 0.8, 0.5, 0.0, 0.0)
        assert dg > 0.0  # gm
        assert dd > 0.0  # gds
        assert ds < 0.0  # source conductance


class TestTransconductance:
    def test_positive_and_increasing(self):
        vgs = np.linspace(0.2, 1.0, 20)
        gm = transconductance(NMOS, vgs, 1.0)
        assert np.all(gm > 0.0)
        assert gm[-1] > gm[0]

    def test_pmos_magnitude(self):
        gm_n = transconductance(NMOS, 1.0, 1.0)
        gm_p = transconductance(PMOS, 1.0, 1.0)
        assert gm_p > 0.0
        assert gm_p < gm_n  # lower hole mobility and same topology


class TestChargeAndSaturation:
    def test_inversion_charge_strong_limit(self):
        v_gs = 1.0
        q_inv = inversion_charge_density(NMOS, v_gs)
        linear = TECH_90NM.c_ox * (v_gs - NMOS.vt0)
        assert q_inv == pytest.approx(linear, rel=0.1)

    def test_inversion_charge_weak_decay(self):
        q1 = inversion_charge_density(NMOS, 0.1)
        q2 = inversion_charge_density(NMOS, 0.2)
        assert 0.0 < q1 < q2

    def test_pmos_takes_on_direction_drive(self):
        """Callers pass v_sg for PMOS; a positive drive means conducting."""
        q_on = inversion_charge_density(PMOS, 1.0)
        q_off = inversion_charge_density(PMOS, -1.0)
        assert q_on > 100 * q_off

    def test_saturation_current_polarity(self):
        assert saturation_current(NMOS, 1.0) > 0.0
        assert saturation_current(PMOS, 1.0) > 0.0


class TestMosfetParams:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ModelError):
            MosfetParams(0.0, 1e-7, "n", TECH_90NM)

    def test_nominal_uses_card_widths(self):
        assert MosfetParams.nominal(TECH_90NM, "n").width == \
            TECH_90NM.w_nominal_n
        assert MosfetParams.nominal(TECH_90NM, "p").width == \
            TECH_90NM.w_nominal_p

    def test_scaled(self):
        doubled = NMOS.scaled(width_factor=2.0)
        assert doubled.width == 2 * NMOS.width
        assert doubled.length == NMOS.length
        assert doubled.i_spec == pytest.approx(2 * NMOS.i_spec)

    def test_area(self):
        assert NMOS.area == NMOS.width * NMOS.length
