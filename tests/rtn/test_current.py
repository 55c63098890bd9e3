"""Tests for the RTN amplitude models (paper Eq. 3 and Hung et al.)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.mosfet import MosfetParams
from repro.devices.noise import carrier_number_density
from repro.devices.technology import TECH_22NM, TECH_90NM
from repro.errors import ModelError
from repro.rtn.current import (
    HungModel,
    RtnAmplitudeModel,
    VanDerZielModel,
    rtn_current_samples,
)

pytestmark = pytest.mark.tier1

NMOS_90 = MosfetParams.nominal(TECH_90NM, "n")
NMOS_22 = MosfetParams.nominal(TECH_22NM, "n")


class TestVanDerZiel:
    def test_eq3_value(self):
        """delta_I = I_d / (W L N) exactly."""
        v_gs, i_d = 1.0, 2e-4
        expected = i_d / (NMOS_90.area
                          * carrier_number_density(NMOS_90, v_gs))
        assert VanDerZielModel().amplitude(NMOS_90, v_gs, i_d) == \
            pytest.approx(expected)

    def test_amplitude_fraction_is_one_over_carriers(self):
        """delta_I / I_d equals 1 / (number of channel carriers)."""
        v_gs, i_d = 1.0, 2e-4
        amp = VanDerZielModel().amplitude(NMOS_90, v_gs, i_d)
        carriers = carrier_number_density(NMOS_90, v_gs) * NMOS_90.area
        assert amp / i_d == pytest.approx(1.0 / carriers)

    def test_smaller_device_larger_relative_amplitude(self):
        """Scaling shrinks W L N, so each trap bites harder (paper §I-A)."""
        rel_90 = VanDerZielModel().amplitude(NMOS_90, 0.8, 1.0) / 1.0
        rel_22 = VanDerZielModel().amplitude(NMOS_22, 0.8, 1.0) / 1.0
        assert rel_22 > 5 * rel_90

    def test_off_state_amplitude_vanishes_with_current(self):
        amp_off = VanDerZielModel().amplitude(NMOS_90, 0.0, 1e-10)
        amp_on = VanDerZielModel().amplitude(NMOS_90, 1.0, 2e-4)
        assert amp_off < amp_on

    def test_uses_current_magnitude(self):
        amp_pos = VanDerZielModel().amplitude(NMOS_90, 1.0, 1e-4)
        amp_neg = VanDerZielModel().amplitude(NMOS_90, 1.0, -1e-4)
        assert amp_pos == amp_neg

    def test_vectorised(self):
        v = np.array([0.5, 1.0])
        i = np.array([1e-5, 2e-4])
        amp = VanDerZielModel().amplitude(NMOS_90, v, i)
        assert amp.shape == (2,)

    def test_satisfies_protocol(self):
        assert isinstance(VanDerZielModel(), RtnAmplitudeModel)


class TestHung:
    def test_exceeds_van_der_ziel(self):
        """The mobility term only adds amplitude."""
        v_gs, i_d = 1.0, 2e-4
        vdz = VanDerZielModel().amplitude(NMOS_90, v_gs, i_d)
        hung = HungModel().amplitude(NMOS_90, v_gs, i_d)
        assert hung > vdz

    def test_reduces_to_vdz_at_zero_alpha(self):
        v_gs, i_d = 0.8, 1e-4
        assert HungModel(alpha_sc=0.0).amplitude(NMOS_90, v_gs, i_d) == \
            pytest.approx(VanDerZielModel().amplitude(NMOS_90, v_gs, i_d))

    def test_mobility_term_grows_with_inversion(self):
        """The Hung/VDZ ratio increases with carrier density."""
        i_d = 1e-4
        ratio_weak = (HungModel().amplitude(NMOS_90, 0.4, i_d)
                      / VanDerZielModel().amplitude(NMOS_90, 0.4, i_d))
        ratio_strong = (HungModel().amplitude(NMOS_90, 1.0, i_d)
                        / VanDerZielModel().amplitude(NMOS_90, 1.0, i_d))
        assert ratio_strong > ratio_weak > 1.0

    def test_rejects_negative_alpha(self):
        with pytest.raises(ModelError):
            HungModel(alpha_sc=-1.0)

    def test_satisfies_protocol(self):
        assert isinstance(HungModel(), RtnAmplitudeModel)


class TestCurrentSamples:
    def test_scales_with_filled_count(self):
        v = np.full(4, 1.0)
        i = np.full(4, 1e-4)
        n_filled = np.array([0.0, 1.0, 2.0, 3.0])
        out = rtn_current_samples(VanDerZielModel(), NMOS_90, v, i, n_filled)
        assert out[0] == 0.0
        assert out[2] == pytest.approx(2 * out[1])
        assert out[3] == pytest.approx(3 * out[1])

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            rtn_current_samples(VanDerZielModel(), NMOS_90,
                                np.ones(3), np.ones(2), np.ones(3))

    def test_rejects_negative_count(self):
        with pytest.raises(ModelError):
            rtn_current_samples(VanDerZielModel(), NMOS_90,
                                np.ones(2), np.ones(2), np.array([-1.0, 0.0]))

    def test_block_shape_validation(self):
        with pytest.raises(ModelError, match="shape"):
            rtn_current_samples(VanDerZielModel(), NMOS_90, np.ones(3),
                                np.ones(3), np.ones((2, 4)))
        with pytest.raises(ModelError, match="shape"):
            rtn_current_samples(VanDerZielModel(), NMOS_90, np.ones(3),
                                np.ones(3), np.ones((2, 2, 3)))

    def test_physical_magnitude_90nm(self):
        """One filled trap at full drive: ~0.1 uA for the 90 nm device,
        i.e. the sub-percent modulation the paper scales by 30."""
        amp = VanDerZielModel().amplitude(NMOS_90, 1.0, 2.6e-4)
        assert 1e-8 < amp < 1e-6


class TestBroadcastCurrents:
    """Every cell's current in one ``(C, M)`` broadcast equals the
    per-cell loop bit for bit: the Eq.-3 amplitude, the sign and the
    step-3 scale and clip are elementwise."""

    @pytest.mark.parametrize("model", [VanDerZielModel(), HungModel()])
    @pytest.mark.parametrize("clip", [True, False])
    def test_block_equals_per_cell_loop(self, model, clip):
        from repro.core.methodology import (
            MethodologyConfig,
            injection_currents,
            injection_trace,
        )
        from repro.sram.biases import BiasRecord

        rng = np.random.default_rng(4)
        m = 200
        times = np.linspace(0.0, 2e-9, m)
        v_drive = rng.uniform(0.0, 1.2, m)
        i_d = rng.normal(0.0, 1e-4, m)
        i_d[::17] = 0.0
        record = BiasRecord(name="M1", times=times, v_drive=v_drive,
                            i_d=i_d)
        n_filled = rng.integers(0, 40, size=(9, m)).astype(float)
        config = MethodologyConfig(rtn_scale=30.0, clip_to_nominal=clip)

        block = rtn_current_samples(model, NMOS_90, v_drive, i_d,
                                    n_filled) * np.sign(i_d)
        shaped = injection_currents(record, block, config)
        for row in range(n_filled.shape[0]):
            alone = rtn_current_samples(model, NMOS_90, v_drive, i_d,
                                        n_filled[row]) * np.sign(i_d)
            assert np.array_equal(block[row], alone)
            trace = injection_trace(record, alone, config, label="M1")
            assert np.array_equal(shaped[row], trace.current)
            # The screen metric is the row maximum.
            assert (np.max(np.abs(shaped), axis=1)[row]
                    == np.max(np.abs(trace.current)))
