"""Tests for stimulus functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice.sources import DC, PULSE, PWL, SIN

pytestmark = pytest.mark.tier1


class TestDC:
    def test_constant(self):
        src = DC(1.5)
        assert src(0.0) == 1.5
        assert src(1e9) == 1.5

    def test_vectorised(self):
        values = DC(2.0)(np.linspace(0, 1, 5))
        assert np.all(values == 2.0)


class TestPulse:
    def make(self) -> PULSE:
        return PULSE(v1=0.0, v2=1.0, delay=1.0, rise=0.5, fall=0.5,
                     width=2.0, period=10.0)

    def test_before_delay(self):
        assert self.make()(0.5) == 0.0

    def test_rising_edge_midpoint(self):
        assert self.make()(1.25) == pytest.approx(0.5)

    def test_plateau(self):
        assert self.make()(2.0) == 1.0
        assert self.make()(3.4) == 1.0

    def test_falling_edge(self):
        assert self.make()(3.75) == pytest.approx(0.5)

    def test_back_to_base(self):
        assert self.make()(5.0) == 0.0

    def test_periodic_repeat(self):
        src = self.make()
        assert src(12.0) == pytest.approx(src(2.0))
        assert src(13.75) == pytest.approx(src(3.75))

    def test_no_repeat_when_period_zero(self):
        src = PULSE(0.0, 1.0, delay=0.0, rise=0.1, fall=0.1, width=1.0)
        assert src(100.0) == 0.0

    def test_inverted_pulse(self):
        src = PULSE(1.0, 0.0, delay=0.0, rise=0.1, fall=0.1, width=1.0)
        assert src(0.5) == 0.0
        assert src(5.0) == 1.0

    def test_validation(self):
        with pytest.raises(NetlistError):
            PULSE(0, 1, rise=0.0)
        with pytest.raises(NetlistError):
            PULSE(0, 1, width=-1.0)
        with pytest.raises(NetlistError):
            PULSE(0, 1, rise=1.0, fall=1.0, width=1.0, period=2.0)

    def test_vectorised(self):
        t = np.linspace(0, 10, 101)
        values = self.make()(t)
        assert values.shape == t.shape
        assert values.min() == 0.0
        assert values.max() == 1.0


class TestPWL:
    def test_interpolation_and_clamping(self):
        src = PWL(times=(0.0, 1.0, 2.0), values=(0.0, 2.0, 0.0))
        assert src(-1.0) == 0.0
        assert src(0.5) == pytest.approx(1.0)
        assert src(1.0) == 2.0
        assert src(5.0) == 0.0

    def test_from_arrays(self):
        src = PWL.from_arrays(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert src(0.5) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(NetlistError):
            PWL(times=(0.0,), values=(1.0,))
        with pytest.raises(NetlistError):
            PWL(times=(0.0, 0.0), values=(1.0, 2.0))
        with pytest.raises(NetlistError):
            PWL(times=(0.0, 1.0), values=(1.0,))
        # NaN compares false with everything, so it must be rejected
        # explicitly rather than slip past the monotonicity check.
        for times, values in (((0.0, np.nan), (1.0, 2.0)),
                              ((np.nan, 1.0), (1.0, 2.0)),
                              ((0.0, np.inf), (1.0, 2.0)),
                              ((0.0, 1.0), (np.nan, 2.0)),
                              ((0.0, 1.0), (1.0, -np.inf))):
            with pytest.raises(NetlistError, match="finite"):
                PWL(times=times, values=values)

    def test_equality_and_hash_see_only_the_breakpoints(self):
        a = PWL(times=(0.0, 1.0), values=(1.0, 3.0))
        b = PWL.from_arrays(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert a == b and hash(a) == hash(b)
        assert a != PWL(times=(0.0, 1.0), values=(1.0, 4.0))


class TestSIN:
    def test_waveform(self):
        src = SIN(offset=1.0, amplitude=0.5, frequency=1.0)
        assert src(0.0) == pytest.approx(1.0)
        assert src(0.25) == pytest.approx(1.5)
        assert src(0.75) == pytest.approx(0.5)

    def test_delay_holds_offset(self):
        src = SIN(offset=2.0, amplitude=1.0, frequency=1.0, delay=1.0)
        assert src(0.5) == 2.0

    def test_damping(self):
        src = SIN(offset=0.0, amplitude=1.0, frequency=1.0, damping=1.0)
        assert abs(src(10.25)) < np.exp(-10.0) * 1.1

    def test_validation(self):
        with pytest.raises(NetlistError):
            SIN(0.0, 1.0, 0.0)
        with pytest.raises(NetlistError):
            SIN(0.0, 1.0, 1.0, damping=-1.0)


@pytest.mark.parametrize("source", [
    DC(0.7),
    PULSE(v1=0.0, v2=1.2, delay=1e-9, rise=1e-10, fall=2e-10, width=3e-10,
          period=1.5e-9),
    PWL(times=(0.0, 1e-9, 2.5e-9, 4e-9), values=(0.0, 1.2, -0.3, 0.9)),
    SIN(0.5, 0.4, 1.3e9, delay=2e-10, damping=1e8),
], ids=["DC", "PULSE", "PWL", "SIN"])
def test_array_call_gives_the_scalar_bits(source):
    """A transient evaluates a pure source once on its whole step grid
    and reads the rows as the scalar calls would have returned them."""
    t = 0.0
    times = []
    while t < 5e-9:
        t += min(1.3e-11, 5e-9 - t)
        times.append(t)
    grid = source(np.array(times))
    scalar = np.array([source(t) for t in times])
    assert grid.tobytes() == scalar.tobytes()
