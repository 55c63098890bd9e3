"""Tests for the NumPy logistic sigmoid of :mod:`repro.devices.ekv`.

SciPy stays off the run path, so ``scipy.special.expit`` is only the
reference here.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import special

from repro.devices.ekv import expit, interpolation_f_prime

pytestmark = pytest.mark.tier1


def ulp_distance(a, b) -> np.ndarray:
    """Units in the last place between same-signed finite doubles."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a.view(np.int64) - b.view(np.int64))


#: A dense grid over the whole double range of the sigmoid, the
#: transition region sampled more finely.
GRID = np.concatenate([np.linspace(-745.0, 745.0, 400_001),
                       np.linspace(-40.0, 40.0, 200_001)])


class TestAgainstScipy:
    def test_within_four_ulp_on_a_dense_grid(self):
        assert ulp_distance(expit(GRID), special.expit(GRID)).max() <= 4

    @pytest.mark.parametrize("x", [0.0, -0.0, np.inf, -np.inf])
    def test_special_values(self, x):
        assert expit(x) == special.expit(x)
        assert not np.signbit(expit(x))

    def test_nan_propagates(self):
        assert np.isnan(expit(np.nan))
        assert np.isnan(expit(np.array([0.0, np.nan, 1.0]))[1])

    def test_ekv_derivative_within_four_ulp(self):
        """``F' = -sp * expm1(-sp)`` against ``sp * expit(u/2)``, where
        ``F'`` is a normal double."""
        u = np.linspace(-600.0, 600.0, 200_001)
        sp = np.logaddexp(0.0, u / 2.0)
        reference = sp * special.expit(u / 2.0)
        assert ulp_distance(interpolation_f_prime(u), reference).max() <= 4


class TestProperties:
    def test_complement_sums_to_one(self):
        """``expit(x) + expit(-x)`` is within 1 ulp of 1."""
        total = expit(GRID) + expit(-GRID)
        assert np.all(np.abs(total - 1.0) <= np.spacing(1.0))

    def test_no_warning_over_the_double_range(self):
        x = np.concatenate([GRID, [-1e308, -800.0, 800.0, 1e308, np.inf,
                                   -np.inf, np.nan, 5e-324, -5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expit(x)
            for value in x[-9:]:
                expit(float(value))


class TestLayoutIndependence:
    """The bits of every element do not depend on the input's layout."""

    def test_reversed_view(self):
        assert expit(GRID[::-1]).tobytes() == expit(GRID)[::-1].tobytes()

    @pytest.mark.parametrize("step", [2, 3, 7])
    def test_strided_view(self, step):
        strided = GRID[::step]
        assert not strided.flags.c_contiguous
        assert expit(strided).tobytes() \
            == expit(np.ascontiguousarray(strided)).tobytes()

    def test_zero_d_and_python_float(self):
        sample = GRID[::4001]
        contiguous = expit(sample)
        for k, value in enumerate(sample):
            assert expit(np.array(value)).tobytes() \
                == contiguous[k:k + 1].tobytes()
            assert float(expit(float(value))) == contiguous[k]
