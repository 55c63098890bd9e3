"""The RTN current trace container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError, ModelError


@dataclass(frozen=True)
class RTNTrace:
    """An RTN current waveform sampled on a time grid.

    Attributes
    ----------
    times:
        Strictly increasing sample times [s].
    current:
        Noise current samples [A], same length as ``times``.  Sign
        convention: the value is signed like the host device's nominal
        channel current (positive drain -> source), and the injection
        layer orients the source so the noise always *opposes* that
        current (paper Fig. 4).
    label:
        Optional identifier (e.g. the transistor name).
    """

    times: np.ndarray
    current: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        current = np.asarray(self.current, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ModelError("times must be 1-D with >= 2 samples")
        if current.shape != times.shape:
            raise ModelError(
                f"current shape {current.shape} must match times "
                f"shape {times.shape}"
            )
        if np.any(np.diff(times) <= 0.0):
            raise ModelError("times must be strictly increasing")
        finite = np.isfinite(current)
        if not np.all(finite):
            bad = int(current.size - np.count_nonzero(finite))
            label = f" in trace {self.label!r}" if self.label else ""
            raise ModelError(
                f"current samples must be finite: {bad} of "
                f"{current.size} samples are NaN/inf{label}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "current", current)

    # ------------------------------------------------------------------
    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_stop(self) -> float:
        return float(self.times[-1])

    @property
    def dt_mean(self) -> float:
        """Mean sample spacing [s]."""
        return float((self.t_stop - self.t_start) / (self.times.size - 1))

    def value_at(self, t):
        """Linearly interpolated current at time(s) ``t`` [A].

        Outside the grid the end values hold (constant extrapolation),
        matching how the SPICE layer treats injected sources.
        """
        return np.interp(t, self.times, self.current)

    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "RTNTrace":
        """Return a copy with the current multiplied by ``factor``.

        This is the paper's x30 accelerated-RTN illustration knob
        (§IV-B: "we have scaled the I_RTN trace of each transistor by a
        factor of 30").
        """
        return RTNTrace(times=self.times, current=self.current * factor,
                        label=self.label)

    def superpose(self, other: "RTNTrace") -> "RTNTrace":
        """Return the sum of two traces on this trace's grid."""
        if not isinstance(other, RTNTrace):
            raise AnalysisError("can only superpose RTNTrace instances")
        return RTNTrace(
            times=self.times,
            current=self.current + other.value_at(self.times),
            label=self.label,
        )

    def __add__(self, other: "RTNTrace") -> "RTNTrace":
        return self.superpose(other)

    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Time-weighted mean current [A] (trapezoidal)."""
        return float(np.trapezoid(self.current, self.times)
                     / (self.t_stop - self.t_start))

    def variance(self) -> float:
        """Time-weighted variance [A^2] (trapezoidal)."""
        mu = self.mean()
        return float(np.trapezoid((self.current - mu) ** 2, self.times)
                     / (self.t_stop - self.t_start))

    def peak(self) -> float:
        """Largest |current| sample [A]."""
        return float(np.abs(self.current).max())

    @staticmethod
    def zeros(grid: np.ndarray, label: str = "") -> "RTNTrace":
        """A zero trace on the given grid (a trap-free device)."""
        grid = np.asarray(grid, dtype=float)
        return RTNTrace(times=grid, current=np.zeros_like(grid), label=label)
