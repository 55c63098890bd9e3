"""Time-dependent stimulus functions for independent sources.

These mirror the classic SPICE source cards.  Every stimulus is a
callable ``value(t)`` accepting scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NetlistError


@dataclass(frozen=True)
class DC:
    """A constant value."""

    value: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        result = np.full(t.shape, self.value)
        return result if t.ndim else float(self.value)


@dataclass(frozen=True)
class PULSE:
    """The SPICE PULSE source.

    ``PULSE(v1 v2 delay rise fall width period)`` — the value starts at
    ``v1``, ramps to ``v2`` over ``rise`` after ``delay``, holds for
    ``width``, ramps back over ``fall``, and repeats every ``period``
    (a non-positive period disables repetition).
    """

    v1: float
    v2: float
    delay: float = 0.0
    rise: float = 1e-12
    fall: float = 1e-12
    width: float = 1e-9
    period: float = 0.0

    def __post_init__(self) -> None:
        if self.rise <= 0.0 or self.fall <= 0.0:
            raise NetlistError("rise and fall times must be positive")
        if self.width < 0.0:
            raise NetlistError("pulse width must be non-negative")
        cycle = self.rise + self.width + self.fall
        if self.period > 0.0 and self.period < cycle:
            raise NetlistError(
                f"period {self.period:g} shorter than rise+width+fall "
                f"{cycle:g}"
            )

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        local = t_arr - self.delay
        if self.period > 0.0:
            local = np.where(local >= 0.0, np.mod(local, self.period), local)
        ramp_up = np.clip(local / self.rise, 0.0, 1.0)
        ramp_down = np.clip(
            (local - self.rise - self.width) / self.fall, 0.0, 1.0)
        value = self.v1 + (self.v2 - self.v1) * (ramp_up - ramp_down)
        return value if t_arr.ndim else float(value)


@dataclass(frozen=True)
class PWL:
    """Piecewise-linear stimulus through ``(times, values)`` points.

    Before the first point the first value holds; after the last point
    the last value holds.  The breakpoints are converted to arrays once,
    at construction; equality and hashing see only the two tuples.
    """

    times: tuple
    values: tuple

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise NetlistError("PWL needs >= 2 points")
        if values.shape != times.shape:
            raise NetlistError("PWL times and values must match")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise NetlistError("PWL times and values must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise NetlistError("PWL times must be strictly increasing")
        object.__setattr__(self, "times", tuple(float(x) for x in times))
        object.__setattr__(self, "values", tuple(float(x) for x in values))
        object.__setattr__(self, "_points", (times, values))

    @classmethod
    def from_arrays(cls, times, values) -> "PWL":
        """Build from array-likes (convenience for generated waveforms)."""
        return cls(times=tuple(np.asarray(times, dtype=float)),
                   values=tuple(np.asarray(values, dtype=float)))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        value = np.interp(t_arr, *self._points)
        return value if t_arr.ndim else float(value)


@dataclass(frozen=True)
class SIN:
    """The SPICE SIN source: ``offset + ampl * sin(2 pi f (t - delay))``
    with optional exponential damping, zero before ``delay``."""

    offset: float
    amplitude: float
    frequency: float
    delay: float = 0.0
    damping: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency <= 0.0:
            raise NetlistError("SIN frequency must be positive")
        if self.damping < 0.0:
            raise NetlistError("SIN damping must be non-negative")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        local = t_arr - self.delay
        wave = self.offset + self.amplitude * np.where(
            local >= 0.0,
            np.sin(2.0 * np.pi * self.frequency * local)
            * np.exp(-self.damping * np.maximum(local, 0.0)),
            0.0,
        )
        return wave if t_arr.ndim else float(wave)
