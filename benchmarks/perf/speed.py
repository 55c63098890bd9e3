"""How fast the machine runs right now, to rescale wall times by.

The cores of a small shared virtual machine slow down by up to about
40 % while neighbours on the host are busy, for stretches of seconds to
minutes, and nothing inside the virtual machine shows it (no steal
time, CPU time grows with wall time).  A raw wall time then measures
the neighbours as much as the program.

:func:`calibrate` times a fixed piece of work made of the kinds of work
the program does -- interpreted arithmetic, dictionaries and small
objects, method calls with small dense solves, and numpy passes over
an 8 MB array -- because neighbours slow each kind by a different
amount.  The benchmark times it right before and right
after every timed run, and :func:`rescale` turns a wall time into
*seconds at reference speed*: the wall time times ``REFERENCE_S`` over
the calibration time around it.  A slow stretch lengthens both and
cancels; a slower program lengthens only the wall time and shows.
"""

from __future__ import annotations

import functools
import time

import numpy as np

__all__ = ["REFERENCE_S", "calibrate", "rescale"]

#: What :func:`calibrate` takes on the 2-core machine the benchmark was
#: written on (Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4) in a quiet
#: stretch [s].  Only the unit of the rescaled times depends on it.
REFERENCE_S = 0.14


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def step(self, h: float) -> "_Point":
        return _Point(self.x + h * self.y, self.y - h * self.x)


@functools.lru_cache(maxsize=1)
def _large_array() -> np.ndarray:
    # 8 MB, allocated once so that no call pays first-touch page faults.
    array = np.random.default_rng(20110314).random(1_000_000)
    array.flags.writeable = False
    return array


def calibrate() -> float:
    """Seconds a fixed, deterministic piece of work takes now."""
    large = _large_array()
    matrix = 3.0 * np.eye(8) + 0.1
    started = time.perf_counter()

    total = 0.0
    for i in range(300_000):
        total += (i * 0.5) % 7.0

    index = {}
    for i in range(80_000):
        index[str(i)] = (float(i), i)
    for i in range(0, 80_000, 2):
        total += index[str(i)][0]

    point = _Point(1.0, 0.0)
    for _ in range(80_000):
        point = point.step(1e-3)
    vector = np.ones(8)
    for _ in range(2_000):
        vector = np.linalg.solve(matrix, vector) + 0.1

    for _ in range(8):
        total += float((np.sqrt(large) * 1.5 + large).sum())
        total += float(np.sort(large[:100_000])[0])

    return time.perf_counter() - started


def rescale(wall: float, calibration: float) -> float:
    """``wall`` in seconds at reference speed, given the calibration time
    measured around it."""
    return wall * REFERENCE_S / calibration
