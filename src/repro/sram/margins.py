"""Static noise margin and write-margin analysis (extension).

The paper frames RTN's impact in V_dd-margin terms (Fig. 2); these
helpers quantify the cell's margins so that the Fig.-2 reproduction can
express RTN as an equivalent margin loss:

- :func:`half_cell_vtc` — the voltage transfer curve of one half of the
  cell (inverter plus its pass-gate load) in *hold* or *read*
  configuration.
- :func:`static_noise_margin` — the classic Seevinck butterfly-square
  SNM: rotate the two VTCs by 45 degrees and take the smaller lobe's
  maximum vertical gap.
- :func:`wordline_write_margin` — the lowest wordline level that still
  flips the cell in a transient write, found by bisection.
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError
from ..spice.circuit import Circuit
from ..spice.dcop import dc_sweep
from ..spice.elements import Mosfet, VoltageSource
from ..spice.sources import DC
from ..spice.transient import simulate_transient
from .cell import SramCellSpec, build_sram_cell
from .patterns import build_pattern_waveforms, write_pattern

#: VTC sweep resolution.
_VTC_POINTS = 81


def half_cell_vtc(spec: SramCellSpec, mode: str = "hold",
                  points: int = _VTC_POINTS
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Voltage transfer curve of one inverter with its pass-gate load.

    Parameters
    ----------
    spec:
        Cell geometry/supply.
    mode:
        ``"hold"`` (wordline low — the pass gate is off) or ``"read"``
        (wordline high, bitline precharged to V_dd — the disturb-prone
        configuration).
    points:
        Sweep resolution.

    Returns
    -------
    (v_in, v_out):
        Input and output voltage arrays.
    """
    if mode not in ("hold", "read"):
        raise AnalysisError(f"mode must be 'hold' or 'read', got {mode!r}")
    vdd = spec.supply
    circuit = Circuit(title=f"half-cell {mode}")
    VoltageSource("VDD", circuit, "vdd", "0", DC(vdd))
    vin = VoltageSource("VIN", circuit, "in", "0", DC(0.0))
    Mosfet("MPU", circuit, "out", "in", "vdd", "vdd",
           spec.device_params("M3"))
    Mosfet("MPD", circuit, "out", "in", "0", "0", spec.device_params("M5"))
    wl_level = vdd if mode == "read" else 0.0
    VoltageSource("VWL", circuit, "wl", "0", DC(wl_level))
    VoltageSource("VBL", circuit, "bl", "0", DC(vdd))
    Mosfet("MPG", circuit, "bl", "wl", "out", "0", spec.device_params("M1"))

    sweep = np.linspace(0.0, vdd, points)
    solutions = dc_sweep(circuit, vin, sweep, initial_guess={"out": vdd})
    return sweep, np.array([solution["out"] for solution in solutions])


def _largest_square(x: np.ndarray, y: np.ndarray) -> float:
    """Largest axis-aligned square nested in one butterfly lobe.

    The lobe is bounded above by the VTC ``y = f(x)`` and below by the
    mirrored curve ``y = f^{-1}(x)``.  The maximal square has its
    lower-left corner on the mirror and its upper-right corner on the
    VTC, so for each anchor ``a`` we place ``b = f^{-1}(a)`` and take
    the largest ``s`` with ``b + s <= f(a + s)``.
    """
    # f is monotone decreasing; its inverse maps y values back to x.
    # Rows are anchors, columns candidate sides.
    s_grid = np.linspace(0.0, float(x[-1] - x[0]), 512)
    anchors = np.linspace(float(x[0]), float(x[-1]), 201)
    b = np.interp(anchors, y[::-1], x[::-1])
    upper = np.interp(anchors[:, None] + s_grid, x, y)
    feasible = b[:, None] + s_grid <= upper
    # The last feasible side of each anchor that has one.
    last = s_grid.size - 1 - np.argmax(feasible[:, ::-1], axis=1)
    return float(s_grid[last[feasible.any(axis=1)]].max(initial=0.0))


def static_noise_margin(spec: SramCellSpec, mode: str = "hold",
                        points: int = _VTC_POINTS) -> float:
    """Butterfly SNM [V] of the cell in the given mode.

    Both halves of a symmetric cell share one VTC; the butterfly is the
    curve plus its mirror about ``v_out = v_in``.  The SNM is the side
    of the largest square inscribed in the smaller of the two lobes
    (here computed for both lobes explicitly, which also covers
    asymmetric cells with per-device threshold shifts).
    """
    v_in, v_out = half_cell_vtc(spec, mode=mode, points=points)
    lobe_upper = _largest_square(v_in, v_out)
    # The lower-right lobe is the upper lobe of the mirrored curve.
    lobe_lower = _largest_square(v_out[::-1], v_in[::-1])
    return float(min(lobe_upper, lobe_lower))


def wordline_write_margin(spec: SramCellSpec, resolution: float = 0.01,
                          wl_width: float = 2e-9) -> float:
    """Lowest wordline level [V] that still writes the cell.

    A *smaller* value means a healthier write (more margin below the
    nominal V_dd wordline).  Found by bisection on transient write-1
    runs; returns ``inf`` when even a full-swing wordline fails.
    """
    vdd = spec.supply

    def write_succeeds(wl_high: float) -> bool:
        cell = build_sram_cell(spec)
        pattern = write_pattern([1], cycle=max(8e-9, 3 * wl_width),
                                wl_delay=1e-9, wl_width=wl_width)
        waves = build_pattern_waveforms(pattern, cell.vdd)
        schedule = waves.schedule[0]
        from ..spice.sources import PULSE
        wl = PULSE(0.0, wl_high, delay=schedule.wl_on - 0.1e-9,
                   rise=0.1e-9, fall=0.1e-9,
                   width=schedule.wl_off - schedule.wl_on)
        cell.set_stimuli(wl, waves.bl, waves.blb)
        waveform = simulate_transient(
            cell.circuit, waves.duration, waves.suggested_dt,
            initial_voltages=cell.initial_voltages(0))
        return waveform.final("q") > 0.9 * vdd

    if not write_succeeds(vdd):
        return float("inf")
    low, high = 0.0, vdd  # fails at 0, succeeds at vdd
    while high - low > resolution:
        mid = 0.5 * (low + high)
        if write_succeeds(mid):
            high = mid
        else:
            low = mid
    return float(high)
