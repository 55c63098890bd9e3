#!/usr/bin/env python3
"""RTN in a ring oscillator (paper future-work #4).

The paper's conclusions note that "RTN is also known to impact ring
oscillators" and conjecture RTN-driven cycle slipping in PLLs.  This
example builds a 3-stage CMOS ring from the library's EKV devices,
co-simulates one oxide trap in a pull-down against the live node
voltages, and shows the RTN signature in the oscillator domain: the
period is measurably longer while the trap is filled, i.e. two-level
drain-current noise becomes two-level period modulation (= phase noise
accumulating into cycle slips in a closed loop).

Run:  python examples/ring_oscillator_rtn.py
"""

from __future__ import annotations

import numpy as np

from repro.core.report import format_table, sparkline
from repro.devices.technology import TECH_90NM
from repro.oscillators.ring import (
    build_ring_oscillator,
    measure_periods,
    run_ring_with_rtn,
)
from repro.spice.transient import TransientOptions, simulate_transient
from repro.api import Trap
from repro.traps.band import crossing_energy
from repro.traps.propensity import propensity_sum

RTN_SCALE = 150.0  # accelerated, as in the paper's Fig. 8 (x30 there)

print("[1/2] free-running 3-stage ring ...")
ring = build_ring_oscillator(TECH_90NM)
clean = simulate_transient(ring.circuit, 3e-9, 2e-12,
                           initial_voltages=ring.initial_voltages(),
                           options=TransientOptions(record_every=2))
clean_periods = measure_periods(clean, "n0", 0.5 * ring.vdd)
print(f"      period {clean_periods.mean() * 1e12:.2f} ps "
      f"(frequency {1e-9 / clean_periods.mean():.2f} GHz), numerical "
      f"jitter {clean_periods.std() / clean_periods.mean():.1e}")

print(f"[2/2] same ring with one pull-down trap, RTN x{RTN_SCALE:.0f} ...")
y = 0.35e-9
trap = Trap(y_tr=y, e_tr=crossing_energy(0.5, y, TECH_90NM))
print(f"      trap: depth {y * 1e9:.2f} nm, propensity sum "
      f"{propensity_sum(trap, TECH_90NM):.2e} 1/s "
      "(dwells of a few ns vs a ~130 ps period)")
noisy_ring = build_ring_oscillator(TECH_90NM)
result = run_ring_with_rtn(noisy_ring, trap, stage=0,
                           rng=np.random.default_rng(5), t_stop=6e-9,
                           dt=3e-12, rtn_scale=RTN_SCALE, record_every=2)

rows = [
    ["free-running", f"{clean_periods.mean() * 1e12:.2f}"],
    ["trap empty", f"{result.period_when_empty * 1e12:.2f}"],
    ["trap filled", f"{result.period_when_filled * 1e12:.2f}"],
]
print()
print(format_table(["condition", "period [ps]"], rows,
                   title="Ring period vs trap state"))
modulation = (result.period_when_filled / result.period_when_empty
              - 1.0) * 100.0
print(f"\ntrap transitions in window: {result.occupancy.n_transitions}")
print(f"period modulation while filled: +{modulation:.2f}%")
print("per-cycle periods: " + sparkline(result.periods, width=60))
print(
    "\nReading: each capture event stretches every subsequent cycle\n"
    "until the emission — RTN appears as a random telegraph wave in\n"
    "the oscillation period itself.  Inside a PLL this integrates\n"
    "into phase wander and, for large traps, cycle slipping — the\n"
    "paper's closing conjecture."
)
