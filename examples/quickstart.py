#!/usr/bin/env python3
"""Quickstart: generate non-stationary RTN for a single transistor.

This walks the core SAMURAI loop in four steps:

1. pick a technology card and a device;
2. describe a trap (or sample a population statistically);
3. run paper Algorithm 1 (Markov uniformisation) under a time-varying
   gate bias;
4. convert the trap occupancy into an RTN current (paper Eq. 3) and
   check its statistics against the closed forms.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core.report import format_table, sparkline
from repro.devices.ekv import drain_current
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.markov.analytic import stationary_occupancy
from repro.api import Trap, compute_dwell_summary, generate_device_rtn
from repro.traps.band import crossing_energy
from repro.traps.propensity import rates_from_bias

rng = np.random.default_rng(2011)
tech = TECH_90NM
device = MosfetParams.nominal(tech, "n")

# A trap 1.3 nm into the oxide whose energy crosses the Fermi level at
# V_gs = 0.5 V: it empties at low gate bias and fills at high bias.
y_tr = 1.3e-9
trap = Trap(y_tr=y_tr, e_tr=crossing_energy(0.5, y_tr, tech), label="T1")

print("== Trap propensities across the bias range (paper Eqs. 1-2) ==")
rows = []
for v_gs in (0.0, 0.3, 0.5, 0.7, 1.0):
    lam_c, lam_e = rates_from_bias(v_gs, trap, tech)
    rows.append([f"{v_gs:.1f}", f"{lam_c:.4g}", f"{lam_e:.4g}",
                 f"{stationary_occupancy(lam_c, lam_e):.3f}"])
print(format_table(
    ["V_gs [V]", "lambda_c [1/s]", "lambda_e [1/s]", "equil. occupancy"],
    rows))
print("note: lambda_c + lambda_e is the same in every row — paper Eq. 1.")

# A slow square-wave gate bias: half a period below the trap's crossing
# bias, half above it.  The trap statistics must follow the bias (this
# is what 'non-stationary RTN' means); staying near the crossing keeps
# the trap toggling in both phases so dwell statistics accumulate.
total_rate = sum(rates_from_bias(0.5, trap, tech))
period = 2000.0 / total_rate
times = np.linspace(0.0, period, 20001)
v_gs = np.where((times % period) < period / 2.0, 0.46, 0.56)
i_d = np.abs(drain_current(device, v_gs, tech.vdd, 0.0))

result = generate_device_rtn(device, [trap], times, v_gs, i_d, rng,
                             label="demo")

print("\n== Generated trace ==")
half = times.size // 2
print(f"trap transitions:        {result.total_transitions}")
print(f"occupancy @ low bias:    {result.n_filled[:half].mean():.3f}")
print(f"occupancy @ high bias:   {result.n_filled[half:].mean():.3f}")
print(f"peak I_RTN:              {result.trace.peak() * 1e9:.2f} nA")
print("occupancy over time:     " + sparkline(result.n_filled, width=60))

print("\n== Dwell-time statistics of the high-bias half ==")
occupancy = result.occupancies[0].restricted(times[half], times[-1])
for state, name in ((0, "empty"), (1, "filled")):
    summary = compute_dwell_summary(occupancy, state)
    lam_c, lam_e = rates_from_bias(0.56, trap, tech)
    expected = 1.0 / (lam_c if state == 0 else lam_e)
    print(f"{name:>7}: {summary.count:4d} dwells, mean "
          f"{summary.mean:.3e} s (exponential oracle {expected:.3e} s)")
print("\nDone.  Next: examples/sram_write_error.py runs the full paper "
      "methodology.")
