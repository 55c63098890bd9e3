#!/usr/bin/env python3
"""Why analytical 1/f models fail for scaled devices (paper Fig. 3).

Samples device instances from an old (180 nm) and a deeply scaled
(22 nm) technology card, builds each device's stationary RTN spectrum as
a superposition of per-trap Lorentzians, and fits the analytical 1/f
model: the fit is good for the old node (hundreds of traps smooth into
1/f) and poor for the new one (a handful of traps leave individual
Lorentzian corners).

Run:  python examples/technology_scaling.py
"""

from __future__ import annotations

import numpy as np

from repro.core.report import format_table
from repro.devices.ekv import saturation_current
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_22NM, TECH_180NM
from repro.markov.analytic import superposed_lorentzian_psd
from repro.rtn.current import VanDerZielModel
from repro.api import TrapProfiler, fit_one_over_f
from repro.traps.propensity import rates_from_bias

rng = np.random.default_rng(42)
freq = np.logspace(1.0, 7.0, 120)
N_DEVICES = 25  # as in the paper's Fig. 3


def device_psd(tech, rng):
    """One sampled device's analytic RTN spectrum at constant bias."""
    device = MosfetParams.nominal(tech, "n")
    profiler = TrapProfiler(tech)
    traps = profiler.sample(rng, device.width, device.length)
    v_gs = 0.6 * tech.vdd
    i_d = float(saturation_current(device, v_gs))
    amplitude = float(np.asarray(
        VanDerZielModel().amplitude(device, v_gs, i_d)))
    lam_c = np.array([rates_from_bias(v_gs, t, tech)[0] for t in traps])
    lam_e = np.array([rates_from_bias(v_gs, t, tech)[1] for t in traps])
    psd = superposed_lorentzian_psd(freq, lam_c, lam_e,
                                    np.full(len(traps), amplitude))
    return len(traps), psd


rows = []
for tech in (TECH_180NM, TECH_22NM):
    counts = []
    errors = []
    for _ in range(N_DEVICES):
        n_traps, psd = device_psd(tech, rng)
        counts.append(n_traps)
        if np.all(psd > 0.0):
            errors.append(fit_one_over_f(freq, psd).log_rms)
    rows.append([
        tech.name,
        f"{np.mean(counts):.1f}",
        f"{np.median(errors):.3f}",
        f"{np.max(errors):.3f}",
    ])

print("== Paper Fig. 3: 1/f fit quality across technology nodes ==")
print(format_table(
    ["node", "mean traps/device", "median 1/f log-RMS [decades]",
     "worst 1/f log-RMS"],
    rows))
print(
    "\nReading: the 180 nm devices carry hundreds of traps whose corner\n"
    "frequencies spread over many decades, so the summed spectrum is\n"
    "close to 1/f (small log-RMS misfit).  The 22 nm devices have only\n"
    "a few traps each, the spectrum is a handful of Lorentzians, and\n"
    "the analytical 1/f fit fails — the paper's case for computational\n"
    "(trap-level) RTN characterisation."
)
