#!/usr/bin/env python3
"""Bi-directionally coupled RTN/circuit co-simulation (future-work #1).

The paper's methodology is one-way: biases are frozen by a clean SPICE
pass before RTN is generated.  Its conclusions propose closing the loop
so that "both RTN and the circuit states evolve together".  This example
runs our implementation of that extension on the 6T cell and contrasts
it with the one-way pipeline at the same x30 acceleration.

The headline observation: **the coupled model is strictly harsher**.  In
the one-way pipeline the injected current follows the *clean* pass's
timeline, so once the clean write would have completed the suppression
dies even if the actual write is still in flight.  In the coupled model
the suppression follows the live pass-gate current — a stalled write
keeps its own suppression alive — so accelerated RTN defeats marginal
writes far more often.  That self-reinforcement is exactly the "higher
order effect" the paper flags as future work.

Run:  python examples/coupled_cosimulation.py
"""

from __future__ import annotations

import numpy as np

from repro.api import run_methodology
from repro.core.coupled import run_coupled
from repro.core.experiments import fig8_cell_spec, fig8_config, fig8_pattern
from repro.core.report import format_table
from repro.markov.occupancy import number_filled
from repro.sram.cell import build_sram_cell

SEED = 2

spec = fig8_cell_spec()
pattern = fig8_pattern()

print("[1/3] one-way methodology at x30 (paper Fig. 8) ...")
one_way = run_methodology(pattern, np.random.default_rng(SEED), spec=spec,
                          config=fig8_config())
populations = {name: result.traps for name, result in one_way.rtn.items()}

print("[2/3] coupled co-simulation at x30 (same trap populations) ...")
coupled_30 = run_coupled(build_sram_cell(spec), pattern, populations,
                         np.random.default_rng(SEED), rtn_scale=30.0,
                         thresholds=fig8_config().thresholds,
                         record_every=4)

print("[3/3] coupled co-simulation at true amplitude (x1) ...")
coupled_1 = run_coupled(build_sram_cell(spec), pattern, populations,
                        np.random.default_rng(SEED), rtn_scale=1.0,
                        thresholds=fig8_config().thresholds,
                        record_every=4)

rows = []
for slot, (ow, c30, c1) in enumerate(zip(one_way.rtn_results,
                                         coupled_30.op_results,
                                         coupled_1.op_results)):
    rows.append([slot, ow.expected_bit, ow.outcome.value,
                 c30.outcome.value, c1.outcome.value])
print()
print(format_table(
    ["slot", "bit", "one-way x30", "coupled x30", "coupled x1"], rows))

flips = sum(trace.n_transitions
            for traces in coupled_30.occupancies.values()
            for trace in traces)
total_traps = sum(len(t) for t in populations.values())
print(f"\ncoupled x30 run: {total_traps} traps, {flips} live transitions")

# The coupled M5 population tracks the co-simulated Q (when Q gets high
# at all; under harsh x30 suppression some write-1 slots never do).
wf = coupled_1.waveform
m5 = coupled_1.occupancies.get("M5", [])
if m5:
    filled = number_filled(m5, wf.times)
    hi = wf["q"] > 0.8 * spec.supply
    lo = wf["q"] < 0.2 * spec.supply
    if hi.any() and lo.any():
        print(f"coupled x1, M5 filled-trap mean: {filled[hi].mean():.2f} "
              f"when Q high vs {filled[lo].mean():.2f} when Q low "
              f"(of {len(m5)})")

n_fail_oneway = sum(r.outcome.value != "ok" for r in one_way.rtn_results)
n_fail_coupled = sum(r.outcome.value != "ok" for r in coupled_30.op_results)
print(
    f"\nnon-OK slots at x30: one-way {n_fail_oneway}/9, "
    f"coupled {n_fail_coupled}/9; coupled x1: "
    f"{sum(r.outcome.value != 'ok' for r in coupled_1.op_results)}/9\n"
    "\nReading: at true amplitude both couplings agree (no failures).\n"
    "Under x30 acceleration the coupled model fails more marginal\n"
    "writes, because a stalled write keeps its own pass-gate current\n"
    "— and hence its own RTN suppression — alive.  The one-way\n"
    "pipeline, pinned to the clean timeline, underestimates this;\n"
    "that bias is why the paper lists bi-directional coupling as its\n"
    "first direction for future research."
)
