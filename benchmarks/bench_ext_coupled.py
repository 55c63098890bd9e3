"""Extension E1: bi-directionally coupled vs one-way RTN coupling.

Paper future-work #1 asks for co-simulation in which "both RTN and the
circuit states evolve together".  This bench contrasts our coupled
engine with the paper's one-way pipeline on the same cell, pattern and
trap populations:

- at true amplitude (x1) the two couplings agree — no failures;
- at the x30 acceleration the coupled model fails *at least as many*
  slots: a stalled write keeps its own pass-gate current (and therefore
  its own RTN suppression) alive, a self-reinforcement the frozen
  one-way traces cannot represent.
"""

from __future__ import annotations

import numpy as np

from repro.core.coupled import run_coupled
from repro.core.methodology import run_methodology
from repro.core.experiments import fig8_cell_spec, fig8_config, fig8_pattern
from repro.core.report import format_table, write_csv
from repro.sram.cell import build_sram_cell

SEED = 2


def non_ok(results) -> int:
    return sum(1 for r in results if r.outcome.value != "ok")


def errors(results) -> int:
    return sum(1 for r in results if r.outcome.value == "error")


def test_ext_coupled_vs_one_way(benchmark, out_dir):
    spec = fig8_cell_spec()
    pattern = fig8_pattern()

    def run_all():
        one_way = run_methodology(pattern, np.random.default_rng(SEED),
                                  spec=spec, config=fig8_config())
        populations = {name: r.traps for name, r in one_way.rtn.items()}
        coupled_hi = run_coupled(
            build_sram_cell(spec), pattern, populations,
            np.random.default_rng(SEED), rtn_scale=30.0,
            thresholds=fig8_config().thresholds, record_every=4)
        coupled_lo = run_coupled(
            build_sram_cell(spec), pattern, populations,
            np.random.default_rng(SEED), rtn_scale=1.0,
            thresholds=fig8_config().thresholds, record_every=4)
        return one_way, coupled_hi, coupled_lo

    one_way, coupled_hi, coupled_lo = benchmark.pedantic(run_all, rounds=1,
                                                         iterations=1)
    rows = [[slot, ow.expected_bit, ow.outcome.value, hi.outcome.value,
             lo.outcome.value]
            for slot, (ow, hi, lo) in enumerate(
                zip(one_way.rtn_results, coupled_hi.op_results,
                    coupled_lo.op_results))]
    print()
    print(format_table(
        ["slot", "bit", "one-way x30", "coupled x30", "coupled x1"],
        rows, title="E1: coupling comparison"))
    write_csv(f"{out_dir}/ext_coupled_verdicts.csv",
              ["slot", "bit", "one_way_x30", "coupled_x30", "coupled_x1"],
              rows)

    # At true amplitude both couplings are clean.
    assert non_ok(coupled_lo.op_results) == 0
    # At x30 the one-way run already shows failures...
    assert non_ok(one_way.rtn_results) >= 1
    # ...and the coupled model escalates them: slots the one-way run
    # merely slows become outright errors, because the stalled write
    # sustains its own suppression.
    assert errors(coupled_hi.op_results) >= max(1,
                                                errors(one_way.rtn_results))
    # The live traps really toggled during the co-simulation.
    transitions = sum(trace.n_transitions
                      for traces in coupled_hi.occupancies.values()
                      for trace in traces)
    assert transitions > 50
