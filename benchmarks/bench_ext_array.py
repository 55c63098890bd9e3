"""Extension E2: Monte-Carlo SRAM-array bit-error statistics.

Paper future-work #3 targets "the bit-error impact of RTN on entire
SRAM arrays ... subject to local and global parameter variations".
This bench runs the full per-cell methodology over a sampled array
(Pelgrom threshold mismatch + per-cell trap populations) at two RTN
accelerations and reports array-level failure rates:

- at true amplitude the array is clean (RTN failures are rare events);
- at x30 a substantial fraction of cells fails at least one slot, and
  the RTN failure rate exceeds the variation-only baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.methodology import MethodologyConfig
from repro.core.experiments import fig8_cell_spec, fig8_config, fig8_pattern
from repro.core.report import format_table, write_csv
from repro.core.scenario import run_scenario
from repro.sram.array import ArrayConfig

N_CELLS = 8
PATTERN = fig8_pattern(bits=(1, 0, 1))  # 3 slots keep the bench ~1 min


def run_array(rtn_scale: float, seed: int):
    config = ArrayConfig(
        n_cells=N_CELLS, base_spec=fig8_cell_spec(), pattern=PATTERN,
        rtn_scale=rtn_scale, avt=1.0e-9,
        methodology=MethodologyConfig(
            record_every=4, thresholds=fig8_config().thresholds))
    rng = np.random.default_rng(seed)
    return run_scenario("sram.array", config,
                        seed=int(rng.integers(2**63))).value


def test_ext_array_failure_rates(benchmark, out_dir):
    def run_both():
        return run_array(1.0, seed=5), run_array(30.0, seed=5)

    unscaled, scaled = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        ["x1", unscaled.n_cells, unscaled.failing_cells,
         f"{unscaled.slot_failure_rate:.3f}",
         f"{unscaled.baseline_failure_rate:.3f}"],
        ["x30", scaled.n_cells, scaled.failing_cells,
         f"{scaled.slot_failure_rate:.3f}",
         f"{scaled.baseline_failure_rate:.3f}"],
    ]
    print()
    print(format_table(
        ["RTN scale", "cells", "failing cells", "slot failure rate",
         "variation-only rate"],
        rows, title="E2: array Monte-Carlo failure rates"))
    per_cell = [[o.index, o.trap_count, o.rtn_failures,
                 ";".join(map(str, o.error_slots))]
                for o in scaled.outcomes]
    write_csv(f"{out_dir}/ext_array_cells_x30.csv",
              ["cell", "traps", "non_ok_slots", "error_slots"], per_cell)

    # Claims: clean at true amplitude; widespread at x30; RTN adds on
    # top of the variation-only baseline.
    assert unscaled.cell_failure_rate == 0.0
    assert scaled.failing_cells >= N_CELLS // 2
    assert scaled.slot_failure_rate > scaled.baseline_failure_rate
    # Trap populations actually vary across cells.
    counts = [o.trap_count for o in scaled.outcomes]
    assert len(set(counts)) > 1
