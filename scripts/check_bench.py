#!/usr/bin/env python
"""Gate engine-backend performance against the committed baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_ensemble_scaling.py \
        -k backend_axis --quick
    python scripts/check_bench.py                 # gate the fresh run
    python scripts/check_bench.py A.json B.json C.json   # gate the median
    python scripts/check_bench.py --regen         # bless new numbers

The benchmark writes ``benchmarks/out/BENCH_engine.json``; this script
compares its **dimensionless speedup** (the ensemble's serial-over-shared
wall-clock ratio, both measured in the same run) against
``benchmarks/BENCH_engine.json`` and fails when the fresh ratio falls
more than ``--band`` (default 20 %) below the committed one.  Given
several fresh reports (copies of repeated runs), it gates the median
ratio: one run's ratio spreads too widely on a small, shared machine.
``--regen`` blesses the report whose ratio is that median.  The
transport workload is not gated here: the benchmark itself asserts that
its shared grid rides the arena exactly once.
Absolute wall-clock seconds are reported but never gated — they track
the machine, not the code.  The gate is one-sided: running *faster*
than baseline passes; bless a legitimately better baseline with
``--regen`` and commit it with the change that earned it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FRESH = REPO / "benchmarks" / "out" / "BENCH_engine.json"
BASELINE = REPO / "benchmarks" / "BENCH_engine.json"
SCHEMA = "repro.bench_engine/1"

#: Gated metrics: (workload key, human label).
RATIOS = (("ensemble", "ensemble serial/shared"),)


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: schema {data.get('schema')!r}, "
                         f"expected {SCHEMA!r}")
    return data


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare BENCH_engine.json against the baseline")
    parser.add_argument("fresh", nargs="*", type=Path, default=[FRESH],
                        help="fresh benchmark reports, one per run "
                             f"(default {FRESH})")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help=f"committed baseline (default {BASELINE})")
    parser.add_argument("--band", type=float, default=0.2,
                        help="allowed one-sided slowdown (default 0.2)")
    parser.add_argument("--regen", action="store_true",
                        help="copy the fresh report over the baseline")
    args = parser.parse_args(argv)

    for path in args.fresh:
        if not path.exists():
            print(f"{path}: missing — run the backend-axis benchmark "
                  "first (pytest benchmarks/bench_ensemble_scaling.py "
                  "-k backend_axis)", file=sys.stderr)
            return 2
    reports = [_load(path) for path in args.fresh]

    if args.regen:
        ranked = sorted(reports,
                        key=lambda report: float(report["ensemble"]["speedup"]))
        median = ranked[(len(ranked) - 1) // 2]
        args.baseline.write_text(
            json.dumps(median, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"{args.baseline}: blessed from the median of "
              f"{len(reports)} report(s)")
        return 0

    if not args.baseline.exists():
        print(f"{args.baseline}: missing baseline — bless one with "
              "--regen", file=sys.stderr)
        return 2
    baseline = _load(args.baseline)

    failed = False
    for key, label in RATIOS:
        runs = [float(report[key]["speedup"]) for report in reports]
        got = statistics.median(runs)
        want = float(baseline[key]["speedup"])
        floor = want * (1.0 - args.band)
        verdict = "ok" if got >= floor else "REGRESSION"
        failed |= got < floor
        print(f"{label:30s} fresh {got:6.2f}x  baseline {want:6.2f}x  "
              f"floor {floor:5.2f}x  {verdict}")
        if len(runs) > 1:
            print(f"{'':30s} runs  "
                  + "  ".join(f"{ratio:.2f}x" for ratio in runs))
    if failed:
        print(f"\nperf gate failed: a speedup fell > {args.band:.0%} "
              "below the committed baseline", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
