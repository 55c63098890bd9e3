"""Measure one workload and print its result as the last line of output.

Usage, from the repository root::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics.  The last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every output was correct, 1 when one was wrong, and 2 when no
result could be produced (then nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/perf/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        harness.require_program()
        benchmark = harness.load_benchmark()
        declared = {workload["name"] for workload in benchmark["workloads"]}
        if args.workload not in declared:
            raise harness.BenchmarkError(
                f"unknown workload {args.workload!r}; "
                f"declared: {', '.join(sorted(declared))}")
        record = harness.bench_workload(
            args.workload, args.seed, harness.Budget(seconds=args.seconds),
            end_to_end=not args.trace, layers=bool(args.trace),
            benchmark=benchmark)
    except harness.BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print(f"WRONG OUTPUT: {problem}", file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(harness.format_metric(name, metric))
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()}}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
