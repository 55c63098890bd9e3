"""``python -m benchmarks.perf run|compare`` (with ``PYTHONPATH=src``).

``run`` measures every workload, end to end and layer by layer, prints
every metric with its unit, checks every output, writes one results
file and exits 1 when an output was wrong.  ``compare A.json B.json``
prints each end-to-end metric's median change from A to B against its
bound in ``BENCHMARK.json`` and exits 1 when a bound is broken.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

from . import harness

#: Seed of the committed reference results.
DEFAULT_SEED = 20110314


def _environment() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"cpu_count": os.cpu_count(), "workers": harness.WORKERS,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform(), "machine": platform.machine()}


def command_run(args) -> int:
    harness.require_program()
    benchmark = harness.load_benchmark()
    if args.quick:
        budget = harness.Budget(seconds=0.0, min_reps=args.reps,
                                setup_launches=args.reps, scale=1.0 / 8.0)
    else:
        budget = harness.Budget(seconds=benchmark["run_seconds"],
                                min_reps=args.reps)
    results = {"schema": "benchmarks.perf/1", "seed": args.seed,
               "budget": vars(budget), "environment": _environment(),
               "workloads": {}}
    for name in (w["name"] for w in benchmark["workloads"]):
        record = harness.bench_workload(name, args.seed, budget,
                                        end_to_end=True, layers=True,
                                        benchmark=benchmark)
        results["workloads"][name] = record
        print(f"== {name}: {record['pairs']} run pairs, backends "
              f"{record['backend']}, {record['failed']}/{record['attempted']}"
              f" failed, calibration {record['calibration_s']:.4f} s")
        for metric, summary in record["metrics"].items():
            print("   " + harness.format_metric(metric, summary))
        for problem in record["problems"]:
            print(f"   WRONG OUTPUT: {problem}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"results: {out}")
    return 0 if all(r["correct"] for r in results["workloads"].values()) \
        else 1


def _all_better(base: list, new: list, better: str) -> bool:
    if better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def compare(base: dict, new: dict, benchmark: dict) -> tuple:
    """Rows ``(workload, metric, base, new, change, bound, spread,
    verdict)`` and whether any bound is broken.

    A metric whose spread (interquartile distance over median, in
    either file) is wider than its bound is *unresolved* unless every
    sample of ``new`` reads better than every sample of ``base``.
    """
    rows = []
    broken = False
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        base_metrics = base["workloads"][workload]["metrics"]
        new_metrics = new["workloads"][workload]["metrics"]
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in base_metrics or name not in new_metrics:
                continue
            a, b = base_metrics[name], new_metrics[name]
            change = (b["value"] - a["value"]) / a["value"]
            worse = change if metric["better"] == "lower" else -change
            width = max(harness.spread(a["samples"]),
                        harness.spread(b["samples"]))
            if width > bound:
                verdict = "better" if _all_better(
                    a["samples"], b["samples"], metric["better"]) \
                    else "unresolved"
            elif worse > bound:
                verdict = "BROKEN"
                broken = True
            else:
                verdict = "ok"
            rows.append((workload, name, a["value"], b["value"], change,
                         bound, width, verdict))
    return rows, broken


def command_compare(args) -> int:
    benchmark = harness.load_benchmark()
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    rows, broken = compare(base, new, benchmark)
    print(f"{'workload':16s} {'metric':16s} {'base':>11s} {'new':>11s} "
          f"{'change':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload, name, a, b, change, bound, width, verdict in rows:
        print(f"{workload:16s} {name:16s} {a:11.5g} {b:11.5g} "
              f"{change:+8.1%} {bound:6.0%} {width:7.1%}  {verdict}")
    missing = sorted(set(base["workloads"]) ^ set(new["workloads"]))
    if missing:
        print(f"workloads in only one file: {', '.join(missing)}")
    return 1 if broken else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", default=str(harness.OUT_DIR / "results.json"))
    run.add_argument("--reps", type=int, default=3,
                     help="least run pairs (and set-up launches with "
                          "--quick) per workload")
    run.add_argument("--quick", action="store_true",
                     help="1/8-size workloads, --reps pairs, no time budget")
    comparison = commands.add_parser(
        "compare", help="check B against A within the bounds")
    comparison.add_argument("base")
    comparison.add_argument("new")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return command_run(args)
        return command_compare(args)
    except harness.BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
