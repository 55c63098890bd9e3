"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library's main flows:

- ``cards`` — list the technology cards;
- ``fig8`` — run the paper's Fig.-8 methodology and print verdicts;
- ``ensemble`` — batched array-scale Monte-Carlo write-error prediction
  (``--trace-out``/``--metrics-out``/``--profile`` export observability);
- ``report`` — render a telemetry or Chrome-trace JSON as tables;
- ``scenario`` — list the registered workload scenarios or run one on a
  chosen execution backend (``scenario list`` / ``scenario run``);
- ``snm`` — static noise margins of a cell;
- ``traps`` — sample and summarise a device's trap population;
- ``retention`` — DRAM VRT retention scan;
- ``verify`` — run the statistical correctness suite
  (``--statistical`` adds the tier-2 oracles, ``--golden`` compares
  against a committed artifact).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core.report import format_table


def _cmd_cards(args) -> int:
    from .devices.technology import TECHNOLOGIES
    rows = []
    for name in TECHNOLOGIES:
        card = TECHNOLOGIES[name]
        rows.append([name, f"{card.t_ox * 1e9:.1f}", f"{card.vdd:.2f}",
                     f"{card.vt0_n:.2f}",
                     f"{card.expected_trap_count(card.w_nominal_n, card.node):.1f}"])
    print(format_table(
        ["node", "t_ox [nm]", "Vdd [V]", "VT0 [V]",
         "expected traps (nominal NMOS)"], rows,
        title="Technology cards"))
    return 0


def _cmd_fig8(args) -> int:
    from .core import run_methodology
    from .core.experiments import fig8_cell_spec, fig8_config, fig8_pattern
    rng = np.random.default_rng(args.seed)
    result = run_methodology(fig8_pattern(), rng, spec=fig8_cell_spec(),
                             config=fig8_config(rtn_scale=args.scale))
    rows = [[r.index, r.expected_bit, c.outcome.value, r.outcome.value,
             f"{r.final_q:.3f}"]
            for c, r in zip(result.clean_results, result.rtn_results)]
    print(format_table(
        ["slot", "bit", "clean", f"RTN x{args.scale:g}", "final Q [V]"],
        rows, title="Fig. 8 methodology verdicts"))
    print(f"cell compromised: {result.cell_compromised}")
    return 0 if not result.cell_compromised else 2


def _cmd_ensemble(args) -> int:
    from . import obs
    from .core.ensemble import EnsembleConfig, EnsembleRunner
    from .core.experiments import fig8_pattern
    from .core.resilience import RetryPolicy
    from .devices.technology import get_technology
    from .sram.cell import SramCellSpec

    spec = SramCellSpec(technology=get_technology(args.tech), vdd=args.vdd)
    retry = RetryPolicy(attempts=args.retry_attempts,
                        backoff=args.retry_backoff,
                        timeout=args.job_timeout)
    checkpoint_dir = args.resume if args.resume else args.checkpoint_dir
    config = EnsembleConfig(
        n_cells=args.cells, spec=spec, pattern=fig8_pattern(),
        rtn_scale=args.scale, screen_threshold=args.threshold,
        max_verified_cells=args.verify, workers=args.workers,
        backend=args.backend, margin_samples=args.margins, retry=retry,
        checkpoint_dir=checkpoint_dir, resume=bool(args.resume))
    rng = np.random.default_rng(args.seed)
    runner = EnsembleRunner(config)
    observing = bool(args.trace_out or args.metrics_out or args.profile)
    if observing:
        with obs.enable_tracing(trace_path=args.trace_out):
            result = runner.run(rng)
    else:
        result = runner.run(rng)
    telemetry = result.telemetry
    if args.metrics_out:
        telemetry.save(args.metrics_out)

    top = sorted(result.outcomes, key=lambda o: -o.screen_metric)[:args.top]
    rows = [[o.index, o.trap_count, o.transitions,
             f"{o.screen_metric:.3f}",
             "yes" if o.verified else "-",
             o.rtn_failures if o.verified else "-"] for o in top]
    print(format_table(
        ["cell", "traps", "transitions", "screen", "verified", "failures"],
        rows, title=f"Ensemble ({args.cells} cells, {args.tech}, "
                    f"RTN x{args.scale:g}, seed {args.seed})"))
    summary = result.summary()
    candidates = sum(s.n_candidates for s in result.kernel_stats.values())
    print(f"traps: {summary['traps']}  batched candidates: {candidates}")
    print(f"flagged: {summary['flagged']}/{summary['cells']}  "
          f"verified: {summary['verified']}  failing: {summary['failing']}")
    print(f"nominal hold SNM: {summary['nominal_snm_hold'] * 1e3:.1f} mV")
    if result.snm_samples().size:
        samples = result.snm_samples() * 1e3
        print(f"sampled hold SNM: mean {samples.mean():.1f} mV, "
              f"sigma {samples.std():.1f} mV ({samples.size} cells)")
    counts = telemetry.counts
    print("statuses: " + "  ".join(f"{status} {counts[status]}"
                                   for status in counts))
    for name, entry in telemetry.kernel.items():
        if entry.get("fallback"):
            print(f"kernel fallback on {name}: {entry['fallback']}")
    for entry in telemetry.errors:
        detail = entry["details"]
        extra = (f" (iterations={detail['iterations']}, "
                 f"residual={detail['residual']})"
                 if detail.get("iterations") is not None else "")
        print(f"cell {entry['cell']} {entry['status']}: "
              f"{entry['error']}{extra}")
    if checkpoint_dir:
        print(f"checkpoint: {checkpoint_dir}")
    if args.profile:
        from .obs.telemetry import telemetry_report
        print()
        print(telemetry_report(telemetry))
    if args.trace_out:
        print(f"trace: {args.trace_out}")
    if args.metrics_out:
        print(f"telemetry: {args.metrics_out}")
    # Exit codes: 0 clean, 2 confirmed write errors, 3 incomplete run
    # (some cells failed/timed out but the partial result was returned).
    if result.failing_cells > 0:
        return 2
    return 0 if telemetry.complete else 3


def _cmd_report(args) -> int:
    """Render a telemetry or Chrome-trace JSON as human-readable tables."""
    import json
    from pathlib import Path

    from .obs.telemetry import telemetry_report
    from .obs.tracer import validate_chrome_trace

    document = json.loads(Path(args.path).read_text(encoding="utf-8"))
    if isinstance(document, dict) and "traceEvents" in document:
        problems = validate_chrome_trace(document)
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
        totals: dict = {}
        for event in document["traceEvents"]:
            if event.get("ph") != "X":
                continue
            name = event.get("name", "?")
            count, total = totals.get(name, (0, 0.0))
            totals[name] = (count + 1, total + float(event.get("dur", 0.0)))
        rows = [[name, count, f"{total / 1e3:.2f}",
                 f"{total / count / 1e3:.3f}"]
                for name, (count, total) in
                sorted(totals.items(), key=lambda kv: -kv[1][1])]
        print(format_table(["span", "count", "total [ms]", "mean [ms]"],
                           rows, title=f"Trace summary ({args.path})"))
        return 1 if problems else 0
    print(telemetry_report(document))
    return 0


def _cmd_snm(args) -> int:
    from .sram.cell import SramCellSpec
    from .sram.margins import static_noise_margin
    from .devices.technology import get_technology
    spec = SramCellSpec(technology=get_technology(args.tech),
                        vdd=args.vdd)
    rows = [[mode, f"{static_noise_margin(spec, mode=mode) * 1e3:.1f}"]
            for mode in ("hold", "read")]
    print(format_table(["mode", "SNM [mV]"], rows,
                       title=f"Static noise margins ({args.tech}, "
                             f"Vdd={spec.supply} V)"))
    return 0


def _cmd_traps(args) -> int:
    from .devices.mosfet import MosfetParams
    from .devices.technology import get_technology
    from .traps.profiling import TrapProfiler
    from .traps.propensity import propensity_sum
    tech = get_technology(args.tech)
    device = MosfetParams.nominal(tech, "n")
    profiler = TrapProfiler(tech)
    rng = np.random.default_rng(args.seed)
    traps = profiler.sample(rng, device.width, device.length)
    rows = [[t.label or i, f"{t.y_tr * 1e9:.3f}", f"{t.e_tr:.3f}",
             f"{propensity_sum(t, tech):.3e}"]
            for i, t in enumerate(traps)]
    print(format_table(
        ["trap", "depth [nm]", "energy [eV]", "lambda_c+lambda_e [1/s]"],
        rows, title=f"Sampled trap population ({args.tech} nominal NMOS, "
                    f"seed {args.seed})"))
    print(f"{len(traps)} traps "
          f"(Poisson mean {profiler.expected_count(device.width, device.length):.1f})")
    return 0


def _cmd_scenario(args) -> int:
    from .core.scenario import available_scenarios, get_scenario, run_scenario

    if args.action == "list":
        rows = []
        for name in available_scenarios():
            entry = get_scenario(name)
            try:
                entry.default_config()
                standalone = "yes"
            except NotImplementedError:
                standalone = "internal"
            rows.append([name, standalone, entry.description])
        print(format_table(["scenario", "standalone", "description"], rows,
                           title="Registered scenarios"))
        return 0

    entry = get_scenario(args.name)
    try:
        config = entry.default_config(args.n)
    except NotImplementedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checkpoint_dir = args.resume if args.resume else args.checkpoint_dir
    run = run_scenario(entry, config, seed=args.seed,
                       backend=args.backend, workers=args.workers,
                       checkpoint_dir=checkpoint_dir,
                       resume=bool(args.resume))
    counts = run.counts
    rows = [[status, count] for status, count in counts.items()]
    rows.append(["resumed", len(run.resumed)])
    print(format_table(
        ["status", "jobs"], rows,
        title=f"Scenario {run.scenario} ({run.n_jobs} jobs, "
              f"backend {run.backend}, seed {run.seed})"))
    print(f"wall: {run.timings.get('total', 0.0):.2f} s "
          f"(execute {run.timings.get('execute', 0.0):.2f} s)")
    print(entry.format_value(config, run.value))
    if checkpoint_dir:
        print(f"checkpoint: {checkpoint_dir}")
    return 0 if run.complete else 3


def _cmd_retention(args) -> int:
    from .dram.cell import default_vrt_cell, retention_distribution, vrt_levels
    spec, trap = default_vrt_cell(args.factor)
    slow, fast = vrt_levels(spec)
    rng = np.random.default_rng(args.seed)
    times = retention_distribution(spec, trap, rng, args.trials,
                                   t_max=3.0 * slow)
    print(format_table(
        ["trial", "retention [us]"],
        [[i, f"{t * 1e6:.2f}"] for i, t in enumerate(times)],
        title=f"DRAM VRT scan (leakage factor {args.factor:g})"))
    print(f"frozen-state levels: empty {slow * 1e6:.2f} us / "
          f"filled {fast * 1e6:.2f} us")
    return 0


def _cmd_verify(args) -> int:
    from .verify import compare_golden, load_golden, run_suite

    report = run_suite(seed=args.seed, statistical=args.statistical,
                       alpha_total=args.alpha)
    print(report.table())
    failed = report.n_failed
    if args.golden:
        golden_report = compare_golden(load_golden(args.golden))
        print()
        print(golden_report.table())
        failed += golden_report.n_failed
    if args.json_out:
        import json
        from pathlib import Path

        payload = report.to_dict()
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"report: {args.json_out}")
    print(f"checks failed: {failed}")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    from .core.engine import available_backends

    backends = available_backends()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAMURAI reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cards", help="list technology cards")

    fig8 = sub.add_parser("fig8", help="run the Fig.-8 methodology")
    fig8.add_argument("--seed", type=int, default=2)
    fig8.add_argument("--scale", type=float, default=30.0,
                      help="RTN acceleration factor (paper uses 30)")

    ensemble = sub.add_parser(
        "ensemble", help="batched array-scale Monte-Carlo run")
    ensemble.add_argument("--cells", type=int, default=64,
                          help="number of cells in the ensemble")
    ensemble.add_argument("--tech", default="90nm")
    ensemble.add_argument("--vdd", type=float, default=None)
    ensemble.add_argument("--seed", type=int, default=0)
    ensemble.add_argument("--scale", type=float, default=30.0,
                          help="RTN acceleration factor (paper uses 30)")
    ensemble.add_argument("--threshold", type=float, default=0.02,
                          help="screening metric above which a cell is "
                               "flagged for SPICE verification")
    ensemble.add_argument("--verify", type=int, default=4,
                          help="max flagged cells to verify with SPICE")
    ensemble.add_argument("--backend", default=None, choices=backends,
                          help="verification execution backend (default: "
                               "shared when --workers > 1, else serial; "
                               "'shared' runs a persistent pool over a "
                               "shared-memory payload arena)")
    ensemble.add_argument("--workers", type=int, default=None,
                          help="processes for the verification passes")
    ensemble.add_argument("--margins", type=int, default=0,
                          help="cells to also solve a per-cell hold SNM for")
    ensemble.add_argument("--top", type=int, default=10,
                          help="rows to print in the per-cell table")
    ensemble.add_argument("--retry-attempts", type=int, default=3,
                          help="total tries per verification job")
    ensemble.add_argument("--retry-backoff", type=float, default=0.0,
                          help="base backoff between retries [s]")
    ensemble.add_argument("--job-timeout", type=float, default=None,
                          help="per-job wall-clock budget [s] "
                               "(hung workers are reaped)")
    ensemble.add_argument("--checkpoint-dir", default=None,
                          help="directory for periodic snapshots of "
                               "completed cells")
    ensemble.add_argument("--resume", metavar="DIR", default=None,
                          help="resume from a checkpoint directory, "
                               "skipping finished cells "
                               "(implies --checkpoint-dir DIR)")
    ensemble.add_argument("--trace-out", metavar="FILE", default=None,
                          help="write a Chrome trace_event JSON "
                               "(.jsonl for JSON-lines) of the run; "
                               "load it in Perfetto / chrome://tracing")
    ensemble.add_argument("--metrics-out", metavar="FILE", default=None,
                          help="write the run telemetry (status counts, "
                               "kernel stats, timings, metrics) as JSON "
                               "for the `report` subcommand")
    ensemble.add_argument("--profile", action="store_true",
                          help="enable observability and print the "
                               "telemetry report after the run")

    report = sub.add_parser(
        "report", help="render a telemetry or trace JSON as tables")
    report.add_argument("path", help="a --metrics-out telemetry JSON or a "
                                     "--trace-out Chrome trace JSON")

    scenario = sub.add_parser(
        "scenario", help="list or run registered workload scenarios")
    scenario_sub = scenario.add_subparsers(dest="action", required=True)
    scenario_sub.add_parser(
        "list", help="list the registered scenarios")
    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario's demonstration configuration")
    scenario_run.add_argument(
        "name", help="registry name (see `repro scenario list`)")
    scenario_run.add_argument("--n", type=int, default=None,
                              help="job count / sweep size of the "
                                   "demonstration configuration")
    scenario_run.add_argument("--seed", type=int, default=0,
                              help="root seed of the per-job RNG streams")
    scenario_run.add_argument("--backend", default=None, choices=backends,
                              help="execution backend (default: shared "
                                   "when --workers > 1, else serial)")
    scenario_run.add_argument("--workers", type=int, default=None,
                              help="worker processes for the parallel "
                                   "backends")
    scenario_run.add_argument("--checkpoint-dir", default=None,
                              help="directory for periodic snapshots of "
                                   "completed jobs")
    scenario_run.add_argument("--resume", metavar="DIR", default=None,
                              help="resume from a checkpoint directory, "
                                   "skipping finished jobs "
                                   "(implies --checkpoint-dir DIR)")

    snm = sub.add_parser("snm", help="static noise margins of a cell")
    snm.add_argument("--tech", default="90nm")
    snm.add_argument("--vdd", type=float, default=None)

    traps = sub.add_parser("traps", help="sample a trap population")
    traps.add_argument("--tech", default="90nm")
    traps.add_argument("--seed", type=int, default=0)

    retention = sub.add_parser("retention", help="DRAM VRT scan")
    retention.add_argument("--factor", type=float, default=3.0)
    retention.add_argument("--trials", type=int, default=20)
    retention.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser(
        "verify", help="run the statistical correctness suite")
    verify.add_argument("--seed", type=int, default=0,
                        help="root seed of the statistical streams")
    verify.add_argument("--statistical", action="store_true",
                        help="include the tier-2 statistical oracles")
    verify.add_argument("--alpha", type=float, default=1e-4,
                        help="family-wise false-positive budget of the "
                             "statistical suite")
    verify.add_argument("--golden", metavar="FILE", default=None,
                        help="also compare against a golden artifact "
                             "(e.g. tests/golden/statistics.json)")
    verify.add_argument("--json-out", metavar="FILE", default=None,
                        help="write the report as JSON")
    return parser


_HANDLERS = {
    "cards": _cmd_cards,
    "ensemble": _cmd_ensemble,
    "fig8": _cmd_fig8,
    "report": _cmd_report,
    "scenario": _cmd_scenario,
    "snm": _cmd_snm,
    "traps": _cmd_traps,
    "retention": _cmd_retention,
    "verify": _cmd_verify,
}


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
