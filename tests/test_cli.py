"""Tests for the command-line interface."""

from __future__ import annotations

import math

import pytest

from repro.cli import build_parser, main
from repro.core.scenario import get_scenario
from repro.errors import ReproError

pytestmark = pytest.mark.tier1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig8"])
        assert args.seed == 2
        assert args.scale == 30.0


class TestCommands:
    def test_cards(self, capsys):
        assert main(["cards"]) == 0
        out = capsys.readouterr().out
        assert "90nm" in out and "22nm" in out
        assert "t_ox" in out

    def test_cards_lists_every_technology(self, capsys):
        from repro.devices.technology import TECHNOLOGIES

        assert main(["cards"]) == 0
        out = capsys.readouterr().out
        for name in TECHNOLOGIES:
            assert name in out

    def test_ensemble(self, capsys):
        # --verify 0 skips the per-cell SPICE passes: no cell can be
        # confirmed failing, so the exit code must be 0.
        assert main(["ensemble", "--cells", "2", "--seed", "1",
                     "--verify", "0", "--margins", "1"]) == 0
        out = capsys.readouterr().out
        assert "Ensemble (2 cells" in out
        assert "batched candidates" in out
        assert "nominal hold SNM" in out
        assert "sampled hold SNM" in out

    def test_traps(self, capsys):
        assert main(["traps", "--tech", "45nm", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Sampled trap population" in out
        assert "Poisson mean" in out

    def test_snm(self, capsys):
        assert main(["snm", "--tech", "90nm"]) == 0
        out = capsys.readouterr().out
        assert "hold" in out and "read" in out

    def test_retention(self, capsys):
        assert main(["retention", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "VRT scan" in out
        assert "frozen-state levels" in out

    def test_ensemble_checkpoint_and_resume(self, capsys, tmp_path):
        directory = str(tmp_path / "run")
        base = ["ensemble", "--cells", "4", "--seed", "1",
                "--threshold", "0", "--margins", "0"]
        assert main(base + ["--verify", "1",
                            "--checkpoint-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "statuses: ok" in out
        assert f"checkpoint: {directory}" in out

        assert main(base + ["--verify", "4", "--resume", directory]) == 0
        out = capsys.readouterr().out
        assert f"checkpoint: {directory}" in out

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--cells", "0"],
        ["ensemble", "--verify", "-1"],
        ["ensemble", "--workers", "0"],
        ["ensemble", "--cells", "two"],
        ["retention", "--trials", "0"],
    ])
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {argv[1]}:" in captured.err
        assert "Traceback" not in captured.err

    def test_ensemble_rejects_bad_retry_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--cells", "2", "--retry-attempts", "0"])
        assert exc.value.code == 2
        assert "error: argument --retry-attempts:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--margins", "-1"],
        ["ensemble", "--job-timeout", "-1"],
        ["ensemble", "--job-timeout", "0"],
        ["ensemble", "--scale", "-5"],
        ["ensemble", "--scale", "nan"],
        ["ensemble", "--threshold", "-0.1"],
        ["ensemble", "--retry-attempts", "0"],
        ["ensemble", "--retry-backoff", "-1"],
        ["ensemble", "--top", "-1"],
        ["ensemble", "--scale", "thirty"],
        ["fig8", "--scale", "-1"],
        ["retention", "--factor", "-1"],
        ["retention", "--factor", "0.5"],
        ["retention", "--factor", "nan"],
        ["ensemble", "--threshold", "nan"],
    ])
    def test_out_of_range_numbers_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {argv[1]}:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, argument", [
        (["snm", "--vdd", "-1"], "--vdd"),
        (["snm", "--vdd", "nan"], "--vdd"),
        (["ensemble", "--vdd", "0"], "--vdd"),
        (["traps", "--tech", "7nm"], "--tech"),
        (["ensemble", "--tech", "7nm"], "--tech"),
        (["snm", "--tech", "7nm"], "--tech"),
        (["verify", "--alpha", "0"], "--alpha"),
        (["verify", "--alpha", "1"], "--alpha"),
        (["report", "/nonexistent.json"], "path"),
    ])
    def test_bad_inputs_are_usage_errors(self, capsys, argv, argument):
        # Each used to reach the model (a NetlistError, a DC-solve
        # ConvergenceError, a ModelError, an AnalysisError or a
        # FileNotFoundError) and end in a traceback with exit 1.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {argument}:" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        # Used to end in the registry's ValueError traceback, exit 1.
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "run", "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument name: unknown scenario 'nosuch'" in err
        assert "dram.retention" in err and "sram.array" in err
        assert "Traceback" not in err

    def test_report_on_a_non_json_file_is_a_usage_error(self, tmp_path,
                                                        capsys):
        # Used to end in a JSONDecodeError traceback, exit 1.
        path = tmp_path / "bad.json"
        path.write_text("{bad", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument path:" in captured.err
        assert "no JSON in" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["cards"],
        ["scenario", "list"],
        ["scenario", "run", "dram.retention", "--n", "4"],
        ["fig8", "--seed", "2", "--scale", "30"],
    ])
    def test_closed_stdout_exits_quietly(self, argv):
        # The reader exits before reading anything (`repro cards |
        # (exit 0)`): the write meets a broken pipe, which must end the
        # command with exit 0 and no traceback, whether the pipe breaks
        # mid-command or at the final flush (fig8 alone exits 2).
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": src})
        finally:
            os.close(write_end)
        assert done.stderr == ""
        assert done.returncode == 0

    @pytest.mark.parametrize("argv, key, value", [
        (["ensemble", "--scale", "0"], "scale", 0.0),
        (["ensemble", "--job-timeout", "2.5"], "job_timeout", 2.5),
        (["ensemble", "--top", "0"], "top", 0),
        (["retention", "--factor", "1"], "factor", 1.0),
        # The configs take an unbounded threshold (screen, verify
        # nothing) and leakage factor.
        (["ensemble", "--threshold", "inf"], "threshold", math.inf),
        (["retention", "--factor", "inf"], "factor", math.inf),
    ])
    def test_boundary_numbers_are_accepted(self, argv, key, value):
        assert getattr(build_parser().parse_args(argv), key) == value

    def test_ensemble_observability_exports(self, capsys, tmp_path):
        import json

        from repro.obs.tracer import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        telemetry_path = tmp_path / "telemetry.json"
        assert main(["ensemble", "--cells", "2", "--seed", "1",
                     "--verify", "0", "--margins", "0",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(telemetry_path),
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Run telemetry" in out          # --profile report
        assert "Pipeline timings" in out
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["schema"] == "repro.telemetry/1"
        assert telemetry["n_cells"] == 2
        assert telemetry["metrics"]["counters"]["transient.runs"] >= 1

    def test_report_renders_telemetry_and_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        telemetry_path = tmp_path / "telemetry.json"
        main(["ensemble", "--cells", "2", "--seed", "1", "--verify", "0",
              "--margins", "0", "--trace-out", str(trace_path),
              "--metrics-out", str(telemetry_path)])
        capsys.readouterr()

        assert main(["report", str(telemetry_path)]) == 0
        out = capsys.readouterr().out
        assert "Run telemetry" in out

        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "spice.transient" in out

    def test_fig8_exit_code_signals_compromise(self, capsys):
        # Scale 0: clean, exit 0.
        assert main(["fig8", "--seed", "2", "--scale", "0"]) == 0
        # Scale 30 with the pinned seed: compromised, exit 2.
        assert main(["fig8", "--seed", "2", "--scale", "30"]) == 2
        out = capsys.readouterr().out
        assert "cell compromised: True" in out


class TestScenarioCommand:
    def test_scenario_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_run_requires_a_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run"])

    def test_scenario_run_rejects_the_backend_flag(self, capsys):
        """``--workers`` alone picks the backend: ``--backend`` is a usage
        error."""
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "run", "oscillators.pll",
                  "--backend", "shared"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_list_shows_every_registered_scenario(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("sram.array", "sram.verify", "dram.retention",
                     "reliability.nbti", "oscillators.ring",
                     "oscillators.pll"):
            assert name in out
        # The embedded-only verification fan-out is flagged as such.
        assert "internal" in out

    def test_run_executes_a_sweep(self, capsys):
        assert main(["scenario", "run", "oscillators.pll",
                     "--n", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Scenario oscillators.pll (2 jobs" in out
        assert "backend serial" in out
        assert "MHz" in out

    def test_run_honours_workers(self, capsys):
        assert main(["scenario", "run", "oscillators.pll", "--n", "2",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "backend shared" in out

    def test_run_refuses_internal_scenarios(self, capsys):
        assert main(["scenario", "run", "sram.verify"]) == 2
        err = capsys.readouterr().err
        assert "no standalone configuration" in err

    def test_run_checkpoint_then_resume(self, capsys, tmp_path):
        directory = str(tmp_path / "run")
        base = ["scenario", "run", "oscillators.pll", "--n", "2",
                "--seed", "3"]
        assert main(base + ["--checkpoint-dir", directory]) == 0
        out = capsys.readouterr().out
        assert f"checkpoint: {directory}" in out

        assert main(base + ["--resume", directory]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "| 2" in out


#: Every standalone scenario with the size of its demonstration config.
STANDALONE_SIZES = {
    "dram.retention": (16, lambda config: config.n_trials),
    "sram.array": (8, lambda config: config.n_cells),
    "reliability.nbti": (64, lambda config: config.n_devices),
    "oscillators.ring": (2, lambda config: len(config.stage_counts)),
    "oscillators.pll": (3, lambda config: len(config.specs)),
}


class TestScenarioSizes:
    @pytest.mark.parametrize("name", sorted(STANDALONE_SIZES))
    def test_run_rejects_zero_n_without_running(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "run", name, "--n", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --n:" in captured.err

    @pytest.mark.parametrize("flag", ["--n", "--workers"])
    def test_run_rejects_negative_counts(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "run", "oscillators.pll", flag, "-3"])
        assert exc.value.code == 2
        assert f"error: argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(STANDALONE_SIZES))
    def test_default_config_keeps_its_documented_size(self, name):
        default, size = STANDALONE_SIZES[name]
        entry = get_scenario(name)
        assert size(entry.default_config(None)) == default
        assert size(entry.default_config()) == default
        assert size(entry.default_config(1)) == 1

    @pytest.mark.parametrize("name", sorted(STANDALONE_SIZES))
    def test_default_config_refuses_zero_size(self, name):
        # ``n=0`` is a size, not "use the default".
        with pytest.raises(ReproError):
            get_scenario(name).default_config(0)
