"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

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

    def test_ensemble_rejects_bad_retry_arguments(self):
        with pytest.raises(ValueError):
            main(["ensemble", "--cells", "2", "--retry-attempts", "0"])

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

    def test_scenario_run_rejects_unknown_backends(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "oscillators.pll",
                 "--backend", "quantum"])

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

    def test_run_honours_backend_and_workers(self, capsys):
        assert main(["scenario", "run", "oscillators.pll", "--n", "2",
                     "--backend", "shared", "--workers", "2"]) == 0
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
