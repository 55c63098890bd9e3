"""Tests for the fault-tolerant executor, checkpointing and the
resilient ensemble (:mod:`repro.core.resilience`).

This file doubles as the CI fault-injection smoke suite: every recovery
path — retry, worker respawn, timeout reaping, batched-kernel
degradation, NaN-trace isolation, checkpoint/resume — is proven here
with deterministic injected faults.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.ensemble as ensemble_module
import repro.core.methodology as methodology_module
from repro.core.ensemble import EnsembleConfig, EnsembleRunner
from repro.core.experiments import fig8_cell_spec, fig8_pattern
from repro.core.methodology import MethodologyConfig
from repro.core.resilience import (
    JobResult,
    RetryPolicy,
    RunCheckpoint,
    run_jobs,
)
from repro.errors import ConvergenceError, RecoveredWarning
from repro.rtn.current import HungModel
from repro.sram.detectors import DetectorThresholds
from repro.testing.faults import inject_faults

pytestmark = pytest.mark.tier1


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad payload {x}")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)

    def test_delay_schedule(self):
        policy = RetryPolicy(attempts=4, backoff=0.1, backoff_factor=2.0)
        assert policy.delay(1) == 0.0
        assert policy.delay(2) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.2)
        assert policy.delay(4) == pytest.approx(0.4)

    def test_crash_and_timeout_always_retryable(self):
        from repro.errors import WorkerCrashError, WorkerTimeoutError

        policy = RetryPolicy(retry_on=())
        assert policy.retryable(WorkerCrashError("x"))
        assert policy.retryable(WorkerTimeoutError("x"))
        assert not policy.retryable(ValueError("x"))


class TestRunJobsSerial:
    def test_plain_success(self):
        results = run_jobs(square, [1, 2, 3])
        assert [r.value for r in results] == [1, 4, 9]
        assert all(r.status == "ok" and r.attempts == 1 for r in results)

    def test_empty(self):
        assert run_jobs(square, []) == []

    def test_keys_must_match(self):
        with pytest.raises(ValueError):
            run_jobs(square, [1, 2], keys=[0])

    def test_injected_convergence_failures_recover(self):
        with inject_faults(convergence_rate=0.5, seed=1):
            results = run_jobs(square, list(range(20)),
                               policy=RetryPolicy(attempts=5))
        assert all(r.succeeded for r in results)
        assert all(r.value == r.key ** 2 for r in results)
        recovered = [r for r in results if r.status == "recovered"]
        assert recovered, "seed 1 at 50% must fault at least one job"
        assert all(r.attempts > 1 for r in recovered)

    def test_exhausted_attempts_fail_with_metadata(self):
        with inject_faults(convergence_rate=1.0, seed=0):
            results = run_jobs(square, [3], policy=RetryPolicy(attempts=2))
        (result,) = results
        assert result.status == "failed"
        assert result.attempts == 2
        assert result.error_type == "ConvergenceError"
        assert result.error_details["iterations"] is not None
        assert result.error_details["residual"] is not None

    def test_non_retryable_error_fails_immediately(self):
        results = run_jobs(boom, [7], policy=RetryPolicy(attempts=5))
        (result,) = results
        assert result.status == "failed"
        assert result.attempts == 1
        assert "bad payload 7" in result.error

    def test_on_result_callback_sees_every_job(self):
        seen = []
        run_jobs(square, [1, 2, 3], on_result=lambda r: seen.append(r.key))
        assert sorted(seen) == [0, 1, 2]

    def test_serial_timeout_reaps_hung_job(self):
        with inject_faults(hang_rate=1.0, hang_seconds=5.0, seed=0):
            results = run_jobs(square, [1],
                               policy=RetryPolicy(attempts=1, timeout=0.2))
        (result,) = results
        assert result.status == "timeout"
        assert result.error_type == "WorkerTimeoutError"


class TestRunJobsPool:
    """``run_jobs(workers > 1)`` drills, which run on the shared backend."""

    def test_results_in_job_order(self):
        results = run_jobs(square, [5, 3, 1], workers=2)
        assert [r.value for r in results] == [25, 9, 1]

    def test_survives_worker_crashes(self):
        with inject_faults(crash_rate=0.3, seed=2):
            results = run_jobs(square, list(range(12)), workers=3,
                               policy=RetryPolicy(attempts=5))
        assert all(r.succeeded for r in results)
        assert all(r.value == r.key ** 2 for r in results)
        assert any(r.status == "recovered" for r in results)

    def test_certain_crash_exhausts_and_fails(self):
        with inject_faults(crash_rate=1.0, seed=0):
            results = run_jobs(square, [1, 2], workers=2,
                               policy=RetryPolicy(attempts=2))
        assert all(r.status == "failed" for r in results)
        assert all(r.error_type == "WorkerCrashError" for r in results)

    def test_timeout_reaps_hung_worker(self):
        with inject_faults(hang_rate=1.0, hang_seconds=10.0, seed=0):
            results = run_jobs(square, [1], workers=2,
                               policy=RetryPolicy(attempts=1, timeout=0.3))
        (result,) = results
        assert result.status == "timeout"

    def test_mixed_faults_all_jobs_reach_terminal_status(self):
        with inject_faults(crash_rate=0.15, convergence_rate=0.15, seed=5):
            results = run_jobs(square, list(range(16)), workers=3,
                               policy=RetryPolicy(attempts=4))
        assert len(results) == 16
        assert all(isinstance(r, JobResult) for r in results)
        assert all(r.status in ("ok", "recovered", "failed", "timeout")
                   for r in results)
        good = [r for r in results if r.succeeded]
        assert len(good) >= 14
        assert all(r.value == r.key ** 2 for r in good)


class TestRunCheckpoint:
    FP = {"n_cells": 4, "rtn_scale": 30.0}

    def test_roundtrip(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.add(2, {"status": "ok", "failures": 1,
                           "error_slots": [0], "attempts": 1})
        checkpoint.add(0, {"status": "recovered", "failures": 0,
                           "error_slots": [], "attempts": 3})
        checkpoint.save(self.FP)

        fresh = RunCheckpoint(tmp_path / "run")
        assert fresh.exists()
        records = fresh.load(self.FP)
        assert set(records) == {0, 2}
        assert records[2]["failures"] == 1
        assert records[0]["status"] == "recovered"

    def test_npz_mirrors_numeric_fields(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.add(1, {"status": "ok", "failures": 2, "attempts": 1})
        checkpoint.save(self.FP)
        arrays = np.load(tmp_path / "run" / RunCheckpoint.OUTCOMES)
        assert list(arrays["index"]) == [1]
        assert arrays["failures"][0] == 2.0

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.add(0, {"status": "ok"})
        checkpoint.save(self.FP)
        with pytest.raises(ValueError, match="different run"):
            RunCheckpoint(tmp_path / "run").load({"n_cells": 99})

    def test_save_is_atomic_overwrite(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.add(0, {"status": "ok"})
        checkpoint.save(self.FP)
        checkpoint.add(1, {"status": "ok"})
        checkpoint.save(self.FP)
        records = RunCheckpoint(tmp_path / "run").load(self.FP)
        assert set(records) == {0, 1}
        leftovers = list((tmp_path / "run").glob("*.tmp"))
        assert not leftovers


SPEC = fig8_cell_spec()


def small_config(**overrides):
    base = dict(n_cells=4, spec=SPEC, pattern=fig8_pattern(bits=(1,)),
                rtn_scale=30.0, max_verified_cells=2)
    base.update(overrides)
    return EnsembleConfig(**base)


class TestEnsembleFaultTolerance:
    def test_batched_kernel_degrades_to_scalar(self):
        with inject_faults(batch_rate=1.0):
            with pytest.warns(RecoveredWarning, match="scalar"):
                result = EnsembleRunner(small_config(
                    max_verified_cells=0)).run(np.random.default_rng(11))
        assert result.kernel_fallbacks
        assert result.n_cells == 4
        assert all(o.status == "ok" for o in result.outcomes)
        # The scalar fallback still produces kernel statistics.
        assert sum(s.n_candidates for s in result.kernel_stats.values()) > 0

    def test_nan_trace_rejected_and_isolated(self):
        # An injected NaN current must be caught by the RTNTrace
        # non-finite guard with a clear message, fail that cell, and
        # leave the rest of the ensemble standing.
        with inject_faults(nan_rate=1.0):
            result = EnsembleRunner(small_config(
                max_verified_cells=0)).run(np.random.default_rng(11))
        assert result.n_cells == 4
        failed = [o for o in result.outcomes if o.status == "failed"]
        assert failed, "NaN injection at rate 1.0 must fail trap-bearing cells"
        for outcome in failed:
            assert "finite" in outcome.error
        assert not result.complete
        assert result.telemetry.counts["failed"] == len(failed)

    def test_convergence_metadata_reaches_cell_outcome(self, monkeypatch):
        # Satellite: a ConvergenceError raised inside spice/transient.py
        # must carry iteration/residual metadata through EnsembleRunner
        # into the per-cell outcome.
        from repro.spice.newton import NewtonOptions
        from repro.spice.transient import TransientOptions
        from repro.sram.injection import RTN_SOURCE_PREFIX

        real = methodology_module.simulate_transient

        def stalling(circuit, t_stop, dt, **kwargs):
            injected = any(el.name.startswith(RTN_SOURCE_PREFIX)
                           for el in circuit.elements)
            if injected:  # stall only the verification pass
                kwargs["options"] = TransientOptions(
                    max_halvings=0, recovery=False,
                    newton=NewtonOptions(max_iterations=0))
            return real(circuit, t_stop, dt, **kwargs)

        monkeypatch.setattr(methodology_module, "simulate_transient",
                            stalling)
        result = EnsembleRunner(small_config(
            max_verified_cells=1, retry=RetryPolicy(attempts=1),
        )).run(np.random.default_rng(11))
        bad = [o for o in result.outcomes if o.status == "failed"]
        assert len(bad) == 1
        (outcome,) = bad
        assert "stalled" in outcome.error
        assert outcome.error_details["iterations"] == 0
        assert outcome.attempts == 1
        assert not outcome.verified

    def test_failure_summary_in_summary_dict(self):
        result = EnsembleRunner(small_config(
            max_verified_cells=0)).run(np.random.default_rng(3))
        summary = result.summary()
        assert summary["complete"] is True
        assert summary["statuses"]["ok"] == 4


class TestCheckpointResume:
    def test_resume_skips_finished_cells(self, tmp_path, monkeypatch):
        directory = tmp_path / "run"
        base = dict(n_cells=8, spec=SPEC, pattern=fig8_pattern(bits=(1,)),
                    rtn_scale=30.0, checkpoint_dir=directory,
                    checkpoint_every=1)
        first = EnsembleRunner(EnsembleConfig(
            **base, max_verified_cells=3)).run(np.random.default_rng(11))
        done_first = {o.index for o in first.outcomes if o.verified}
        assert len(done_first) == 3
        assert (directory / RunCheckpoint.MANIFEST).is_file()
        assert (directory / RunCheckpoint.OUTCOMES).is_file()

        # The verification payload names its cell by its mismatch.
        recomputed_shifts = []
        real = ensemble_module.VerifyScenario.kernel

        def counting(payload, rng):
            recomputed_shifts.append(payload[0].vt_shifts)
            return real(payload, rng)

        monkeypatch.setattr(ensemble_module.VerifyScenario, "kernel",
                            staticmethod(counting))
        second = EnsembleRunner(EnsembleConfig(
            **base, resume=True)).run(np.random.default_rng(11))
        done_second = {o.index for o in second.outcomes if o.verified}
        recomputed = {o.index for o in second.outcomes
                      if o.vt_shifts in recomputed_shifts}

        # Finished cells were not recomputed, their verdicts carried
        # over verbatim, and the resumed run completed the rest.
        assert recomputed, "the resumed run must verify the rest"
        assert len(recomputed) == len(recomputed_shifts)
        assert recomputed.isdisjoint(done_first)
        assert done_first <= done_second
        for index in done_first:
            before, after = first.outcomes[index], second.outcomes[index]
            assert before.rtn_failures == after.rtn_failures
            assert before.error_slots == after.error_slots

    def test_resume_rejects_other_configuration(self, tmp_path):
        directory = tmp_path / "run"
        base = dict(spec=SPEC, pattern=fig8_pattern(bits=(1,)),
                    rtn_scale=30.0, max_verified_cells=1,
                    checkpoint_dir=directory)
        EnsembleRunner(EnsembleConfig(
            n_cells=2, **base)).run(np.random.default_rng(1))
        with pytest.raises(ValueError, match="different run"):
            EnsembleRunner(EnsembleConfig(
                n_cells=3, **base, resume=True)).run(
                np.random.default_rng(1))

    @pytest.mark.parametrize("changes", [
        {"avt": 3e-9},
        {"spec": dataclasses.replace(SPEC, pass_factor=0.9)},
        {"pattern": fig8_pattern(bits=(0,))},
        {"methodology": MethodologyConfig(dt=2e-12)},
        {"methodology": MethodologyConfig(record_every=2)},
        {"methodology": MethodologyConfig(
            thresholds=DetectorThresholds(valid_fraction=0.8))},
        {"methodology": MethodologyConfig(amplitude_model=HungModel())},
    ], ids=["avt", "spec", "pattern", "dt", "record_every", "thresholds",
            "amplitude_model"])
    def test_resume_rejects_a_changed_input(self, tmp_path, changes):
        # Each of these changes a cell's screen or verdict, so resuming
        # into it must refuse the checkpoint.
        directory = tmp_path / "run"
        base = dict(n_cells=2, spec=SPEC, pattern=fig8_pattern(bits=(1,)),
                    rtn_scale=30.0, max_verified_cells=0,
                    checkpoint_dir=directory)
        EnsembleRunner(EnsembleConfig(**base)).run(np.random.default_rng(1))
        base.update(changes)
        with pytest.raises(ValueError, match="different run"):
            EnsembleRunner(EnsembleConfig(**base, resume=True)).run(
                np.random.default_rng(1))

    def test_same_seed_resume_matches_uninterrupted_run(self, tmp_path):
        # Acceptance: killed-then-resumed must produce the same set of
        # completed cell indices as a straight-through run.
        base = dict(n_cells=6, spec=SPEC, pattern=fig8_pattern(bits=(1,)),
                    rtn_scale=30.0)
        straight = EnsembleRunner(EnsembleConfig(
            **base)).run(np.random.default_rng(11))

        directory = tmp_path / "run"
        EnsembleRunner(EnsembleConfig(
            **base, max_verified_cells=2,
            checkpoint_dir=directory)).run(np.random.default_rng(11))
        resumed = EnsembleRunner(EnsembleConfig(
            **base, checkpoint_dir=directory, resume=True)).run(
            np.random.default_rng(11))

        straight_done = {o.index for o in straight.outcomes if o.verified}
        resumed_done = {o.index for o in resumed.outcomes if o.verified}
        assert resumed_done == straight_done
        for index in straight_done:
            assert (straight.outcomes[index].rtn_failures
                    == resumed.outcomes[index].rtn_failures)


class _KilledMidRun(BaseException):
    """Stands in for SIGKILL: aborts the parent between checkpoint saves.

    A ``BaseException`` raised from the checkpoint hook lands exactly
    where a real kill would — after some atomic manifest writes, before
    the rest — without taking the test interpreter with it.
    """


class TestSharedBackendKillResume:
    """Checkpoint -> kill -> resume on the shared-memory backend.

    Property: for any kill point and any deterministic fault plan, a
    killed-then-resumed run must reproduce the uninterrupted run's
    ``RunTelemetry`` cell statuses and RTN traces exactly.  The RTN
    traces double as an rng-alignment oracle: the resumed run re-draws
    mismatch and trap populations from the same seed, so any stream
    divergence shows up as a bit difference.
    """

    @staticmethod
    def _config(**overrides):
        base = dict(n_cells=5, spec=SPEC, pattern=fig8_pattern(bits=(1,)),
                    rtn_scale=30.0, workers=2, backend="shared",
                    keep_traces=True, checkpoint_every=1)
        base.update(overrides)
        return EnsembleConfig(**base)

    @staticmethod
    @contextmanager
    def _kill_after(saves: int):
        real = ensemble_module.RunCheckpoint
        state = {"left": saves}

        class Killing(real):
            def save(self, fingerprint=None):
                if state["left"] <= 0:
                    raise _KilledMidRun()
                state["left"] -= 1
                super().save(fingerprint)

        ensemble_module.RunCheckpoint = Killing
        try:
            yield
        finally:
            ensemble_module.RunCheckpoint = real

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kill_after=st.integers(min_value=1, max_value=4),
           fault_seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_kill_resume_matches_uninterrupted(self, kill_after,
                                               fault_seed):
        import tempfile

        def telemetry_key(result):
            return [(c["index"], c["status"], c["attempts"],
                     c["rtn_failures"]) for c in result.telemetry.cells]

        faults = dict(convergence_rate=0.3, seed=fault_seed)
        with inject_faults(**faults):
            reference = EnsembleRunner(self._config(
                checkpoint_every=8)).run(np.random.default_rng(11))

        with tempfile.TemporaryDirectory() as tmp:
            directory = f"{tmp}/run"
            with self._kill_after(kill_after), inject_faults(**faults):
                try:
                    EnsembleRunner(self._config(
                        checkpoint_dir=directory)).run(
                        np.random.default_rng(11))
                except _KilledMidRun:
                    pass  # killed mid-verification, checkpoint persists
            with inject_faults(**faults):
                resumed = EnsembleRunner(self._config(
                    checkpoint_dir=directory, resume=True)).run(
                    np.random.default_rng(11))

        assert telemetry_key(resumed) == telemetry_key(reference)
        assert resumed.telemetry.backend == "shared"
        for cell, ref_cell in zip(resumed.traces, reference.traces):
            assert sorted(cell) == sorted(ref_cell)
            for name, trace in cell.items():
                np.testing.assert_array_equal(trace.current,
                                              ref_cell[name].current)

    def test_crash_sites_span_the_kill(self, tmp_path):
        """Worker crash sites fire inside shared workers on both sides
        of the kill; the resumed run must still complete every cell and
        agree with the uninterrupted run on the successful verdicts."""
        faults = dict(crash_rate=0.25, seed=7)
        retry = RetryPolicy(attempts=8)
        with inject_faults(**faults):
            reference = EnsembleRunner(self._config(
                retry=retry, checkpoint_every=8)).run(
                np.random.default_rng(11))

        directory = tmp_path / "run"
        with self._kill_after(2), inject_faults(**faults):
            with pytest.raises(_KilledMidRun):
                EnsembleRunner(self._config(
                    retry=retry, checkpoint_dir=directory)).run(
                    np.random.default_rng(11))
        with inject_faults(**faults):
            resumed = EnsembleRunner(self._config(
                retry=retry, checkpoint_dir=directory, resume=True)).run(
                np.random.default_rng(11))

        assert resumed.n_cells == reference.n_cells
        succeeded = {o.index for o in resumed.outcomes if o.verified}
        assert succeeded == {o.index for o in reference.outcomes
                             if o.verified}
        for index in succeeded:
            assert (resumed.outcomes[index].rtn_failures
                    == reference.outcomes[index].rtn_failures)
            assert (resumed.outcomes[index].error_slots
                    == reference.outcomes[index].error_slots)


class TestAcceptance:
    """The issue's headline scenario, end to end."""

    def test_faulted_50_cell_ensemble_completes_and_recovers(self):
        # attempts=8: per-attempt fault decisions redraw independently,
        # but a worker death can also charge a chunk-mate that already
        # used its one free requeue, so the budget must absorb
        # collateral attempts too.
        config = EnsembleConfig(
            n_cells=50, spec=SPEC, pattern=fig8_pattern(bits=(1,)),
            rtn_scale=30.0, screen_threshold=0.0, workers=2,
            retry=RetryPolicy(attempts=8))
        with inject_faults(crash_rate=0.2, convergence_rate=0.1, seed=7):
            result = EnsembleRunner(config).run(np.random.default_rng(11))

        # The run completes and reports a status for every cell.
        assert result.n_cells == 50
        statuses = [o.status for o in result.outcomes]
        assert all(s in ("ok", "recovered", "failed", "timeout")
                   for s in statuses)

        # Faults actually happened...
        faulted = [o for o in result.outcomes
                   if o.status != "ok" or o.attempts > 1]
        assert faulted, "20%/10% fault rates must touch some cells"
        # ...and >= 90% of the faulted cells were recovered.
        recovered = sum(1 for o in faulted
                        if o.status in ("ok", "recovered"))
        assert recovered / len(faulted) >= 0.9
        # The partial/failure accounting is coherent.
        telemetry = result.telemetry
        assert sum(telemetry.counts.values()) == 50
