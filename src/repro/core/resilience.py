"""Fault-tolerant job execution and run checkpointing.

The ensemble's statistical value depends on *completing* large cell
populations: one diverging Newton solve or one crashed worker must
cost one cell (at worst), never the run.  This module provides the
pieces the execution backends thread through:

- :func:`run_jobs` — the one entry point for fanning a job list out:
  it retries transient failures with exponential backoff, enforces a
  per-job wall-clock timeout, and always returns one
  :class:`JobResult` per job with a terminal ``status`` of
  ``ok | recovered | failed | timeout``.  The work itself runs on a
  :mod:`repro.core.engine` backend: the in-process loop below, or the
  shared-memory worker pool, which reaps crashed or hung workers,
  respawns them and requeues their unstarted jobs;
- :class:`RunCheckpoint` — an atomic npz + JSON snapshot of completed
  job records, so a killed run can resume without recomputing finished
  cells.

Both are engine-agnostic: jobs are picklable payloads, records are
JSON-able dicts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .. import obs
from ..errors import (
    ConvergenceError,
    SimulationError,
    WorkerCrashError,
    WorkerTimeoutError,
)

__all__ = [
    "JobResult",
    "RetryPolicy",
    "RunCheckpoint",
    "run_jobs",
]

#: Terminal job statuses, in "worst wins" order for summaries.
JOB_STATUSES = ("ok", "recovered", "failed", "timeout")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard :func:`run_jobs` fights for each job.

    Attributes
    ----------
    attempts:
        Total tries per job (1 = no retry).
    backoff:
        Base delay before retry ``k`` (``backoff * factor**(k-1)``) [s].
    backoff_factor:
        Exponential backoff multiplier.
    timeout:
        Per-job wall-clock budget once the job is *running* [s];
        ``None`` disables timeout supervision.
    retry_on:
        Exception types worth retrying.  Everything else (programming
        errors, model-validity errors) fails the job immediately.
        Worker crashes and timeouts are always retryable.
    """

    attempts: int = 3
    backoff: float = 0.0
    backoff_factor: float = 2.0
    timeout: float | None = None
    retry_on: tuple = (SimulationError, OSError)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff < 0.0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError("timeout must be positive when given")

    def delay(self, attempt: int) -> float:
        """Backoff before attempt ``attempt`` (first attempt is 1)."""
        if attempt <= 1 or self.backoff <= 0.0:
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt - 2)

    def retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retry_on + (WorkerCrashError,
                                                  WorkerTimeoutError))


@dataclass
class JobResult:
    """Terminal outcome of one job.

    Attributes
    ----------
    key:
        Caller-chosen identifier (the ensemble uses the cell index).
    status:
        ``ok`` (first try), ``recovered`` (succeeded after >= 1 retry),
        ``failed`` (exhausted or non-retryable) or ``timeout`` (last
        failure was a hang).
    value:
        The job function's return value (``None`` unless ok/recovered).
    error:
        Human-readable message of the last failure.
    error_type:
        Class name of the last failure.
    error_details:
        Structured context of the last failure — for
        :class:`~repro.errors.ConvergenceError` this carries
        ``iterations`` and ``residual`` through to the caller.
    attempts:
        Tries actually consumed.
    elapsed:
        Wall-clock from first submission to terminal status [s].
    """

    key: object
    status: str = "ok"
    value: object | None = None
    error: str | None = None
    error_type: str | None = None
    error_details: dict = field(default_factory=dict)
    attempts: int = 1
    elapsed: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "recovered")


def _error_details(error: BaseException) -> dict:
    details: dict = {}
    if isinstance(error, ConvergenceError):
        details["iterations"] = error.iterations
        details["residual"] = error.residual
    return details


def _execute_job(fn: Callable, payload, key, attempt: int, plan):
    """Worker-side shim: arm fault injection, fire sites, run the job.

    Module-level and fully picklable; ``plan`` travels with every
    submission so injection decisions are made *in the worker* under any
    multiprocessing start method, keyed by ``(site, key, attempt)``.
    """
    from ..testing import faults

    previous = faults.active()
    if plan is not None:
        faults.install(plan)
    try:
        faults.fire("worker", key, attempt)
        faults.fire("hang", key, attempt)
        faults.fire("job", key, attempt)
        return fn(payload)
    finally:
        if plan is not None:
            faults.install(previous)


def _finish(result: JobResult, error: BaseException | None,
            attempt: int, started: float, timed_out: bool = False) -> None:
    result.attempts = attempt
    result.elapsed = obs.clock.monotonic() - started
    if error is None:
        result.status = "ok" if attempt == 1 else "recovered"
    else:
        result.status = "timeout" if timed_out else "failed"
        result.value = None
        result.error = str(error)
        result.error_type = type(error).__name__
        result.error_details = _error_details(error)
    if obs.enabled():
        obs.inc("jobs.completed")
        obs.inc(f"jobs.{result.status}")
        obs.observe("jobs.elapsed_s", result.elapsed)
        if result.attempts > 1:
            obs.inc("jobs.retries", result.attempts - 1)
        obs.complete_span("resilience.job", started, result.elapsed,
                          key=result.key, status=result.status,
                          attempts=result.attempts)


def run_jobs(fn: Callable, jobs, *, keys=None, workers: int | None = None,
             policy: RetryPolicy | None = None,
             on_result: Callable | None = None,
             backend=None) -> list:
    """Run ``fn(job)`` over every job, surviving worker failures.

    Parameters
    ----------
    fn:
        Picklable job function of one payload argument.
    jobs:
        Sequence of picklable payloads.
    keys:
        Per-job identifiers for results and fault-site decisions;
        defaults to the job index.
    workers:
        Worker-process count; ``None``/``0``/``1`` runs in-process (a
        single helper thread supervises the timeout when one is
        configured).
    policy:
        Retry/backoff/timeout policy; defaults to ``RetryPolicy()``.
    on_result:
        Callback invoked with each :class:`JobResult` as it reaches a
        terminal status, in completion order — the ensemble's
        incremental checkpoint hook.
    backend:
        Execution backend — a name (``serial`` / ``shared``), an
        :class:`~repro.core.engine.ExecutionBackend` class or instance,
        or ``None`` to let :func:`repro.core.engine.resolve_backend`
        pick (``shared`` when ``workers > 1``, else ``serial``).  See
        ``docs/performance.md``.

    Returns
    -------
    list of :class:`JobResult`, in **job order** (not completion order),
    one per job, always — this function does not raise on job failure.
    """
    jobs = list(jobs)
    keys = list(keys) if keys is not None else list(range(len(jobs)))
    if len(keys) != len(jobs):
        raise ValueError("keys must match jobs one-to-one")
    # Lazy import: engine builds on this module's primitives.
    from .engine import resolve_backend

    return resolve_backend(backend, workers).run(
        fn, jobs, keys=keys, workers=workers, policy=policy or RetryPolicy(),
        on_result=on_result)


# ----------------------------------------------------------------------
# In-process path.

def _call_with_timeout(fn, payload, key, attempt, plan, timeout):
    """Run one job, enforcing ``timeout`` via a helper thread.

    A hung job's thread cannot be killed; it is abandoned (daemonised)
    and the job reported as timed out — mirroring what the shared
    backend does by killing the worker process.
    """
    if timeout is None:
        return _execute_job(fn, payload, key, attempt, plan)
    import threading

    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = _execute_job(fn, payload, key, attempt, plan)
        except BaseException as exc:  # noqa: B036 - relayed to the caller
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise WorkerTimeoutError(
            f"job {key!r} exceeded its {timeout:g}s budget",
            timeout=timeout, attempts=attempt)
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def _run_serial(fn, jobs, keys, policy, on_result) -> list:
    from ..testing import faults

    plan = faults.active()
    results = []
    for payload, key in zip(jobs, keys):
        result = JobResult(key=key)
        started = obs.clock.monotonic()
        for attempt in range(1, policy.attempts + 1):
            delay = policy.delay(attempt)
            if delay:
                time.sleep(delay)
            try:
                result.value = _call_with_timeout(
                    fn, payload, key, attempt, plan, policy.timeout)
            except BaseException as exc:  # noqa: B036 - classified below
                last, timed_out = exc, isinstance(exc, WorkerTimeoutError)
                if attempt >= policy.attempts or not policy.retryable(exc):
                    _finish(result, last, attempt, started, timed_out)
                    break
            else:
                _finish(result, None, attempt, started)
                break
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


# ----------------------------------------------------------------------
# Checkpointing.

class RunCheckpoint:
    """Atomic npz + JSON snapshot of completed job records.

    Layout of the run directory::

        <dir>/manifest.json   # fingerprint + every record (JSON-able)
        <dir>/outcomes.npz    # numeric per-record arrays for bulk loads

    ``manifest.json`` is the source of truth; ``outcomes.npz`` mirrors
    the numeric fields (``index``, ``attempts``, plus any record values
    that are ints/floats) for consumers that want arrays.  Writes are
    atomic (temp file + ``os.replace``), so a kill mid-snapshot leaves
    the previous snapshot intact.
    """

    MANIFEST = "manifest.json"
    OUTCOMES = "outcomes.npz"
    VERSION = 1

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self._records: dict = {}
        self._fingerprint: dict = {}

    # -- state -----------------------------------------------------------
    @property
    def records(self) -> dict:
        """Completed records, ``index -> dict``."""
        return dict(self._records)

    def completed(self) -> set:
        return set(self._records)

    def add(self, index: int, record: dict) -> None:
        self._records[int(index)] = record

    def exists(self) -> bool:
        return (self.directory / self.MANIFEST).is_file()

    # -- persistence -----------------------------------------------------
    def save(self, fingerprint: dict | None = None) -> None:
        """Snapshot the current records atomically."""
        started = obs.clock.monotonic()
        self._save(fingerprint)
        if obs.enabled():
            elapsed = obs.clock.monotonic() - started
            obs.inc("checkpoint.saves")
            obs.observe("checkpoint.save_s", elapsed)
            obs.complete_span("resilience.checkpoint_save", started, elapsed,
                              records=len(self._records))

    def _save(self, fingerprint: dict | None = None) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        if fingerprint is not None:
            self._fingerprint = dict(fingerprint)
        manifest = {
            "version": self.VERSION,
            "fingerprint": self._fingerprint,
            "completed": sorted(self._records),
            "records": {str(k): v for k, v in self._records.items()},
        }
        self._write_atomic(self.MANIFEST,
                           json.dumps(manifest, indent=2, sort_keys=True,
                                      default=_json_default).encode())
        indices = np.array(sorted(self._records), dtype=np.int64)
        arrays = {"index": indices}
        numeric = sorted({key for record in self._records.values()
                          for key, value in record.items()
                          if isinstance(value, (int, float, np.integer,
                                                np.floating))
                          and not isinstance(value, bool)})
        for key in numeric:
            arrays[key] = np.array(
                [float(self._records[i].get(key, np.nan)) for i in indices])
        import io

        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        self._write_atomic(self.OUTCOMES, buffer.getvalue())

    def load(self, expected_fingerprint: dict | None = None) -> dict:
        """Load the snapshot; verify it belongs to the same run config.

        Raises
        ------
        ValueError
            If the stored fingerprint disagrees with
            ``expected_fingerprint`` (resuming into a different run
            would silently mix incompatible cells).
        """
        path = self.directory / self.MANIFEST
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("version") != self.VERSION:
            raise ValueError(
                f"checkpoint {path} has unsupported version "
                f"{manifest.get('version')!r}")
        stored = manifest.get("fingerprint", {})
        if expected_fingerprint is not None:
            mismatched = {key: (stored.get(key), value)
                          for key, value in expected_fingerprint.items()
                          if stored.get(key) != value}
            if mismatched:
                raise ValueError(
                    f"checkpoint {path} was written by a different run "
                    f"configuration: {mismatched}")
        self._fingerprint = stored
        self._records = {int(k): v
                         for k, v in manifest.get("records", {}).items()}
        return self.records

    def _write_atomic(self, name: str, payload: bytes) -> None:
        path = self.directory / name
        temporary = path.with_suffix(path.suffix + ".tmp")
        with open(temporary, "wb") as handle:
            handle.write(payload)
        os.replace(temporary, path)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")
