"""Declarative scenarios: what a workload *is*, apart from how it runs.

Before this layer, every Monte-Carlo workload in the package carried
its own dispatch code: the SRAM ensemble fanned verification jobs
through :func:`~repro.core.resilience.run_jobs`, while the DRAM VRT
scan, the NBTI device populations and the oscillator sweeps each ran a
bare sequential Python loop over one shared, threaded RNG — so none of
them could use the parallel engine, the retry/timeout resilience,
the checkpoint/resume machinery or the obs instrumentation that PRs
3–6 built for the ensemble alone.

A :class:`Scenario` is the declarative answer: a workload is

- a **plan** — a pure function of a config, returning one picklable
  payload per job;
- a **kernel** — a pure, module-level function
  ``kernel(payload, rng) -> value`` run once per job, anywhere (any
  process, any order, any backend);
- a **reducer** — a pure function folding the per-job
  :class:`~repro.core.resilience.JobResult` list (in job order) back
  into the workload's domain result;
- optionally a **batch kernel** doing many jobs' work in one call
  (``sram.verify``: one lockstep transient for many cells), which the
  serial backend uses for first attempts.

:func:`run_scenario` executes any registered scenario through
:func:`~repro.core.resilience.run_jobs`, so every scenario inherits —
for free — parallel execution (``workers > 1`` runs the ``shared``
worker pool of :mod:`repro.core.engine`),
retry/backoff/timeout policies, worker-crash recovery, deterministic
fault-injection sites (:mod:`repro.testing.faults`, including the
scenario-level ``scenario`` site), checkpoint/resume via
:class:`~repro.core.resilience.RunCheckpoint`, obs spans/metrics, and a
:class:`~repro.obs.telemetry.RunTelemetry` document.

**Determinism and backend invariance.**  Per-job RNG streams come from
:func:`repro.testing.seeding.spawn_seeds`, keyed by
``(seed, "scenario", scenario.name)`` and the job index.  Job *k*
carries its ``SeedSequence`` child, not a generator, and every attempt
builds a fresh generator from it — so job *k* draws the same stream
regardless of which worker runs it, in which order, after how many
retries.  Results are therefore
order-independent and *backend-invariant by construction*: the tier-2
invariance suite asserts identical ``(status, value, attempts)``
triples for every migrated workload across both backends.

Registered scenarios ship with the package (``repro scenario list``):

- ``sram.array`` — per-cell Fig.-8 methodology over a mismatched array;
- ``sram.verify`` — the ensemble's screened SPICE verification fan-out;
- ``dram.retention`` — repeated DRAM VRT retention trials of one cell;
- ``reliability.nbti`` — NBTI/RTN metric pairs over a device population;
- ``oscillators.ring`` — ring-oscillator period sweep over stage counts;
- ``oscillators.pll`` — PLL pull-out-frequency sweep over loop specs.

See ``docs/architecture.md`` for the scenario -> engine -> backend
stack and the migration guide for adding a workload.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .. import obs
from ..obs import clock
from ..obs.telemetry import RunTelemetry
from ..testing.seeding import derive_seed, spawn_seeds
from .engine import resolve_backend
from .resilience import (
    JOB_STATUSES,
    JobResult,
    RetryPolicy,
    RunCheckpoint,
    fire_then_batch,
    run_jobs,
)

__all__ = [
    "Scenario",
    "ScenarioJob",
    "ScenarioRegistry",
    "ScenarioRun",
    "available_scenarios",
    "config_fingerprint",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_registry",
]


@dataclass(frozen=True)
class ScenarioJob:
    """One unit of scenario work, fully self-contained and picklable.

    Attributes
    ----------
    scenario:
        Registry name of the owning scenario.
    index:
        Job position in the plan (also the default job key).
    seed:
        Root seed of the run (for provenance; the stream below is
        already derived from it).
    seed_sequence:
        This job's private stream — the ``SeedSequence`` child spawned
        from ``(seed, "scenario", scenario)`` by job index.  Each
        attempt builds its generator from it afresh, so the stream is
        identical no matter which backend, worker or retry runs the
        job, and no attempt leaves state in the job for the next one
        (a shared-backend worker reuses one decoded job across
        attempts).
    payload:
        The scenario-specific work description (picklable; numpy array
        leaves ride the shared-memory arena on the ``shared`` backend).
    kernel:
        The module-level job function ``kernel(payload, rng) -> value``
        (pickled by reference, so it resolves in any worker).
    """

    scenario: str
    index: int
    seed: int
    seed_sequence: np.random.SeedSequence
    payload: object
    kernel: Callable


def execute_scenario_job(job: ScenarioJob):
    """Worker-side entry point: fire the fault site, run the kernel.

    Module-level and driven purely by its picklable argument so every
    execution backend (and every multiprocessing start method) can run
    it.  The ``scenario`` fault site fires *here*, in the worker, keyed
    by ``(scenario name, job index)`` — the deterministic-injection
    contract every other site follows.  The kernel's generator is built
    from the job's ``SeedSequence`` on every call, so a retry starts
    the job's stream from its beginning.
    """
    from ..testing import faults

    faults.fire("scenario", (job.scenario, job.index))
    return job.kernel(job.payload, np.random.default_rng(job.seed_sequence))


def execute_scenario_batch(batch_kernel: Callable, jobs: list) -> list:
    """Batch form of :func:`execute_scenario_job` for the serial backend.

    Fires each job's ``scenario`` site in job order, then runs
    ``batch_kernel`` once on the payloads of the jobs that passed it,
    each with its own generator.  Returns, per job, ``(value, None)``
    or ``(None, error)``.
    """
    from ..testing import faults

    return fire_then_batch(
        jobs, lambda job: faults.fire("scenario", (job.scenario, job.index)),
        lambda ready: batch_kernel(
            [job.payload for job in ready],
            [np.random.default_rng(job.seed_sequence) for job in ready]))


class Scenario:
    """One declarative workload: plan + kernel + reducer.

    Subclasses set :attr:`name`, point :attr:`kernel` at a module-level
    function ``kernel(payload, rng) -> value``, and implement
    :meth:`plan` and :meth:`reduce`.  Everything else — backends,
    retries, checkpointing, fault injection, telemetry — is inherited
    from :func:`run_scenario`.
    """

    #: Registry name (``sram.array`` / ``dram.retention`` / ...).
    name: str = "?"

    #: One-line description for ``repro scenario list``.
    description: str = ""

    #: Module-level job function ``kernel(payload, rng) -> value``.
    #: Must be picklable by reference (defined at module scope).
    kernel: Callable | None = None

    #: Optional ``batch_kernel(payloads, rngs) -> outcomes`` doing the
    #: work of many jobs at once: per payload ``(value, None)`` with
    #: the value ``kernel`` returns, or ``(None, error)`` with the
    #: exception it raises.  The serial backend runs first attempts
    #: through it in groups (:func:`~repro.core.resilience.run_jobs`).
    batch_kernel: Callable | None = None

    # -- the declarative surface ----------------------------------------
    def plan(self, config) -> list:
        """Build the job payloads from ``config``.  Pure: same config,
        same plan — the scenario layer relies on this for resume."""
        raise NotImplementedError

    def reduce(self, config, results: list):
        """Fold the terminal :class:`JobResult` list (job order) into
        the workload's domain result."""
        raise NotImplementedError

    # -- optional hooks --------------------------------------------------
    def keys(self, config, plan: list) -> list:
        """Per-job identifiers (fault-site keys, checkpoint indices).

        Defaults to the job index.  Keys must be stable across runs of
        the same config — they name jobs in checkpoints and fault
        plans.
        """
        return list(range(len(plan)))

    def fingerprint(self, config) -> dict:
        """Run identity for checkpoint compatibility checks.

        Scenarios whose frozen-dataclass config names the whole run
        return :func:`config_fingerprint` of it.  That is not the
        default: some configs carry trace arrays.
        """
        return {}

    def encode_value(self, value):
        """JSON-able encoding of a kernel value for checkpointing."""
        return value

    def decode_value(self, encoded):
        """Inverse of :meth:`encode_value` (applied on resume)."""
        return encoded

    def default_config(self, n: int | None = None, **options):
        """A small demonstration config for ``repro scenario run``.

        Scenarios that only make sense embedded in a larger pipeline
        (``sram.verify``) raise :class:`NotImplementedError`; the CLI
        marks them as internal.
        """
        raise NotImplementedError(
            f"scenario {self.name!r} has no standalone configuration")

    def format_value(self, config, value) -> str:
        """Human-readable one-liner of the reduced value (CLI)."""
        return repr(value)


def config_fingerprint(config) -> dict:
    """A frozen-dataclass config as JSON-native values.

    The config goes through the same JSON round trip as a checkpoint
    (nested dataclasses become dicts, tuples become lists), so a
    fingerprint read back from a checkpoint compares equal to a fresh
    one and any changed field refuses the resume.
    """
    return json.loads(json.dumps(asdict(config)))


class ScenarioRegistry:
    """Name -> :class:`Scenario` instance registry.

    Later registrations override earlier ones, so tests can shadow a
    scenario with an instrumented double.
    """

    def __init__(self) -> None:
        self._scenarios: dict = {}

    def register(self, scenario) -> object:
        """Register a :class:`Scenario` subclass or instance.

        Usable as a decorator on the class; returns its argument.
        """
        instance = scenario() if isinstance(scenario, type) else scenario
        if not isinstance(instance, Scenario):
            raise TypeError(
                f"expected a Scenario subclass or instance, got "
                f"{scenario!r}")
        if not instance.name or instance.name == "?":
            raise ValueError("scenario must set a registry name")
        self._scenarios[instance.name] = instance
        return scenario

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise ValueError(
                f"unknown scenario {name!r}; available: "
                f"{', '.join(self.names())}") from None

    def names(self) -> tuple:
        return tuple(sorted(self._scenarios))

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios


#: The process-wide registry every domain module registers into.
_REGISTRY = ScenarioRegistry()


def scenario_registry() -> ScenarioRegistry:
    """The process-wide :class:`ScenarioRegistry` singleton."""
    return _REGISTRY


def register_scenario(scenario):
    """Register a scenario in the process-wide registry (decorator)."""
    return _REGISTRY.register(scenario)


def _ensure_builtin_scenarios() -> None:
    """Import the domain modules that register the shipped scenarios.

    Lazy (and idempotent): scenario.py must not import the SPICE/SRAM
    stacks at module import time — ``import repro`` stays cheap, and
    the domain modules themselves import *this* module for the
    registration decorator.
    """
    import importlib

    for module in ("repro.sram.array", "repro.core.ensemble",
                   "repro.dram.cell", "repro.reliability.nbti",
                   "repro.oscillators.sweeps"):
        importlib.import_module(module)


def get_scenario(spec) -> Scenario:
    """Resolve a scenario name / class / instance to an instance."""
    if isinstance(spec, Scenario):
        return spec
    if isinstance(spec, type) and issubclass(spec, Scenario):
        return spec()
    _ensure_builtin_scenarios()
    return _REGISTRY.get(spec)


def available_scenarios() -> tuple:
    """The registered scenario names, sorted."""
    _ensure_builtin_scenarios()
    return _REGISTRY.names()


@dataclass
class ScenarioRun:
    """Outcome of one :func:`run_scenario` call.

    Attributes
    ----------
    scenario:
        Registry name of the scenario that ran.
    seed:
        Root seed of the run.
    backend:
        Name of the execution backend that carried the jobs
        (``serial`` or ``shared``, as ``workers`` picked it).
    results:
        Terminal :class:`JobResult` per job, in job order (resumed
        jobs carry their checkpointed outcome).
    value:
        The reducer's domain result.
    resumed:
        Job keys restored from a checkpoint instead of re-run.
    timings:
        Phase -> wall-clock seconds (``plan`` / ``execute`` /
        ``reduce`` / ``total``).
    metrics_snapshot:
        :meth:`repro.obs.metrics.Metrics.snapshot` at the end of the
        run ({} when observability was disabled).
    """

    scenario: str
    seed: int
    backend: str
    results: list = field(default_factory=list)
    value: object | None = None
    resumed: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    metrics_snapshot: dict = field(default_factory=dict)

    @property
    def n_jobs(self) -> int:
        return len(self.results)

    @property
    def counts(self) -> dict:
        """Resilience status -> job count."""
        counts = {status: 0 for status in JOB_STATUSES}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    @property
    def complete(self) -> bool:
        """Every job reached a usable outcome (no failed/timeout)."""
        return all(r.succeeded for r in self.results)

    @property
    def telemetry(self) -> RunTelemetry:
        """The run's diagnostics as one JSON-able document."""
        errors = [{"cell": r.key, "status": r.status, "error": r.error,
                   "details": dict(r.error_details)}
                  for r in self.results if not r.succeeded]
        return RunTelemetry(
            scenario=self.scenario,
            n_cells=self.n_jobs,
            backend=self.backend,
            counts=self.counts,
            complete=self.complete,
            errors=errors,
            timings=dict(self.timings),
            metrics=dict(self.metrics_snapshot),
        )


def run_scenario(scenario, config=None, *, seed: int = 0,
                 workers: int | None = None,
                 policy: RetryPolicy | None = None,
                 checkpoint_dir=None, checkpoint_every: int = 8,
                 resume: bool = False) -> ScenarioRun:
    """Plan, execute and reduce one scenario.

    Parameters
    ----------
    scenario:
        Registry name, :class:`Scenario` subclass or instance.
    config:
        The scenario's configuration object (passed verbatim to
        :meth:`Scenario.plan` / :meth:`Scenario.reduce`).
    seed:
        Root seed; per-job streams come from
        :func:`repro.testing.seeding.spawn_seeds` keyed by
        ``(seed, "scenario", name)`` and the job index, so any job is
        reproducible in isolation and the run is backend-invariant.
    workers:
        The one execution setting: ``None`` or 1 runs the jobs
        in-process, more runs them on that many worker processes
        (:func:`repro.core.engine.resolve_backend`).
    policy:
        Retry/backoff/timeout policy; defaults to
        :class:`~repro.core.resilience.RetryPolicy`.
    checkpoint_dir:
        Run directory for periodic :class:`RunCheckpoint` snapshots of
        completed jobs; ``None`` disables checkpointing.
    checkpoint_every:
        Snapshot cadence, in completed jobs.
    resume:
        Load an existing checkpoint from ``checkpoint_dir`` and skip
        the planned jobs it already covers (fingerprint-verified);
        records of jobs outside the plan are ignored.

    Returns
    -------
    :class:`ScenarioRun` — per-job results in job order, the reduced
    domain value, and the run telemetry.  Job failures never raise;
    they surface as non-ok statuses for the reducer to handle.
    """
    scenario = get_scenario(scenario)
    if scenario.kernel is None:
        raise ValueError(f"scenario {scenario.name!r} defines no kernel")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires checkpoint_dir")
    policy = policy or RetryPolicy()
    backend = resolve_backend(workers).name

    timings: dict = {}
    run_started = clock.monotonic()

    # Phase 1: plan. Pure and deterministic, so a resumed run rebuilds
    # the identical job list and the checkpoint indices stay aligned.
    plan = list(scenario.plan(config))
    keys = list(scenario.keys(config, plan))
    if len(keys) != len(plan):
        raise ValueError("scenario keys must match the plan one-to-one")
    root = derive_seed(seed, "scenario", scenario.name)
    streams = spawn_seeds(root, len(plan))
    kernel = scenario.kernel
    jobs = [ScenarioJob(scenario=scenario.name, index=index, seed=seed,
                        seed_sequence=streams[index], payload=payload,
                        kernel=kernel)
            for index, payload in enumerate(plan)]
    timings["plan"] = clock.monotonic() - run_started

    # The plan length stays out: job k's record and stream do not
    # depend on it, and each scenario's own fingerprint covers its size.
    fingerprint = {"scenario": scenario.name, "seed": int(seed)}
    fingerprint.update(scenario.fingerprint(config) or {})

    checkpoint = None
    restored: dict = {}
    if checkpoint_dir is not None:
        checkpoint = RunCheckpoint(checkpoint_dir)
        if resume and checkpoint.exists():
            restored = checkpoint.load(fingerprint)

    key_to_position = {key: position for position, key in enumerate(keys)}
    results: list = [None] * len(plan)
    resumed: list = []
    for index, record in restored.items():
        position = key_to_position.get(index)
        if position is None:
            continue
        result = JobResult(key=keys[position],
                           status=record.get("status", "ok"),
                           attempts=int(record.get("attempts", 1)),
                           error=record.get("error"),
                           error_type=record.get("error_type"),
                           error_details=dict(
                               record.get("error_details") or {}))
        if result.succeeded:
            result.value = scenario.decode_value(record.get("value"))
        results[position] = result
        resumed.append(keys[position])
    pending = [p for p in range(len(plan)) if results[p] is None]

    completed_since_save = 0

    def settle(job_result: JobResult) -> None:
        nonlocal completed_since_save
        results[key_to_position[job_result.key]] = job_result
        if checkpoint is not None:
            record = {"status": job_result.status,
                      "attempts": job_result.attempts}
            if job_result.succeeded:
                record["value"] = scenario.encode_value(job_result.value)
            else:
                record.update(error=job_result.error,
                              error_type=job_result.error_type,
                              error_details=dict(job_result.error_details))
            checkpoint.add(int(job_result.key), record)
            completed_since_save += 1
            if completed_since_save >= checkpoint_every:
                checkpoint.save(fingerprint)
                completed_since_save = 0

    # Phase 2: execute on the engine. run_jobs and its backend carry the
    # whole resilience/obs/faults contract; a partial run (kill, crash)
    # leaves its completed jobs in the checkpoint for the next resume.
    phase_started = clock.monotonic()
    if obs.enabled():
        obs.inc("scenario.jobs", len(pending))
        obs.inc("scenario.resumed", len(resumed))
    batch = None
    if scenario.batch_kernel is not None:
        batch = functools.partial(execute_scenario_batch,
                                  scenario.batch_kernel)
    try:
        run_jobs(execute_scenario_job, [jobs[p] for p in pending],
                 keys=[keys[p] for p in pending], workers=workers,
                 policy=policy, on_result=settle, batch=batch)
    finally:
        # Saved even when nothing ran, so every checkpointed run leaves
        # a manifest whose fingerprint guards the next resume.
        if checkpoint is not None:
            checkpoint.save(fingerprint)
    timings["execute"] = clock.monotonic() - phase_started

    # Phase 3: reduce, in job order.
    phase_started = clock.monotonic()
    value = scenario.reduce(config, results)
    timings["reduce"] = clock.monotonic() - phase_started
    timings["total"] = clock.monotonic() - run_started

    run = ScenarioRun(scenario=scenario.name, seed=int(seed),
                      backend=backend, results=results, value=value,
                      resumed=resumed, timings=timings)
    if obs.enabled():
        run.metrics_snapshot = obs.metrics().snapshot()
        obs.complete_span("scenario.run", run_started, timings["total"],
                          scenario=scenario.name, jobs=len(plan),
                          resumed=len(resumed), backend=backend)
    return run
