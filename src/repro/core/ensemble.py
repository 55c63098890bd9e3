"""Array-scale Monte-Carlo RTN prediction on the batched kernel.

The ``sram.array`` scenario (:mod:`repro.sram.array`) runs the full
two-SPICE-pass methodology per cell — exact but linear in cells *and*
dominated by transient solves.  This module is the scalable path the
paper's outlook asks for ("predicting the bit-error impact of RTN on
entire SRAM arrays"): it amortises the SPICE work across the whole
ensemble and pushes every stochastic trap simulation through
:func:`repro.markov.batch.simulate_traps_batch`.

The pipeline:

1. **One clean SPICE pass** on the nominal cell extracts the per-
   transistor bias records.  Threshold mismatch shifts each cell's
   biases only weakly (Pelgrom sigmas are a few mV against a
   VDD-scale drive), so the ensemble shares the nominal biases for RTN
   *generation* — the *verification* pass (step 4) re-simulates flagged
   cells with their own mismatched devices.
2. **Population sampling**: every cell draws Pelgrom threshold shifts
   and independent Poisson trap populations for its six transistors.
3. **Batched RTN synthesis**: per transistor name, the trap populations
   of *all* cells are concatenated into one
   :class:`~repro.markov.batch.BatchPropensity` and simulated in a
   single kernel call (six calls for the whole array), then split back
   per cell and converted to Eq.-(3) current traces.  A screening
   metric — the peak scaled RTN current relative to the peak nominal
   channel current — ranks the cells.
4. **Verification**: cells whose metric clears ``screen_threshold`` are
   re-simulated through the real injected SPICE pass (with their own
   ``vt_shifts``) and classified into write errors exactly like the
   per-cell methodology.  The fan-out is the ``sram.verify`` scenario,
   executed on the configured :mod:`repro.core.engine` backend.
5. **Margins**: the nominal static noise margin is computed once;
   ``margin_samples`` adds a per-cell hold-SNM distribution.

Steps 1 and 4 are the methodology's own SPICE passes
(:class:`~repro.core.methodology.PatternBench`), and each screened trace
is shaped by the methodology's step 3
(:func:`~repro.core.methodology.injection_trace`).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..errors import ModelError, RecoveredWarning, SimulationError
from ..obs import clock
from ..obs.telemetry import RunTelemetry
from ..markov.batch import _scalar_fallback, simulate_traps_batch
from ..markov.occupancy import number_filled
from ..rtn.current import rtn_current_samples
# Unused here since the SPICE passes moved to PatternBench; still bound
# because benchmarks/perf/test_perf_harness.py checks that the layer
# probes rewrite this alias.
from ..spice.transient import simulate_transient  # noqa: F401
from ..sram.detectors import OpOutcome
from ..traps.propensity import equilibrium_occupancy_population
from .engine import get_backend, propensity_cache, resolve_backend
from .methodology import (
    MethodologyConfig,
    PatternBench,
    injection_trace,
    run_fingerprint,
)
from .resilience import JOB_STATUSES, RetryPolicy, RunCheckpoint
from .scenario import Scenario, register_scenario, run_scenario

__all__ = [
    "CellEnsembleOutcome",
    "EnsembleConfig",
    "EnsembleResult",
    "EnsembleRunner",
]


@dataclass(frozen=True)
class EnsembleConfig:
    """Knobs of one ensemble run.

    Attributes
    ----------
    n_cells:
        Number of independent cells in the ensemble.
    spec:
        Nominal cell; ``None`` uses the default 90 nm cell.
    pattern:
        Test pattern; ``None`` uses the paper's Fig.-8 write pattern.
    rtn_scale:
        RTN acceleration factor applied to every generated trace
        (paper Fig. 8(e) uses 30).
    avt:
        Pelgrom coefficient [V m] for the threshold mismatch.
    screen_threshold:
        Cells whose peak scaled RTN current reaches this fraction of
        the transistor's peak nominal current are flagged for SPICE
        verification.
    max_verified_cells:
        Cap on how many flagged cells get the (expensive) verification
        pass; the highest-metric cells go first.  ``None`` verifies all
        flagged cells; a negative cap is rejected.
    workers:
        Process count for sharding the verification passes; ``None`` or
        1 stays serial.
    backend:
        Execution backend for the verification jobs: ``"serial"``,
        ``"shared"`` (persistent workers over one shared-memory payload
        arena — see :mod:`repro.core.engine`), or ``None`` for
        :func:`~repro.core.engine.resolve_backend`'s choice (``shared``
        when ``workers > 1``, else ``serial``).
    keep_traces:
        Keep the synthesised per-cell RTN traces on the result
        (``result.traces[cell][transistor]``) — off by default because
        an array-scale run's traces dwarf the statistics they feed.
        The backend-invariance tests use this to assert bit-identical
        traces across execution backends.
    margin_samples:
        How many cells also get a per-cell hold-SNM solve (0 disables).
    methodology:
        Knobs shared with the per-cell methodology (dt, amplitude model,
        thresholds, nominal-current clipping); its ``rtn_scale`` is
        ignored in favour of this config's.
    retry:
        Retry/backoff/timeout policy for the verification jobs;
        ``None`` uses :class:`~repro.core.resilience.RetryPolicy`
        defaults (3 attempts, no timeout).
    checkpoint_dir:
        Run directory for periodic snapshots of completed cell
        outcomes; ``None`` disables checkpointing.
    checkpoint_every:
        Snapshot cadence, in completed verification jobs.
    resume:
        Load an existing checkpoint from ``checkpoint_dir`` and skip
        the verification of cells it already covers.
    """

    n_cells: int
    spec: object | None = None
    pattern: object | None = None
    rtn_scale: float = 1.0
    avt: float | None = None
    screen_threshold: float = 0.02
    max_verified_cells: int | None = None
    workers: int | None = None
    backend: str | None = None
    keep_traces: bool = False
    margin_samples: int = 0
    methodology: MethodologyConfig = field(default_factory=MethodologyConfig)
    retry: RetryPolicy | None = None
    checkpoint_dir: object | None = None
    checkpoint_every: int = 8
    resume: bool = False

    def __post_init__(self) -> None:
        # Plain bad arguments are programming errors (ValueError), not
        # simulation failures: SimulationError stays reserved for
        # runtime conditions a retry ladder might fix.
        if self.n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if self.rtn_scale < 0.0:
            raise ValueError("rtn_scale must be non-negative")
        if not (0.0 <= self.screen_threshold):
            raise ValueError("screen_threshold must be non-negative")
        if self.max_verified_cells is not None and self.max_verified_cells < 0:
            raise ValueError("max_verified_cells must be non-negative")
        if self.margin_samples < 0:
            raise ValueError("margin_samples must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume requires checkpoint_dir")
        if self.backend is not None:
            get_backend(self.backend)  # ValueError for an unknown name

    def fingerprint(self) -> dict:
        """Identity of a run for checkpoint compatibility checks.

        Covers the inputs that change a cell's screen or verdict: the
        cell count, scale, threshold, Pelgrom coefficient, and the cell,
        pattern and methodology
        (:func:`~repro.core.methodology.run_fingerprint`).  Fields left
        at ``None`` (the runner's defaults) fingerprint as ``None``.
        Every value is JSON-native, so a fingerprint read back from a
        checkpoint compares equal to a fresh one.
        """
        return {
            "n_cells": int(self.n_cells),
            "rtn_scale": float(self.rtn_scale),
            "screen_threshold": float(self.screen_threshold),
            "avt": self.avt,
            **run_fingerprint(self.spec, self.pattern, self.methodology),
        }


@dataclass
class CellEnsembleOutcome:
    """One cell of the ensemble.

    Attributes
    ----------
    index:
        Cell number.
    vt_shifts:
        Sampled per-transistor threshold offsets [V].
    trap_count:
        Traps across the cell's six transistors.
    transitions:
        Trap state changes across the simulated window.
    screen_metric:
        Peak scaled RTN current over peak nominal current, maximised
        over the six transistors.
    flagged:
        The metric cleared the screening threshold.
    verified:
        The cell went through the injected SPICE pass successfully.
    rtn_failures:
        Non-OK operations in the verification pass (0 when not
        verified).
    error_slots:
        Pattern slots that erred in the verification pass.
    snm_hold:
        Per-cell hold static noise margin [V] (``None`` unless the cell
        was margin-sampled).
    status:
        Resilience verdict: ``ok`` (completed cleanly), ``recovered``
        (completed after >= 1 retry or solver-ladder rescue),
        ``failed`` (exhausted retries or hit a non-retryable error) or
        ``timeout`` (its verification job hung past the budget).  A
        non-ok status never aborts the ensemble — the cell simply
        carries its verdict.
    attempts:
        Verification tries consumed (0 when the cell was never
        verified).
    error:
        Message of the terminal failure (``None`` unless
        failed/timeout).
    error_details:
        Structured failure context; a
        :class:`~repro.errors.ConvergenceError` contributes
        ``iterations`` and ``residual``.
    """

    index: int
    vt_shifts: dict
    trap_count: int
    transitions: int
    screen_metric: float
    flagged: bool
    verified: bool = False
    rtn_failures: int = 0
    error_slots: list = field(default_factory=list)
    snm_hold: float | None = None
    status: str = "ok"
    attempts: int = 0
    error: str | None = None
    error_details: dict = field(default_factory=dict)


@dataclass
class EnsembleResult:
    """Aggregated ensemble statistics.

    Attributes
    ----------
    outcomes:
        Per-cell outcomes, in cell order.
    n_slots:
        Pattern slots per cell.
    nominal_snm_hold:
        Hold SNM of the unperturbed cell [V].
    clean_failures:
        Non-OK operations of the nominal clean pass (sanity check —
        nonzero means the pattern fails even without RTN).
    kernel_stats:
        Transistor name -> aggregate
        :class:`~repro.markov.uniformization.UniformizationStats` of the
        batched sweep that simulated all cells' traps on that device.
    kernel_fallbacks:
        Transistor name -> error message, for populations whose batched
        sweep failed and was degraded to the exact scalar kernel.
    timings:
        Pipeline phase -> wall-clock seconds (always recorded).
    metrics_snapshot:
        :meth:`repro.obs.metrics.Metrics.snapshot` taken at the end of
        the run ({} when observability was disabled).
    backend:
        Name of the execution backend that ran the verification pass
        (``serial`` / ``shared``).
    traces:
        Per-cell RTN traces (``traces[cell][transistor]``), populated
        only when :attr:`EnsembleConfig.keep_traces` is on; empty
        otherwise.
    """

    outcomes: list = field(default_factory=list)
    n_slots: int = 0
    nominal_snm_hold: float = 0.0
    clean_failures: int = 0
    kernel_stats: dict = field(default_factory=dict)
    kernel_fallbacks: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    metrics_snapshot: dict = field(default_factory=dict)
    backend: str = ""
    traces: list = field(default_factory=list)

    @property
    def n_cells(self) -> int:
        return len(self.outcomes)

    @property
    def total_traps(self) -> int:
        return sum(o.trap_count for o in self.outcomes)

    @property
    def flagged_cells(self) -> int:
        return sum(1 for o in self.outcomes if o.flagged)

    @property
    def verified_cells(self) -> int:
        return sum(1 for o in self.outcomes if o.verified)

    @property
    def failing_cells(self) -> int:
        """Verified cells with at least one non-OK operation."""
        return sum(1 for o in self.outcomes if o.rtn_failures > 0)

    @property
    def cell_failure_rate(self) -> float:
        return self.failing_cells / self.n_cells if self.outcomes else 0.0

    def screen_metrics(self) -> np.ndarray:
        """Per-cell screening metrics, shape ``(n_cells,)``."""
        return np.array([o.screen_metric for o in self.outcomes])

    def snm_samples(self) -> np.ndarray:
        """The margin-sampled per-cell hold SNMs."""
        return np.array([o.snm_hold for o in self.outcomes
                         if o.snm_hold is not None])

    @property
    def complete(self) -> bool:
        """Every cell reached a usable outcome (no failed/timeout)."""
        return all(o.status in ("ok", "recovered") for o in self.outcomes)

    @property
    def telemetry(self) -> RunTelemetry:
        """The structured diagnostics surface of this run.

        One JSON-serialisable :class:`~repro.obs.telemetry.RunTelemetry`
        replaces the ad-hoc dictionaries the result used to hand out:
        resilience status counts, per-cell diagnostic records, batched
        kernel accounting (with fallbacks folded in), terminal errors,
        pipeline phase timings, and the metrics snapshot of the run
        (when observability was enabled).
        """
        counts = {status: 0 for status in JOB_STATUSES}
        errors: list = []
        cells: list = []
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
            cells.append({
                "index": outcome.index,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "error": outcome.error,
                "error_details": dict(outcome.error_details),
                "flagged": bool(outcome.flagged),
                "verified": bool(outcome.verified),
                "rtn_failures": int(outcome.rtn_failures),
                "screen_metric": float(outcome.screen_metric),
                "trap_count": int(outcome.trap_count),
                "transitions": int(outcome.transitions),
            })
            if outcome.status not in ("ok", "recovered"):
                errors.append({"cell": outcome.index,
                               "status": outcome.status,
                               "error": outcome.error,
                               "details": dict(outcome.error_details)})
        kernel: dict = {}
        for name, stats in self.kernel_stats.items():
            kernel[name] = {
                "candidates": int(stats.n_candidates),
                "accepted": int(stats.n_accepted),
                "acceptance_ratio": float(stats.acceptance_ratio),
                "rate_bound": float(stats.rate_bound),
                "fallback": self.kernel_fallbacks.get(name),
            }
        for name, message in self.kernel_fallbacks.items():
            kernel.setdefault(name, {
                "candidates": 0, "accepted": 0, "acceptance_ratio": 0.0,
                "rate_bound": 0.0, "fallback": message,
            })
        return RunTelemetry(
            n_cells=self.n_cells,
            n_slots=self.n_slots,
            backend=self.backend,
            counts=counts,
            complete=self.complete,
            flagged=self.flagged_cells,
            verified=self.verified_cells,
            failing=self.failing_cells,
            traps=self.total_traps,
            kernel=kernel,
            errors=errors,
            cells=cells,
            timings=dict(self.timings),
            metrics=dict(self.metrics_snapshot),
        )

    def summary(self) -> dict:
        """Compact dictionary for reports and the CLI."""
        metrics = self.screen_metrics()
        telemetry = self.telemetry
        return {
            "cells": self.n_cells,
            "traps": self.total_traps,
            "flagged": self.flagged_cells,
            "verified": self.verified_cells,
            "failing": self.failing_cells,
            "cell_failure_rate": self.cell_failure_rate,
            "peak_screen_metric": float(metrics.max(initial=0.0)),
            "nominal_snm_hold": self.nominal_snm_hold,
            "statuses": telemetry.counts,
            "complete": telemetry.complete,
        }


def _simulate_population(batch, t_start: float, t_stop: float,
                         rng: np.random.Generator, init: np.ndarray,
                         name: str, fallbacks: dict):
    """Batched trap sweep with graceful degradation to the scalar kernel.

    A failure of the vectorised kernel on one transistor's population
    must not abort the whole ensemble: the exact per-trap scalar loop
    (same law, slower) re-simulates the affected population, and the
    degradation is recorded in ``fallbacks`` and announced via
    :class:`~repro.errors.RecoveredWarning`.
    """
    from ..testing import faults

    try:
        if faults.should("batch", name):
            raise SimulationError(
                f"injected batched-kernel fault on {name}")
        return simulate_traps_batch(batch, t_start, t_stop, rng,
                                    initial_states=init)
    except (SimulationError, ModelError, ValueError,
            FloatingPointError) as exc:
        fallbacks[name] = str(exc)
        warnings.warn(RecoveredWarning(
            f"batched kernel failed on {name}; degraded to the scalar "
            f"per-trap kernel: {exc}", stage="scalar kernel"),
            stacklevel=2)
        propensities = [batch.single(i) for i in range(batch.n_traps)]
        return _scalar_fallback(propensities, t_start, t_stop, rng,
                                init, None)


def _verify_cell(payload, rng: np.random.Generator) -> tuple[int, list]:
    """Scenario kernel: the injected SPICE pass of one flagged cell.

    ``payload`` is ``(spec, pattern, traces, methodology)``.  Every
    randomness-bearing input (traces, trap populations, mismatch) was
    drawn during screening, so the job generator is deliberately unused
    and the shared backend's workers, reading the trace arrays from its
    arena, are deterministic.  Returns ``(failures, error_slots)``.
    """
    spec, pattern, traces, method = payload
    _, results = PatternBench.build(spec, pattern, method).simulate(traces)
    failures = sum(1 for r in results if r.outcome is not OpOutcome.OK)
    errors = [r.index for r in results if r.outcome is OpOutcome.ERROR]
    return failures, errors


class VerifyScenario(Scenario):
    """``sram.verify`` — the ensemble's screened SPICE verification.

    Its config is the runner's ``{cell index: payload}`` mapping, built
    after screening; the cell indices are the job keys, so fault-site
    decisions and checkpoint records name cells.  It exists so the
    runner's fan-out rides the same scenario -> engine path as every
    other workload; it has no standalone CLI configuration.
    """

    name = "sram.verify"
    description = ("SRAM ensemble verification fan-out "
                   "(internal: driven by EnsembleRunner)")
    kernel = staticmethod(_verify_cell)

    def plan(self, config: dict) -> list:
        return list(config.values())

    def keys(self, config: dict, plan: list) -> list:
        return list(config)

    def reduce(self, config: dict, results) -> list:
        return results


register_scenario(VerifyScenario)


@dataclass
class EnsembleRunner:
    """Monte-Carlo ensemble driver on the batched kernel.

    Attributes
    ----------
    config:
        The run configuration.
    """

    config: EnsembleConfig

    def run(self, rng: np.random.Generator) -> EnsembleResult:
        """Execute the ensemble pipeline (see the module docstring).

        ``rng`` is a NumPy random generator; one seed reproduces the
        whole ensemble (mismatch, trap populations, trap dynamics).
        Traps are sampled by the cell technology's standard
        :class:`~repro.traps.profiling.TrapProfiler`, and currents use
        the methodology's amplitude model.
        """
        from ..sram.array import PELGROM_AVT, sample_vt_shifts
        from ..sram.biases import extract_biases
        from ..sram.cell import SramCellSpec
        from ..sram.margins import static_noise_margin
        from ..testing import faults
        from ..traps.profiling import TrapProfiler

        config = self.config
        spec = config.spec or SramCellSpec()
        if config.pattern is not None:
            pattern = config.pattern
        else:
            from .experiments import fig8_pattern
            pattern = fig8_pattern()
        avt = PELGROM_AVT if config.avt is None else config.avt
        profiler = TrapProfiler(spec.technology)
        method = dataclasses.replace(config.methodology,
                                     rtn_scale=config.rtn_scale)

        # Phase timings are recorded unconditionally (cheap: one clock
        # read per pipeline stage) so `result.telemetry.timings` is
        # always populated; the matching trace spans only materialise
        # when observability is enabled.
        timings: dict = {}
        run_started = clock.monotonic()

        def _phase_done(name: str, started: float) -> float:
            now = clock.monotonic()
            timings[name] = now - started
            if obs.enabled():
                obs.complete_span(f"ensemble.{name}", started, now - started)
            return now

        phase_started = run_started

        # Step 1: one clean SPICE pass on the nominal cell.
        bench = PatternBench.build(spec, pattern, method)
        clean, clean_results = bench.simulate()
        clean_failures = sum(1 for r in clean_results
                             if r.outcome is not OpOutcome.OK)
        cell = bench.cell
        biases = extract_biases(cell, clean)
        phase_started = _phase_done("clean_pass", phase_started)

        # Step 2: per-cell mismatch + trap populations.
        names = list(cell.transistors)
        shifts = [sample_vt_shifts(rng, spec, avt)
                  for _ in range(config.n_cells)]
        populations = {name: [] for name in names}
        for _ in range(config.n_cells):
            for name in names:
                params = cell.transistors[name].params
                populations[name].append(
                    profiler.sample(rng, params.width, params.length,
                                    label_prefix=f"{name.lower()}_t"))
        phase_started = _phase_done("sampling", phase_started)

        # Step 3: one batched kernel call per transistor name, spanning
        # every cell's population; split, synthesise Eq.-3 currents and
        # shape each into its step-3 trace.
        tech = spec.technology
        metrics = np.zeros(config.n_cells)
        transitions = np.zeros(config.n_cells, dtype=np.int64)
        traces: list[dict] = [dict() for _ in range(config.n_cells)]
        kernel_stats = {}
        kernel_fallbacks: dict = {}
        cell_errors: dict = {}
        for name in names:
            record = biases[name]
            cells_traps = populations[name]
            flat_traps = [trap for traps in cells_traps for trap in traps]
            counts = np.array([len(traps) for traps in cells_traps])
            peak_i = record.peak_current()
            if not flat_traps or peak_i <= 0.0:
                continue
            batch = propensity_cache().population(
                flat_traps, tech, record.times, record.v_drive)
            filled_p = equilibrium_occupancy_population(
                float(record.v_drive[0]), flat_traps, tech)
            init = (rng.random(len(flat_traps)) < filled_p).astype(np.int8)
            occupancies, stats = _simulate_population(
                batch, float(record.times[0]), float(record.times[-1]),
                rng, init, name, kernel_fallbacks)
            kernel_stats[name] = stats.aggregate
            params = cell.transistors[name].params
            offsets = np.concatenate(([0], np.cumsum(counts)))
            for cell_index in range(config.n_cells):
                cell_occ = occupancies[offsets[cell_index]:
                                       offsets[cell_index + 1]]
                if not cell_occ:
                    continue
                transitions[cell_index] += sum(o.n_transitions
                                               for o in cell_occ)
                n_filled = number_filled(cell_occ, record.times)
                current = rtn_current_samples(
                    method.amplitude_model, params, record.v_drive,
                    record.i_d, n_filled) * np.sign(record.i_d)
                if faults.should("nan", (name, cell_index)):
                    current = current + np.nan
                try:
                    trace = injection_trace(record, current, method,
                                            label=name)
                except ModelError as exc:
                    # A corrupted trace costs one cell, never the run:
                    # the cell is excluded from verification and carries
                    # its failure in the per-cell status.
                    cell_errors[cell_index] = (
                        f"RTN trace for {name} rejected: {exc}")
                    continue
                metric = float(np.max(np.abs(trace.current))) / peak_i
                if metric > metrics[cell_index]:
                    metrics[cell_index] = metric
                traces[cell_index][name] = trace
        phase_started = _phase_done("kernels", phase_started)

        # Step 4: verify the flagged cells through the injected pass,
        # fault-isolated: one diverging or crashing verification costs
        # (at most) one cell, and completed cells checkpoint to disk.
        flagged = metrics >= config.screen_threshold
        order = np.argsort(-metrics)
        verify = [int(i) for i in order if flagged[i] and traces[i]]
        if config.max_verified_cells is not None:
            verify = verify[:config.max_verified_cells]

        checkpoint = None
        verdicts: dict = {}
        if config.checkpoint_dir is not None:
            checkpoint = RunCheckpoint(config.checkpoint_dir)
            if config.resume and checkpoint.exists():
                for index, record in checkpoint.load(
                        config.fingerprint()).items():
                    verdicts[int(index)] = record
        pending = {i: (dataclasses.replace(spec, vt_shifts=shifts[i]),
                       pattern, traces[i], method)
                   for i in verify if i not in verdicts}

        completed_since_save = 0

        def on_result(job_result) -> None:
            nonlocal completed_since_save
            index = int(job_result.key)
            if job_result.succeeded:
                failures, errors = job_result.value
                record = {"status": job_result.status, "failures": failures,
                          "error_slots": list(errors)}
            else:
                record = {"status": job_result.status, "failures": 0,
                          "error_slots": [], "error": job_result.error,
                          "error_type": job_result.error_type,
                          "error_details": dict(job_result.error_details)}
            record["attempts"] = job_result.attempts
            verdicts[index] = record
            if checkpoint is not None:
                checkpoint.add(index, record)
                completed_since_save += 1
                if completed_since_save >= config.checkpoint_every:
                    checkpoint.save(config.fingerprint())
                    completed_since_save = 0

        # The fan-out rides the sram.verify scenario, keyed by cell
        # index; the runner keeps its own richer checkpoint records via
        # on_result rather than the scenario layer's generic ones.
        backend = resolve_backend(config.backend, config.workers)
        run_scenario(VerifyScenario, pending, backend=backend,
                     workers=config.workers,
                     policy=config.retry or RetryPolicy(),
                     on_result=on_result)
        if checkpoint is not None:
            checkpoint.save(config.fingerprint())
        phase_started = _phase_done("verification", phase_started)

        # Step 5: margins.
        nominal_snm = static_noise_margin(spec, mode="hold")
        result = EnsembleResult(n_slots=len(pattern.operations),
                                nominal_snm_hold=nominal_snm,
                                clean_failures=clean_failures,
                                kernel_stats=kernel_stats,
                                kernel_fallbacks=kernel_fallbacks,
                                backend=backend.name,
                                traces=traces if config.keep_traces else [])
        for index in range(config.n_cells):
            record = verdicts.get(index, {})
            status = record.get("status", "ok")
            error = record.get("error")
            details = dict(record.get("error_details") or {})
            if index in cell_errors and status in ("ok", "recovered"):
                # A corrupted trace makes the cell's screening (and any
                # verification built on it) untrustworthy.
                status, error = "failed", cell_errors[index]
            snm = None
            if index < config.margin_samples:
                snm = static_noise_margin(
                    dataclasses.replace(spec, vt_shifts=shifts[index]),
                    mode="hold")
            result.outcomes.append(CellEnsembleOutcome(
                index=index, vt_shifts=shifts[index],
                trap_count=sum(len(populations[name][index])
                               for name in names),
                transitions=int(transitions[index]),
                screen_metric=float(metrics[index]),
                flagged=bool(flagged[index]),
                verified=status in ("ok", "recovered") and index in verdicts,
                rtn_failures=int(record.get("failures", 0)),
                error_slots=list(record.get("error_slots", [])),
                snm_hold=snm, status=status,
                attempts=int(record.get("attempts", 0)),
                error=error, error_details=details))
        _phase_done("margins", phase_started)
        timings["total"] = clock.monotonic() - run_started
        result.timings.update(timings)
        if obs.enabled():
            result.metrics_snapshot = obs.metrics().snapshot()
        return result
