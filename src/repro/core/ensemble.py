"""Array-scale Monte-Carlo RTN prediction on the batched kernel.

:func:`repro.sram.array.simulate_array` runs the full two-SPICE-pass
methodology per cell — exact but linear in cells *and* dominated by
transient solves.  This module is the scalable path the paper's outlook
asks for ("predicting the bit-error impact of RTN on entire SRAM
arrays"): it amortises the SPICE work across the whole ensemble and
pushes every stochastic trap simulation through
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
   per-cell methodology.  The fan-out is the ``sram.verify`` scenario —
   a prepared-plan :class:`~repro.core.scenario.Scenario` executed on
   the configured :mod:`repro.core.engine` backend — so the runner no
   longer carries its own dispatch code.
5. **Margins**: the nominal static noise margin is computed once;
   ``margin_samples`` adds a per-cell hold-SNM distribution.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from .._deprecation import warn_once
from ..errors import ModelError, RecoveredWarning, SimulationError
from ..obs import clock
from ..obs.telemetry import RunTelemetry
from ..markov.batch import _scalar_fallback, simulate_traps_batch
from ..markov.occupancy import number_filled
from ..rtn.current import RtnAmplitudeModel, VanDerZielModel, rtn_current_samples
from ..rtn.trace import RTNTrace
from ..spice.transient import TransientOptions, simulate_transient
from ..traps.propensity import (
    equilibrium_occupancy_population,
    population_propensity,
)
from .engine import get_backend, propensity_cache, resolve_backend
from .methodology import MethodologyConfig
from .resilience import JOB_STATUSES, RetryPolicy, RunCheckpoint
from .scenario import Scenario, register_scenario, run_scenario

__all__ = [
    "CellEnsembleOutcome",
    "EnsembleConfig",
    "EnsembleResult",
    "EnsembleRunner",
    "VerificationPlan",
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
        flagged cells.
    workers:
        Process count for sharding the verification passes; ``None`` or
        1 stays serial.
    backend:
        Execution backend for the verification jobs: ``"serial"``,
        ``"shared"`` (persistent workers over one shared-memory payload
        arena — see :mod:`repro.core.engine`), or ``None`` for
        :func:`~repro.core.engine.resolve_backend`'s choice (``shared``
        when ``workers > 1``, else ``serial``).
    cache_tables:
        Memoise compiled trap-population propensity tables in the
        process-wide :func:`~repro.core.engine.propensity_cache`, so
        identical populations across a sweep (same technology card,
        same seed) skip the surface-potential solve.
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
        thresholds, nominal-current clipping).
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
    cache_tables: bool = True
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
        if self.margin_samples < 0:
            raise ValueError("margin_samples must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume requires checkpoint_dir")
        if self.backend is not None:
            get_backend(self.backend)  # ValueError for an unknown name

    def fingerprint(self) -> dict:
        """Identity of a run for checkpoint compatibility checks."""
        spec = self.spec
        node = getattr(getattr(spec, "technology", None), "node", None)
        return {
            "n_cells": int(self.n_cells),
            "rtn_scale": float(self.rtn_scale),
            "screen_threshold": float(self.screen_threshold),
            "technology": node,
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

    def failure_summary(self) -> dict:
        """Deprecated: the pre-telemetry diagnostics dictionary.

        .. deprecated::
            Use :attr:`telemetry` — the same counts live in
            ``result.telemetry.counts`` / ``.complete`` / ``.errors``
            and the kernel fallbacks in ``.kernel``.  This shim keeps
            the old dictionary shape working and will be removed in a
            future release.
        """
        warn_once(
            "EnsembleResult.failure_summary() is deprecated; read "
            "EnsembleResult.telemetry (a RunTelemetry) instead",
            DeprecationWarning, stacklevel=2)
        return self.telemetry.failure_summary_dict()

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


def _verify_cell(job: tuple) -> tuple[int, int, list]:
    """Injected SPICE pass for one flagged cell (worker friendly).

    Module-level and driven purely by its picklable argument tuple so
    the ``shared`` backend's workers can run the verification passes,
    reading the trace arrays straight from its shared-memory arena;
    every randomness-bearing input (traces, trap populations) is drawn
    before sharding, so workers are deterministic.
    """
    from ..sram.cell import build_sram_cell
    from ..sram.detectors import OpOutcome, classify_operations
    from ..sram.injection import attach_rtn_sources
    from ..sram.patterns import build_pattern_waveforms

    index, spec, pattern, traces, dt, record_every, thresholds = job
    cell = build_sram_cell(spec)
    waves = build_pattern_waveforms(pattern, cell.vdd)
    cell.set_stimuli(waves.wl, waves.bl, waves.blb)
    attach_rtn_sources(cell, traces, scale=1.0)
    waveform = simulate_transient(
        cell.circuit, waves.duration,
        dt if dt is not None else waves.suggested_dt,
        initial_voltages=cell.initial_voltages(pattern.initial_bit),
        options=TransientOptions(record_every=record_every))
    results = classify_operations(waveform, waves.schedule, cell.vdd,
                                  thresholds=thresholds)
    failures = sum(1 for r in results if r.outcome is not OpOutcome.OK)
    errors = [r.index for r in results if r.outcome is OpOutcome.ERROR]
    return index, failures, errors


@dataclass(frozen=True)
class VerificationPlan:
    """The ensemble's prepared verification fan-out, as scenario input.

    The runner screens the population first, so the plan arrives fully
    materialised: one prepared ``_verify_cell`` job tuple per pending
    cell, keyed by its cell index.  Keeping the cell indices as job
    keys preserves the fault-site decision hashes and checkpoint record
    indices of the pre-scenario dispatch bit-for-bit.
    """

    jobs: tuple
    keys: tuple

    def __post_init__(self) -> None:
        if len(self.jobs) != len(self.keys):
            raise ValueError("jobs and keys must match one-to-one")


def _verify_job(payload, rng: np.random.Generator):
    """Scenario kernel: one prepared verification job.

    The randomness-bearing inputs (traces, populations, mismatch) were
    drawn during screening, so the job generator is deliberately unused
    — verification is a deterministic function of its payload.
    """
    return _verify_cell(payload)


class VerifyScenario(Scenario):
    """``sram.verify`` — the ensemble's screened SPICE verification.

    Unlike the standalone scenarios this one takes a *prepared*
    :class:`VerificationPlan` (built by :class:`EnsembleRunner` after
    screening); it exists so the runner's fan-out rides the same
    scenario -> engine path as every other workload instead of private
    dispatch code.  It has no standalone CLI configuration.
    """

    name = "sram.verify"
    description = ("SRAM ensemble verification fan-out "
                   "(internal: driven by EnsembleRunner)")
    kernel = staticmethod(_verify_job)

    def plan(self, config: VerificationPlan) -> list:
        return list(config.jobs)

    def keys(self, config: VerificationPlan, plan: list) -> list:
        return [int(key) for key in config.keys]

    def reduce(self, config: VerificationPlan, results) -> list:
        return results

    def fingerprint(self, config: VerificationPlan) -> dict:
        return {"keys": [int(key) for key in config.keys]}

    def encode_value(self, value):
        index, failures, errors = value
        return [int(index), int(failures), [int(e) for e in errors]]

    def decode_value(self, encoded):
        index, failures, errors = encoded
        return int(index), int(failures), [int(e) for e in errors]


register_scenario(VerifyScenario)


@dataclass
class EnsembleRunner:
    """Monte-Carlo ensemble driver on the batched kernel.

    Attributes
    ----------
    config:
        The run configuration.
    amplitude_model:
        RTN current amplitude model (default paper Eq. 3); kept here so
        a runner can be re-used across runs with different models.
    """

    config: EnsembleConfig
    amplitude_model: RtnAmplitudeModel | None = None

    def run(self, rng: np.random.Generator, profiler=None) -> EnsembleResult:
        """Execute the ensemble pipeline (see the module docstring).

        Parameters
        ----------
        rng:
            NumPy random generator; one seed reproduces the whole
            ensemble (mismatch, trap populations, trap dynamics).
        profiler:
            Trap profiler; defaults to the cell technology's standard
            :class:`~repro.traps.profiling.TrapProfiler`.
        """
        from ..sram.array import PELGROM_AVT, sample_vt_shifts
        from ..sram.biases import extract_biases
        from ..sram.cell import SramCellSpec, build_sram_cell
        from ..sram.detectors import OpOutcome, classify_operations
        from ..sram.margins import static_noise_margin
        from ..sram.patterns import build_pattern_waveforms
        from ..traps.profiling import TrapProfiler

        config = self.config
        spec = config.spec or SramCellSpec()
        if config.pattern is not None:
            pattern = config.pattern
        else:
            from .experiments import fig8_pattern
            pattern = fig8_pattern()
        avt = PELGROM_AVT if config.avt is None else config.avt
        profiler = profiler or TrapProfiler(spec.technology)
        model = self.amplitude_model or config.methodology.amplitude_model \
            or VanDerZielModel()
        method = config.methodology

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
        cell = build_sram_cell(spec)
        waves = build_pattern_waveforms(pattern, cell.vdd)
        cell.set_stimuli(waves.wl, waves.bl, waves.blb)
        dt = method.dt if method.dt is not None else waves.suggested_dt
        initial = cell.initial_voltages(pattern.initial_bit)
        clean = simulate_transient(cell.circuit, waves.duration, dt,
                                   initial_voltages=initial,
                                   options=TransientOptions(
                                       record_every=method.record_every))
        clean_results = classify_operations(clean, waves.schedule, cell.vdd,
                                            thresholds=method.thresholds)
        clean_failures = sum(1 for r in clean_results
                             if r.outcome is not OpOutcome.OK)
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
        # every cell's population; split and synthesise Eq.-3 currents.
        from ..testing import faults

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
            if config.cache_tables:
                batch = propensity_cache().population(
                    flat_traps, tech, record.times, record.v_drive)
            else:
                batch = population_propensity(flat_traps, tech,
                                              record.times, record.v_drive)
            filled_p = equilibrium_occupancy_population(
                float(record.v_drive[0]), flat_traps, tech)
            init = (rng.random(len(flat_traps)) < filled_p).astype(np.int8)
            occupancies, stats = _simulate_population(
                batch, float(record.times[0]), float(record.times[-1]),
                rng, init, name, kernel_fallbacks)
            kernel_stats[name] = stats.aggregate
            params = cell.transistors[name].params
            limit = np.abs(record.i_d)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            for cell_index in range(config.n_cells):
                cell_occ = occupancies[offsets[cell_index]:
                                       offsets[cell_index + 1]]
                if not cell_occ:
                    continue
                transitions[cell_index] += sum(o.n_transitions
                                               for o in cell_occ)
                n_filled = number_filled(cell_occ, record.times)
                current = rtn_current_samples(model, params, record.v_drive,
                                              record.i_d, n_filled)
                current = current * np.sign(record.i_d) * config.rtn_scale
                if method.clip_to_nominal:
                    current = np.clip(current, -limit, limit)
                if faults.should("nan", (name, cell_index)):
                    current = current + np.nan
                try:
                    trace = RTNTrace(times=record.times, current=current,
                                     label=name)
                except ModelError as exc:
                    # A corrupted trace costs one cell, never the run:
                    # the cell is excluded from verification and carries
                    # its failure in the per-cell status.
                    cell_errors[cell_index] = (
                        f"RTN trace for {name} rejected: {exc}")
                    continue
                metric = float(np.max(np.abs(current))) / peak_i
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
        pending = [i for i in verify if i not in verdicts]
        jobs = [(i, dataclasses.replace(spec, vt_shifts=shifts[i]),
                 pattern, traces[i], method.dt, method.record_every,
                 method.thresholds) for i in pending]

        completed_since_save = 0

        def on_result(job_result) -> None:
            nonlocal completed_since_save
            index = int(job_result.key)
            if job_result.succeeded:
                _, failures, errors = job_result.value
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

        # The fan-out rides the sram.verify scenario: same jobs, same
        # cell-index keys (so fault decisions and checkpoint records
        # are bit-identical to the pre-scenario dispatch), with the
        # runner keeping its own richer checkpoint records via
        # on_result rather than the scenario layer's generic ones.
        backend = resolve_backend(config.backend, config.workers)
        run_scenario(VerifyScenario,
                     VerificationPlan(jobs=tuple(jobs), keys=tuple(pending)),
                     backend=backend, workers=config.workers,
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
