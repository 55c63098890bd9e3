"""The blessed public surface of the SAMURAI reproduction.

``from repro.api import ...`` is the documented way into the library:
everything here is covered by the statistical-equivalence and surface
tests and is kept stable across refactors, whereas deep submodule paths
(``repro.markov.uniformization`` etc.) may move.  Package ``__init__``s
re-export nothing: every other name is imported from the submodule
that defines it.

Imports are lazy (PEP 562): touching one name does not pull in the
SPICE engine, scipy-heavy trap physics or the SRAM stack until that
name is actually used, so ``import repro`` stays cheap for scripts that
only need a kernel.

The surface, by workflow:

Kernels (paper Algorithm 1)
    :func:`simulate_trap`, :func:`simulate_traps_batch` (over a rate
    table), :class:`OccupancyTrace`, :class:`BatchPropensity` (the dense
    rate table), :func:`make_propensity`, :class:`UniformizationStats`
Trap physics (paper Eqs. 1-2)
    :class:`Trap`, :class:`TrapPopulation`, :class:`TrapProfiler`,
    :func:`population_propensity`, :func:`draw_initial_states`
RTN synthesis (paper Eq. 3)
    :func:`generate_device_rtn`, :class:`RTNTrace`
Cell & methodology (paper Fig. 8)
    :func:`run_methodology`, :class:`MethodologyConfig`,
    :class:`Samurai`, :class:`SramCellSpec`, :func:`write_pattern`,
    :func:`get_technology`, :func:`static_noise_margin`
Array-scale Monte-Carlo
    :class:`EnsembleRunner`, :class:`EnsembleConfig`,
    :class:`EnsembleResult`
Scenarios (declarative workloads over the engine)
    :class:`Scenario`, :class:`ScenarioRun`, :func:`run_scenario`,
    :func:`register_scenario`, :func:`get_scenario`,
    :func:`available_scenarios` — see ``docs/architecture.md``
Resilience (fault-tolerant execution)
    :class:`RetryPolicy`, :class:`JobResult`, :func:`run_jobs`,
    :class:`RunCheckpoint`, :func:`inject_faults`
Execution engine (``workers`` picks the backend, see
``docs/performance.md``)
    :class:`SharedMemoryBackend`, :func:`get_backend`
Observability (tracing / metrics / telemetry)
    :class:`Tracer`, :class:`Metrics`, :func:`enable_tracing`,
    :func:`profiled`, :class:`RunTelemetry`, :func:`load_telemetry`,
    :func:`telemetry_report`, :func:`validate_chrome_trace`
Analysis (estimators behind the validation figures)
    :func:`compute_autocorrelation`, :func:`compute_autocovariance`,
    :func:`compute_welch_psd`, :func:`compute_periodogram_psd`,
    :func:`compute_psd_from_autocovariance`,
    :func:`compute_dwell_summary`, :func:`compute_dwell_exponentiality`,
    :func:`fit_lorentzian`, :func:`fit_one_over_f`
Verification (statistical correctness harness)
    :func:`run_verification`, :class:`VerificationReport`,
    :class:`CheckResult`, :class:`AlphaBudget`
"""

from __future__ import annotations

#: name -> "module:attribute" — the single source of truth for the
#: public surface; ``__getattr__`` resolves through it lazily.
_EXPORTS = {
    # Kernels.
    "simulate_trap": "repro.markov.uniformization:simulate_trap",
    "simulate_traps_batch": "repro.markov.batch:simulate_traps_batch",
    "OccupancyTrace": "repro.markov.occupancy:OccupancyTrace",
    "BatchPropensity": "repro.markov.batch:BatchPropensity",
    "UniformizationStats": "repro.markov.uniformization:UniformizationStats",
    "make_propensity": "repro.markov.propensity:make_propensity",
    # Trap physics.
    "Trap": "repro.traps.trap:Trap",
    "TrapPopulation": "repro.traps.trap:TrapPopulation",
    "TrapProfiler": "repro.traps.profiling:TrapProfiler",
    "draw_initial_states": "repro.traps.propensity:draw_initial_states",
    "population_propensity": "repro.traps.propensity:population_propensity",
    # RTN synthesis.
    "generate_device_rtn": "repro.rtn.generator:generate_device_rtn",
    "RTNTrace": "repro.rtn.trace:RTNTrace",
    # Cell & methodology.
    "get_technology": "repro.devices.technology:get_technology",
    "SramCellSpec": "repro.sram.cell:SramCellSpec",
    "write_pattern": "repro.sram.patterns:write_pattern",
    "static_noise_margin": "repro.sram.margins:static_noise_margin",
    "Samurai": "repro.core.samurai:Samurai",
    "run_methodology": "repro.core.methodology:run_methodology",
    "MethodologyConfig": "repro.core.methodology:MethodologyConfig",
    # Array-scale Monte-Carlo.
    "EnsembleRunner": "repro.core.ensemble:EnsembleRunner",
    "EnsembleConfig": "repro.core.ensemble:EnsembleConfig",
    "EnsembleResult": "repro.core.ensemble:EnsembleResult",
    # Scenarios.
    "Scenario": "repro.core.scenario:Scenario",
    "ScenarioRun": "repro.core.scenario:ScenarioRun",
    "run_scenario": "repro.core.scenario:run_scenario",
    "register_scenario": "repro.core.scenario:register_scenario",
    "get_scenario": "repro.core.scenario:get_scenario",
    "available_scenarios": "repro.core.scenario:available_scenarios",
    # Resilience.
    "RetryPolicy": "repro.core.resilience:RetryPolicy",
    "JobResult": "repro.core.resilience:JobResult",
    "run_jobs": "repro.core.resilience:run_jobs",
    "RunCheckpoint": "repro.core.resilience:RunCheckpoint",
    "inject_faults": "repro.testing.faults:inject_faults",
    # Execution engine.
    "SharedMemoryBackend": "repro.core.engine:SharedMemoryBackend",
    "get_backend": "repro.core.engine:get_backend",
    # Observability.
    "Tracer": "repro.obs.tracer:Tracer",
    "Metrics": "repro.obs.metrics:Metrics",
    "enable_tracing": "repro.obs:enable_tracing",
    "profiled": "repro.obs.profile:profiled",
    "RunTelemetry": "repro.obs.telemetry:RunTelemetry",
    "load_telemetry": "repro.obs.telemetry:load_telemetry",
    "telemetry_report": "repro.obs.telemetry:telemetry_report",
    "validate_chrome_trace": "repro.obs.tracer:validate_chrome_trace",
    # Analysis.
    "compute_autocorrelation": "repro.analysis.autocorr:autocorrelation",
    "compute_autocovariance": "repro.analysis.autocorr:autocovariance",
    "compute_welch_psd": "repro.analysis.psd:welch_psd",
    "compute_periodogram_psd": "repro.analysis.psd:periodogram_psd",
    "compute_psd_from_autocovariance":
        "repro.analysis.psd:psd_from_autocovariance",
    "compute_dwell_summary": "repro.analysis.dwell:summarise_dwells",
    "compute_dwell_exponentiality":
        "repro.analysis.dwell:exponentiality_pvalue",
    "fit_lorentzian": "repro.analysis.fitting:fit_lorentzian",
    "fit_one_over_f": "repro.analysis.fitting:fit_one_over_f",
    # Verification.
    "run_verification": "repro.verify.suite:run_suite",
    "VerificationReport": "repro.verify.result:VerificationReport",
    "CheckResult": "repro.verify.result:CheckResult",
    "AlphaBudget": "repro.verify.harness:AlphaBudget",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a blessed name on first access (PEP 562 lazy import)."""
    try:
        target = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.api' has no attribute {name!r}") from None
    import importlib

    module_name, attribute = target.split(":")
    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: subsequent accesses skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
