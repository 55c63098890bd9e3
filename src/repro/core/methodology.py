"""The paper's Fig. 8 methodology, end to end.

The flowchart:

1. Simulate the SRAM cell on a test pattern *without* RTN (SPICE) —
   yields the time-varying biases.
2. Run SAMURAI per transistor under those biases (needs trap profiles,
   here statistically sampled).
3. Model each ``I_RTN`` trace as a drain-source current source and
   re-simulate the same pattern (SPICE).
4. Classify each operation: write errors / slowdown => the cell is
   compromised at this supply; otherwise repeat with a new pattern or
   conclude robustness.

The paper scales the generated traces by a factor (30 in its Fig. 8
illustration) to make the rare-event failure visible; ``rtn_scale``
exposes that knob.

Steps 1 and 3 are the same SPICE pass with and without injected
sources, so both run through one :class:`PatternBench`, and step 3's
trace shaping is :func:`injection_trace`.  :func:`run_methodology`
uses both for the per-cell flow; the array ensemble
(:mod:`repro.core.ensemble`) uses them for its shared clean pass and
its per-cell verification, whose cells :func:`simulate_passes` steps
through one lockstep transient.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, SimulationError
from ..rtn.current import RtnAmplitudeModel, VanDerZielModel
from ..rtn.trace import RTNTrace
from ..spice.transient import TransientOptions, simulate_transient_batch
from ..sram.biases import BiasRecord, extract_biases
from ..sram.cell import SramCell, SramCellSpec, build_sram_cell
from ..sram.detectors import (
    DetectorThresholds,
    OpOutcome,
    classify_operations,
    count_outcomes,
)
from ..sram.injection import attach_rtn_sources, detach_rtn_sources
from ..sram.patterns import (
    PatternWaveforms,
    TestPattern,
    build_pattern_waveforms,
)
from ..traps.profiling import TrapProfiler
from .samurai import Samurai


@dataclass(frozen=True)
class MethodologyConfig:
    """Knobs of one methodology run.

    Attributes
    ----------
    rtn_scale:
        Multiplier on every generated trace (paper Fig. 8(e) uses 30).
    dt:
        Transient step [s]; ``None`` uses the pattern's suggestion.
    record_every:
        Output thinning for the transient engine.
    amplitude_model:
        RTN amplitude model (default paper Eq. 3).
    thresholds:
        Failure-classification thresholds.
    clip_to_nominal:
        Clamp each injected trace's magnitude to the transistor's
        nominal (clean-pass) current.  RTN *reduces* conduction, so the
        opposing source can at most null the channel current; without
        the clamp, large acceleration factors can push storage nodes
        beyond the rails (our substitute devices carry no clamping
        junction diodes).
    """

    rtn_scale: float = 1.0
    dt: float | None = None
    record_every: int = 1
    amplitude_model: RtnAmplitudeModel = field(default_factory=VanDerZielModel)
    thresholds: DetectorThresholds = field(default_factory=DetectorThresholds)
    clip_to_nominal: bool = True


@dataclass
class MethodologyResult:
    """Everything one Fig.-8 run produces.

    Attributes
    ----------
    cell:
        The simulated cell (with RTN sources removed again).
    pattern:
        The executed pattern.
    clean_waveform:
        The no-RTN transient (Fig. 8 plot (a)).
    rtn_waveform:
        The with-RTN transient (Fig. 8 plot (e)).
    biases:
        Transistor name -> extracted bias record.
    rtn:
        Transistor name -> :class:`DeviceRtnResult` (plots (b)-(d)).
    clean_results, rtn_results:
        Per-operation verdicts for the two passes.
    """

    cell: SramCell
    pattern: TestPattern
    clean_waveform: object
    rtn_waveform: object
    biases: dict
    rtn: dict
    clean_results: list
    rtn_results: list

    @property
    def clean_counts(self) -> dict:
        return count_outcomes(self.clean_results)

    @property
    def rtn_counts(self) -> dict:
        return count_outcomes(self.rtn_results)

    @property
    def cell_compromised(self) -> bool:
        """Paper's verdict: any write error or slowdown under RTN."""
        return any(result.outcome is not OpOutcome.OK
                   for result in self.rtn_results)

    def failed_slots(self) -> list[int]:
        """Indices of the pattern slots that erred under RTN."""
        return [result.index for result in self.rtn_results
                if result.outcome is OpOutcome.ERROR]


@dataclass(frozen=True)
class PatternBench:
    """One cell driven by one test pattern: the Fig.-8 SPICE passes.

    :meth:`build` does the setup once (cell, pattern stimuli, transient
    step and options, initial voltages); :meth:`simulate` runs one
    transient pass — the clean step 1, or step 3 with RTN sources
    attached — and classifies its operations (step 4).

    Attributes
    ----------
    cell:
        The built cell with the pattern stimuli installed.
    waves:
        The pattern's stimuli and operation schedule.
    dt:
        Transient step [s].
    initial:
        UIC node voltages holding the pattern's initial bit.
    options:
        Transient engine options.
    thresholds:
        Failure-classification thresholds.
    """

    cell: SramCell
    waves: PatternWaveforms
    dt: float
    initial: dict
    options: TransientOptions
    thresholds: DetectorThresholds

    @classmethod
    def build(cls, spec: SramCellSpec | None, pattern: TestPattern,
              config: MethodologyConfig) -> "PatternBench":
        """Build ``spec``'s cell and drive it with ``pattern``."""
        cell = build_sram_cell(spec)
        waves = build_pattern_waveforms(pattern, cell.vdd)
        cell.set_stimuli(waves.wl, waves.bl, waves.blb)
        return cls(
            cell=cell, waves=waves,
            dt=config.dt if config.dt is not None else waves.suggested_dt,
            initial=cell.initial_voltages(pattern.initial_bit),
            options=TransientOptions(record_every=config.record_every),
            thresholds=config.thresholds)

    def simulate(self, traces: dict | None = None) -> tuple:
        """One transient pass and its per-operation verdicts.

        ``traces`` (transistor name -> :class:`RTNTrace`) are attached
        as opposing current sources for the pass and detached after it,
        so the bench can run again; ``None`` runs the clean pass.
        Returns ``(waveform, verdicts)``.
        """
        (outcome,) = simulate_passes([self], [traces])
        if isinstance(outcome, ConvergenceError):
            raise outcome
        return outcome


def simulate_passes(benches: list, traces: list) -> list:
    """One lockstep transient pass over many benches, and its verdicts.

    The benches share their pattern window, step and transient options,
    and with their ``traces`` (one dict or ``None`` per bench, as for
    :meth:`PatternBench.simulate`) attached, their circuits share one
    topology: the same RTN sources in the same order.  Their cells may
    differ in every value (``vt_shifts``, say).  Each bench gets the
    bits of its own :meth:`PatternBench.simulate`.

    Returns, per bench, ``(waveform, verdicts)`` or the
    :class:`~repro.errors.ConvergenceError` that stopped its pass.
    """
    first = benches[0]
    window = (first.waves.duration, first.dt, first.options)
    if any((bench.waves.duration, bench.dt, bench.options) != window
           for bench in benches):
        raise SimulationError(
            "benches of one pass must share their window, step and "
            "transient options")
    attached = []
    try:
        for bench, cell_traces in zip(benches, traces, strict=True):
            if cell_traces is not None:
                attached.append(bench)
                attach_rtn_sources(bench.cell, cell_traces, scale=1.0)
        waveforms = simulate_transient_batch(
            [bench.cell.circuit for bench in benches], first.waves.duration,
            first.dt, initial_voltages=[bench.initial for bench in benches],
            options=first.options)
    finally:
        for bench in attached:
            detach_rtn_sources(bench.cell)
    return [waveform if isinstance(waveform, ConvergenceError) else (
                waveform, classify_operations(
                    waveform, bench.waves.schedule, bench.cell.vdd,
                    thresholds=bench.thresholds))
            for bench, waveform in zip(benches, waveforms)]


def injection_currents(record: BiasRecord, current: np.ndarray,
                       config: MethodologyConfig) -> np.ndarray:
    """Step 3's arithmetic on generated RTN currents, one or many.

    Multiplies ``current`` (sampled on ``record``'s grid: one trace of
    shape ``(M,)`` or a block of traces ``(C, M)``) by
    ``config.rtn_scale`` and, with ``config.clip_to_nominal``, clamps it
    to the nominal current ``|record.i_d|``.  Each row of a block comes
    out equal, bit for bit, to that row shaped alone.
    """
    current = current * config.rtn_scale
    if config.clip_to_nominal:
        limit = np.abs(record.i_d)
        current = np.clip(current, -limit, limit)
    return current


def injection_trace(record: BiasRecord, current: np.ndarray,
                    config: MethodologyConfig, label: str = "") -> RTNTrace:
    """Step 3's trace for one transistor, ready to inject.

    The :func:`injection_currents` of a generated RTN current (sampled
    on ``record``'s grid) as an :class:`~repro.rtn.trace.RTNTrace`.
    """
    return RTNTrace(times=record.times,
                    current=injection_currents(record, current, config),
                    label=label)


def run_fingerprint(spec: SramCellSpec | None, pattern: TestPattern | None,
                    config: MethodologyConfig) -> dict:
    """JSON-native identity of a cell, pattern and methodology.

    The checkpoint fingerprint shared by the array scenarios: the whole
    cell spec and pattern (``None`` stays ``None``) and the
    methodology's transient step, output thinning, detector
    thresholds, clipping and amplitude model (type and fields).  The
    RTN scale is left to the caller, which knows which scale it applies.
    """
    model = config.amplitude_model
    return {
        "spec": None if spec is None else dataclasses.asdict(spec),
        "pattern": None if pattern is None else {
            **dataclasses.asdict(pattern),
            "operations": [dataclasses.asdict(op)
                           for op in pattern.operations]},
        "dt": config.dt,
        "record_every": config.record_every,
        "thresholds": dataclasses.asdict(config.thresholds),
        "clip_to_nominal": config.clip_to_nominal,
        "amplitude_model": {
            "type": type(model).__qualname__,
            "fields": dataclasses.asdict(model)
            if dataclasses.is_dataclass(model) else {}},
    }


def run_methodology(pattern: TestPattern, rng: np.random.Generator,
                    spec: SramCellSpec | None = None,
                    profiler: TrapProfiler | None = None,
                    trap_populations: dict | None = None,
                    config: MethodologyConfig | None = None
                    ) -> MethodologyResult:
    """Execute the full Fig.-8 flow on a fresh cell.

    Parameters
    ----------
    pattern:
        The read/write test pattern.
    rng:
        NumPy random generator (trap sampling + kernels).
    spec:
        Cell geometry/supply; defaults to the 90 nm cell.
    profiler:
        Statistical trap profiler; defaults to the cell technology's
        standard profiler.  Ignored when ``trap_populations`` is given.
    trap_populations:
        Explicit transistor name -> trap population (a list of
        :class:`~repro.traps.trap.Trap` or a
        :class:`~repro.traps.trap.TrapPopulation`; for controlled
        experiments).
    config:
        Run knobs.
    """
    spec = spec or SramCellSpec()
    config = config or MethodologyConfig()
    if config.rtn_scale < 0.0:
        raise SimulationError("rtn_scale must be non-negative")

    # Step 1: clean pass.
    bench = PatternBench.build(spec, pattern, config)
    clean_waveform, clean_results = bench.simulate()

    # Step 2: SAMURAI under the extracted biases.
    cell = bench.cell
    biases = extract_biases(cell, clean_waveform)
    if trap_populations is not None:
        engine = Samurai(cell=cell, trap_populations=trap_populations,
                         amplitude_model=config.amplitude_model)
    else:
        engine = Samurai.with_sampled_traps(
            cell, profiler or TrapProfiler(spec.technology), rng,
            amplitude_model=config.amplitude_model)
    rtn = engine.generate(biases, rng)

    # Steps 3 and 4: inject, re-simulate and classify.
    traces = {name: injection_trace(biases[name], result.trace.current,
                                    config, label=result.trace.label)
              for name, result in rtn.items()}
    rtn_waveform, rtn_results = bench.simulate(traces)
    return MethodologyResult(
        cell=cell, pattern=pattern,
        clean_waveform=clean_waveform, rtn_waveform=rtn_waveform,
        biases=biases, rtn=rtn,
        clean_results=clean_results, rtn_results=rtn_results)
