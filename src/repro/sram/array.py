"""Monte-Carlo SRAM-array bit-error statistics (paper future-work #3).

The paper's outlook: "predicting the bit-error impact of RTN on entire
SRAM arrays, which are made up of thousands of SRAM cells that are
subject to local and global parameter variations."  This module runs
the full Fig.-8 methodology per cell, with per-cell Pelgrom-style
threshold mismatch and independently sampled trap populations, and
aggregates slot-level outcomes into array failure statistics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..core import scenario
from ..core.methodology import (
    MethodologyConfig,
    run_fingerprint,
    run_methodology,
)
from ..errors import SimulationError
from ..traps.profiling import TrapProfiler
from .cell import SramCellSpec, TRANSISTOR_NAMES
from .patterns import TestPattern

#: Pelgrom threshold-mismatch coefficient [V m] (~2.5 mV um).
PELGROM_AVT = 2.5e-9


@dataclass(frozen=True)
class ArrayConfig:
    """Configuration of one array Monte-Carlo run.

    Attributes
    ----------
    n_cells:
        Number of independent cells to simulate.
    base_spec:
        The nominal cell; each sampled cell perturbs its thresholds.
    pattern:
        The test pattern each cell executes.
    rtn_scale:
        RTN acceleration factor (see paper §IV-B).
    avt:
        Pelgrom coefficient [V m]: per-transistor sigma is
        ``avt / sqrt(W L)``.
    methodology:
        Per-cell methodology knobs (dt, amplitude model, ...).
    """

    n_cells: int
    base_spec: SramCellSpec
    pattern: TestPattern
    rtn_scale: float = 1.0
    avt: float = PELGROM_AVT
    methodology: MethodologyConfig | None = None

    def __post_init__(self) -> None:
        if self.n_cells <= 0:
            raise SimulationError("n_cells must be positive")
        if not (np.isfinite(self.avt) and self.avt >= 0.0):
            raise SimulationError("avt must be finite and non-negative")
        if not (np.isfinite(self.rtn_scale) and self.rtn_scale >= 0.0):
            raise SimulationError(
                "rtn_scale must be finite and non-negative")


@dataclass
class CellOutcome:
    """One cell's result.

    Attributes
    ----------
    index:
        Cell number.
    vt_shifts:
        The sampled per-transistor threshold offsets [V].
    trap_count:
        Total traps across the cell.
    clean_failures, rtn_failures:
        Slots not classified OK in each pass.
    error_slots:
        Slot indices that erred under RTN.
    """

    index: int
    vt_shifts: dict
    trap_count: int
    clean_failures: int
    rtn_failures: int
    error_slots: list


@dataclass
class ArrayResult:
    """Aggregated array statistics.

    Attributes
    ----------
    outcomes:
        Per-cell results.
    n_slots:
        Pattern slots per cell.
    """

    outcomes: list = field(default_factory=list)
    n_slots: int = 0

    @property
    def n_cells(self) -> int:
        return len(self.outcomes)

    @property
    def failing_cells(self) -> int:
        """Cells with at least one non-OK slot under RTN."""
        return sum(1 for o in self.outcomes if o.rtn_failures > 0)

    @property
    def cell_failure_rate(self) -> float:
        return self.failing_cells / self.n_cells if self.outcomes else 0.0

    @property
    def slot_failure_rate(self) -> float:
        """Fraction of all (cell, slot) pairs not OK under RTN."""
        total = self.n_cells * self.n_slots
        if total == 0:
            return 0.0
        return sum(o.rtn_failures for o in self.outcomes) / total

    @property
    def baseline_failure_rate(self) -> float:
        """Same, for the clean pass (variation-only failures)."""
        total = self.n_cells * self.n_slots
        if total == 0:
            return 0.0
        return sum(o.clean_failures for o in self.outcomes) / total


def sample_vt_shifts(rng: np.random.Generator, spec: SramCellSpec,
                     avt: float) -> dict:
    """Draw Pelgrom-distributed threshold offsets for all six devices."""
    shifts = {}
    for name in TRANSISTOR_NAMES:
        params = spec.device_params(name)
        sigma = avt / np.sqrt(params.area)
        shifts[name] = float(rng.normal(0.0, sigma))
    return shifts


def _cell_trial(payload, rng: np.random.Generator) -> dict:
    """Scenario kernel: one mismatched cell through the methodology.

    Samples this cell's threshold mismatch and trap populations from
    the job's private generator, runs the clean + RTN passes, and
    returns the outcome as a JSON-able dict.
    """
    base, pattern, avt, method_config, profiler = payload
    shifts = sample_vt_shifts(rng, base, avt)
    spec = dataclasses.replace(base, vt_shifts=shifts)
    run = run_methodology(pattern, rng, spec=spec, profiler=profiler,
                          config=method_config)
    return {
        "vt_shifts": shifts,
        "trap_count": sum(len(r.traps) for r in run.rtn.values()),
        "clean_failures": sum(1 for r in run.clean_results
                              if r.outcome.value != "ok"),
        "rtn_failures": sum(1 for r in run.rtn_results
                            if r.outcome.value != "ok"),
        "error_slots": [int(s) for s in run.failed_slots()],
    }


class ArrayScenario(scenario.Scenario):
    """``sram.array`` — the per-cell Fig.-8 methodology over an array.

    One job per cell; each samples its own Pelgrom mismatch and trap
    populations from its spawned generator, so the array parallelises
    across any backend with bit-identical outcomes.  Configured by
    :class:`ArrayConfig`; reduces to :class:`ArrayResult`.
    """

    name = "sram.array"
    description = "Per-cell Fig.-8 methodology over a mismatched array"
    kernel = staticmethod(_cell_trial)

    def plan(self, config: ArrayConfig) -> list:
        base = config.base_spec
        method_config = dataclasses.replace(
            config.methodology or MethodologyConfig(),
            rtn_scale=config.rtn_scale)
        payload = (base, config.pattern, config.avt, method_config,
                   TrapProfiler(base.technology))
        return [payload] * config.n_cells

    def reduce(self, config: ArrayConfig, results) -> ArrayResult:
        failed = [r for r in results if not r.succeeded]
        if failed:
            raise SimulationError(
                f"{len(failed)} of {len(results)} cells failed "
                f"terminally (first: {failed[0].error})")
        result = ArrayResult(n_slots=len(config.pattern.operations))
        for index, job in enumerate(results):
            record = job.value
            result.outcomes.append(CellOutcome(
                index=index, vt_shifts=dict(record["vt_shifts"]),
                trap_count=int(record["trap_count"]),
                clean_failures=int(record["clean_failures"]),
                rtn_failures=int(record["rtn_failures"]),
                error_slots=[int(s) for s in record["error_slots"]]))
        return result

    def fingerprint(self, config: ArrayConfig) -> dict:
        return {"n_cells": config.n_cells, "rtn_scale": config.rtn_scale,
                "avt": config.avt,
                **run_fingerprint(config.base_spec, config.pattern,
                                  config.methodology or MethodologyConfig())}

    def default_config(self, n: int | None = None, **options):
        from ..core.experiments import fig8_cell_spec, fig8_pattern

        options.setdefault("rtn_scale", 30.0)
        return ArrayConfig(n_cells=8 if n is None else n, base_spec=fig8_cell_spec(),
                           pattern=fig8_pattern(bits=(1,)), **options)

    def format_value(self, config, value) -> str:
        return (f"{value.failing_cells}/{value.n_cells} cells failing "
                f"under RTN (slot rate {value.slot_failure_rate:.3f}, "
                f"baseline {value.baseline_failure_rate:.3f})")


scenario.register_scenario(ArrayScenario)

