"""Oscillator parameter sweeps as scenarios (ring periods, PLL pull-out).

The sweep loops the examples and benches used to hand-roll — "one ring
per stage count", "one pull-out bisection per loop spec" — are natural
scenario plans: every sweep point is an independent job, so the sweeps
inherit parallel execution, resilience and checkpointing from
:mod:`repro.core.scenario` instead of running bare ``for`` loops.

Two scenarios ship here:

- ``oscillators.ring`` — free-running (or RTN-coupled) ring transients
  over a list of stage counts, reduced to per-point period statistics;
- ``oscillators.pll`` — deterministic pull-out-frequency bisections
  over a list of loop specs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import scenario
from ..devices.technology import TECH_90NM, Technology
from ..errors import SimulationError
from ..spice.transient import TransientOptions, simulate_transient
from ..traps.trap import Trap
from .pll import PllSpec, pull_out_frequency
from .ring import build_ring_oscillator, measure_periods, run_ring_with_rtn

__all__ = [
    "PllPulloutSweepConfig",
    "PllSweepScenario",
    "RingPeriodSweepConfig",
    "RingSweepPoint",
    "RingSweepScenario",
]


# ----------------------------------------------------------------------
# Ring-oscillator period sweep.

@dataclass(frozen=True)
class RingPeriodSweepConfig:
    """Configuration of the ``oscillators.ring`` scenario.

    Attributes
    ----------
    technology:
        Device card the rings are built from.
    stage_counts:
        Ring sizes to sweep (odd, >= 3 each).
    load_capacitance:
        Per-stage load [F].
    t_stop, dt, record_every:
        Transient window, step and recording stride per point.
    trap, stage, rtn_scale:
        When ``trap`` is given, each point co-simulates it in ``stage``'s
        pull-down via :func:`~repro.oscillators.ring.run_ring_with_rtn`
        (this is where the per-job RNG stream enters); otherwise the
        rings free-run deterministically.
    """

    technology: Technology = TECH_90NM
    stage_counts: tuple = (3, 5)
    load_capacitance: float = 2e-15
    t_stop: float = 3e-9
    dt: float = 2e-12
    record_every: int = 2
    trap: Trap | None = None
    stage: int = 0
    rtn_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.stage_counts:
            raise SimulationError("stage_counts must be non-empty")


@dataclass(frozen=True)
class RingSweepPoint:
    """One sweep point: a ring's measured period statistics.

    ``period_when_filled``/``period_when_empty`` are NaN for the clean
    (trap-free) sweep.
    """

    n_stages: int
    periods: np.ndarray
    period_when_filled: float = float("nan")
    period_when_empty: float = float("nan")

    @property
    def mean_period(self) -> float:
        return float(self.periods.mean())


def _ring_point(payload, rng: np.random.Generator) -> dict:
    """Scenario kernel: one ring transient -> period statistics."""
    config, n_stages = payload
    ring = build_ring_oscillator(
        config.technology, n_stages=n_stages,
        load_capacitance=config.load_capacitance)
    if config.trap is None:
        waveform = simulate_transient(
            ring.circuit, config.t_stop, config.dt,
            initial_voltages=ring.initial_voltages(),
            options=TransientOptions(record_every=config.record_every))
        periods = measure_periods(waveform, ring.nodes[0], 0.5 * ring.vdd)
        filled = empty = float("nan")
    else:
        result = run_ring_with_rtn(
            ring, config.trap, stage=config.stage, rng=rng,
            t_stop=config.t_stop, dt=config.dt,
            rtn_scale=config.rtn_scale,
            record_every=config.record_every)
        periods = result.periods
        filled = result.period_when_filled
        empty = result.period_when_empty
    return {"n_stages": n_stages, "periods": periods.tolist(),
            "period_when_filled": filled, "period_when_empty": empty}


class RingSweepScenario(scenario.Scenario):
    """``oscillators.ring`` — one ring transient per stage count."""

    name = "oscillators.ring"
    description = "Ring-oscillator period sweep over stage counts"
    kernel = staticmethod(_ring_point)

    def plan(self, config: RingPeriodSweepConfig) -> list:
        return [(config, int(n)) for n in config.stage_counts]

    def reduce(self, config: RingPeriodSweepConfig, results) -> list:
        failed = [r for r in results if not r.succeeded]
        if failed:
            raise SimulationError(
                f"{len(failed)} of {len(results)} ring points failed "
                f"terminally (first: {failed[0].error})")
        return [RingSweepPoint(
            n_stages=int(r.value["n_stages"]),
            periods=np.asarray(r.value["periods"], dtype=float),
            period_when_filled=float(r.value["period_when_filled"]),
            period_when_empty=float(r.value["period_when_empty"]))
            for r in results]

    def fingerprint(self, config: RingPeriodSweepConfig) -> dict:
        return scenario.config_fingerprint(config)

    def default_config(self, n: int | None = None, **options):
        counts = tuple(3 + 2 * k for k in range(2 if n is None else n))
        return RingPeriodSweepConfig(stage_counts=counts, **options)

    def format_value(self, config, value) -> str:
        return ", ".join(f"{p.n_stages} stages: "
                         f"{p.mean_period * 1e12:.1f} ps" for p in value)


scenario.register_scenario(RingSweepScenario)


# ----------------------------------------------------------------------
# PLL pull-out-frequency sweep.

@dataclass(frozen=True)
class PllPulloutSweepConfig:
    """Configuration of the ``oscillators.pll`` scenario: one
    deterministic pull-out bisection per loop spec."""

    specs: tuple
    tolerance: float = 0.02

    def __post_init__(self) -> None:
        if not self.specs:
            raise SimulationError("specs must be non-empty")


def _pullout_point(payload, rng: np.random.Generator) -> float:
    """Scenario kernel: pull-out frequency of one loop [Hz].

    Deterministic (bisection over step responses); the job generator is
    unused, which makes this the simplest backend-invariance witness.
    """
    spec, tolerance = payload
    return pull_out_frequency(spec, tolerance=tolerance)


class PllSweepScenario(scenario.Scenario):
    """``oscillators.pll`` — pull-out frequency across loop designs."""

    name = "oscillators.pll"
    description = "PLL pull-out-frequency sweep over loop specs"
    kernel = staticmethod(_pullout_point)

    def plan(self, config: PllPulloutSweepConfig) -> list:
        return [(spec, config.tolerance) for spec in config.specs]

    def reduce(self, config: PllPulloutSweepConfig, results) -> np.ndarray:
        failed = [r for r in results if not r.succeeded]
        if failed:
            raise SimulationError(
                f"{len(failed)} of {len(results)} pull-out points failed "
                f"terminally (first: {failed[0].error})")
        return np.array([float(r.value) for r in results])

    def fingerprint(self, config: PllPulloutSweepConfig) -> dict:
        return scenario.config_fingerprint(config)

    def default_config(self, n: int | None = None, **options):
        points = 3 if n is None else n
        specs = tuple(PllSpec(c1=50e-12 * 2.0 ** k)
                      for k in range(points))
        return PllPulloutSweepConfig(specs=specs, **options)

    def format_value(self, config, value) -> str:
        return ", ".join(f"{f / 1e6:.2f} MHz" for f in value)


scenario.register_scenario(PllSweepScenario)
