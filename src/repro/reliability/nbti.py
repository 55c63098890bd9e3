"""NBTI and RTN from one trap population (paper §I-B, observation 1).

Mechanism view (simplified to the oxide-trap channel the paper points
at — the "common root cause"):

- **NBTI**: under a long stress bias the trap population relaxes to its
  stress-point equilibrium occupancy; the trapped charge shifts the
  threshold by ``q/(C_ox W L)`` per filled trap.  The *recoverable*
  component of NBTI is exactly the occupancy difference between stress
  and use bias.
- **RTN**: in operation, each trap toggles about its use-bias
  equilibrium; the current/threshold fluctuation has per-trap variance
  ``ΔV_T² p (1−p)``.

Both quantities grow with the sampled trap count and with the per-trap
shift, so across a population of devices they are positively
correlated — the paper's argument that "an RTN model based on first
principles is likely to succeed in accurately capturing the NBTI
correlation", which the bench quantifies as a Pearson coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import Q_ELECTRON
from ..core import scenario
from ..devices.mosfet import MosfetParams
from ..errors import ModelError
from ..traps.profiling import TrapProfiler
from ..traps.propensity import equilibrium_occupancy_population


def per_trap_threshold_shift(params: MosfetParams) -> float:
    """Threshold shift of one filled trap, ``q/(C_ox W L)`` [V]."""
    return Q_ELECTRON / (params.technology.c_ox * params.area)


def nbti_threshold_shift(params: MosfetParams, traps: list,
                         stress_bias: float, use_bias: float = 0.0
                         ) -> float:
    """Recoverable NBTI shift [V]: occupancy delta between biases.

    The population's equilibrium occupancy at the stress bias minus at
    the use bias, times the per-trap shift — the charge that builds up
    under stress and detraps after it.
    """
    if stress_bias < use_bias:
        raise ModelError("stress bias must be at or above the use bias")
    tech = params.technology
    delta = per_trap_threshold_shift(params)
    stressed = equilibrium_occupancy_population(stress_bias, traps, tech)
    relaxed = equilibrium_occupancy_population(use_bias, traps, tech)
    return delta * float(np.sum(stressed - relaxed))


def rtn_fluctuation(params: MosfetParams, traps: list,
                    operating_bias: float) -> float:
    """RMS threshold fluctuation [V] from trap shot noise in operation.

    Independent two-state traps: variance adds as
    ``ΔV_T² p (1 − p)`` per trap at its operating-point occupancy.
    """
    tech = params.technology
    delta = per_trap_threshold_shift(params)
    p = equilibrium_occupancy_population(operating_bias, traps, tech)
    return float(np.sqrt(np.sum(delta ** 2 * p * (1.0 - p))))


@dataclass(frozen=True)
class DeviceReliability:
    """One sampled device's reliability pair.

    Attributes
    ----------
    n_traps:
        Sampled trap count.
    nbti_shift:
        Recoverable NBTI threshold shift [V].
    rtn_rms:
        RMS RTN threshold fluctuation [V].
    """

    n_traps: int
    nbti_shift: float
    rtn_rms: float


@dataclass(frozen=True)
class ReliabilityPopulationConfig:
    """Configuration of the ``reliability.nbti`` scenario: evaluate the
    NBTI/RTN metric pair on ``n_devices`` independently sampled
    devices of one geometry."""

    params: MosfetParams
    profiler: TrapProfiler
    n_devices: int
    stress_bias: float | None = None
    operating_bias: float | None = None

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ModelError("n_devices must be positive")

    @property
    def stress(self) -> float:
        return self.stress_bias if self.stress_bias is not None \
            else self.params.technology.vdd

    @property
    def operating(self) -> float:
        return self.operating_bias if self.operating_bias is not None \
            else 0.5 * self.params.technology.vdd


def _device_metrics(payload, rng: np.random.Generator) -> dict:
    """Scenario kernel: sample one device, evaluate both metrics.

    Returns a plain dict (JSON-able, so the record checkpoints as-is).
    """
    params, profiler, stress, operating = payload
    traps = profiler.sample(rng, params.width, params.length)
    return {
        "n_traps": len(traps),
        "nbti_shift": nbti_threshold_shift(params, traps, stress),
        "rtn_rms": rtn_fluctuation(params, traps, operating),
    }


class ReliabilityPopulationScenario(scenario.Scenario):
    """``reliability.nbti`` — NBTI/RTN metric pairs over a population.

    One job per device, each sampling its trap population from its own
    spawned generator; the reducer rebuilds the
    :class:`DeviceReliability` list in device order.
    """

    name = "reliability.nbti"
    description = "NBTI/RTN correlation metrics over a device population"
    kernel = staticmethod(_device_metrics)

    def plan(self, config: ReliabilityPopulationConfig) -> list:
        payload = (config.params, config.profiler, config.stress,
                   config.operating)
        return [payload] * config.n_devices

    def reduce(self, config: ReliabilityPopulationConfig, results) -> list:
        failed = [r for r in results if not r.succeeded]
        if failed:
            raise ModelError(
                f"{len(failed)} of {len(results)} devices failed "
                f"terminally (first: {failed[0].error})")
        return [DeviceReliability(n_traps=int(r.value["n_traps"]),
                                  nbti_shift=float(r.value["nbti_shift"]),
                                  rtn_rms=float(r.value["rtn_rms"]))
                for r in results]

    def fingerprint(self, config: ReliabilityPopulationConfig) -> dict:
        return scenario.config_fingerprint(config)

    def default_config(self, n: int | None = None, **options):
        from ..devices.technology import TECH_90NM

        tech = TECH_90NM
        return ReliabilityPopulationConfig(
            params=MosfetParams.nominal(tech, "n"),
            profiler=TrapProfiler(tech), n_devices=64 if n is None else n,
            **options)

    def format_value(self, config, value) -> str:
        text = (f"{len(value)} devices, "
                f"mean traps {np.mean([d.n_traps for d in value]):.1f}")
        try:
            text += f", NBTI-RTN correlation {correlation(value):.3f}"
        except ModelError:
            pass
        return text


scenario.register_scenario(ReliabilityPopulationScenario)


def sample_reliability_population(params: MosfetParams,
                                  profiler: TrapProfiler,
                                  rng: np.random.Generator,
                                  n_devices: int,
                                  stress_bias: float | None = None,
                                  operating_bias: float | None = None,
                                  *, workers: int | None = None) -> list:
    """Sample devices and evaluate both reliability metrics on each.

    Returns a list of :class:`DeviceReliability`; feed it to
    ``numpy.corrcoef`` for the paper's correlation claim.

    Thin wrapper over the ``reliability.nbti`` scenario: ``rng`` now
    only seeds the run (one draw), and each device samples its traps
    from its own spawned stream — reproducible in isolation and
    parallelisable via ``workers``.  Sequences differ from
    the pre-scenario shared-generator threading at the same seed; the
    population law is unchanged.
    """
    run = scenario.run_scenario(
        ReliabilityPopulationScenario,
        ReliabilityPopulationConfig(
            params=params, profiler=profiler, n_devices=n_devices,
            stress_bias=stress_bias, operating_bias=operating_bias),
        seed=int(rng.integers(2**63)), workers=workers)
    return run.value


def correlation(population: list) -> float:
    """Pearson correlation between the NBTI and RTN metrics."""
    if len(population) < 3:
        raise ModelError("need >= 3 devices for a correlation")
    nbti = np.array([d.nbti_shift for d in population])
    rtn = np.array([d.rtn_rms for d in population])
    if nbti.std() == 0.0 or rtn.std() == 0.0:
        raise ModelError("degenerate population (zero variance)")
    return float(np.corrcoef(nbti, rtn)[0, 1])
