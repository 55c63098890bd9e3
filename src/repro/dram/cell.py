"""A 1T1C DRAM cell with trap-modulated storage-node leakage.

Model:

- the storage capacitor ``C_s`` is written to ``v_initial`` and then
  isolated (wordline low, bitline at 0);
- the dominant leakage is the access transistor's subthreshold current,
  evaluated from the EKV model at the instantaneous storage-node
  voltage (source = storage node, drain = bitline at 0, gate at 0);
- a single defect modulates that leakage *multiplicatively* when
  filled (``leakage_factor``), the trap-assisted-leakage picture the
  VRT literature established (paper refs [22], [23]).  The defect's
  own kinetics are the standard two-state chain at the retention-state
  bias, simulated exactly with the Gillespie kernel (the bias is
  constant during retention, so uniformisation and SSA coincide).

Because the factor multiplies the whole right-hand side, the node
follows the defect-free decay ``V0`` in the clock ``tau(t) = int m ds``
(``m`` = ``leakage_factor`` while filled, 1 while empty).  A trial is
therefore the occupancy trace alone: the bit is lost when ``tau``
reaches ``T_slow``, the defect-free retention time.

The defect-free decay ``dV/dt = -I_leak(V)/C`` is autonomous and
scalar, so it needs no ODE solver: separating variables gives the time
to fall from the stored level to ``V``,

    ``t(V) = C * int_V^{V_stored} dv / I_leak(v)``,

a 1-D integral of a positive integrand.  It is computed with composite
Gauss-Legendre panels (8 nodes each) on the vectorised EKV current,
doubling the panels from 4 until a doubling moves the integral by less
than 1e-13 relative; ``T_slow = t(V_threshold)``.  ``V0(tau)`` is the
inverse of ``t``, found by Newton's method on ``t(V) = tau`` (the
derivative ``-C / I_leak`` is known), started from the chord between
the exact endpoints ``V0(0) = V_stored`` and ``V0(T_slow) =
V_threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import scenario
from ..devices.ekv import drain_current
from ..devices.mosfet import MosfetParams
from ..devices.technology import TECH_90NM, Technology
from ..errors import SimulationError
from ..markov.gillespie import simulate_constant
from ..markov.occupancy import OccupancyTrace
from ..traps.propensity import rates_from_bias
from ..traps.trap import Trap


@dataclass(frozen=True)
class DramCellSpec:
    """Geometry and operating choices of the 1T1C cell.

    Attributes
    ----------
    technology:
        Device card for the access transistor.
    storage_capacitance:
        Cell capacitor [F].
    v_write:
        Stored "1" level [V] (a full write-back; pass-gate V_T loss is
        the writer's problem, not the retention model's).
    sense_threshold:
        Voltage below which the stored 1 is lost [V], in (0, v_write).
    leakage_factor:
        Multiplier on the leakage while the defect is filled (> 1;
        trap-assisted leakage steps of 2-10x are reported).
    """

    technology: Technology = TECH_90NM
    storage_capacitance: float = 25e-15
    v_write: float | None = None
    sense_threshold: float | None = None
    leakage_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.storage_capacitance <= 0.0:
            raise SimulationError("storage_capacitance must be positive")
        if self.leakage_factor < 1.0:
            raise SimulationError("leakage_factor must be >= 1")
        if not 0.0 < self.threshold < self.stored_level:
            raise SimulationError("sense_threshold must lie in (0, v_write)")

    @property
    def stored_level(self) -> float:
        return self.v_write if self.v_write is not None \
            else 0.8 * self.technology.vdd

    @property
    def threshold(self) -> float:
        return self.sense_threshold if self.sense_threshold is not None \
            else 0.5 * self.stored_level

    def access_params(self) -> MosfetParams:
        return MosfetParams.nominal(self.technology, "n")


@dataclass(frozen=True)
class RetentionResult:
    """One retention trial.

    Attributes
    ----------
    retention_time:
        When the node crossed the sense threshold [s]; ``inf`` when it
        survived the whole window.
    occupancy:
        The defect's trajectory during the trial.
    times, voltage:
        The decay waveform samples.
    """

    retention_time: float
    occupancy: OccupancyTrace
    times: np.ndarray
    voltage: np.ndarray


def _leakage(spec: DramCellSpec, v_sn):
    """Access-transistor subthreshold leakage magnitude [A] at ``v_sn``
    (elementwise over an array of storage-node voltages)."""
    params = spec.access_params()
    # Drain = bitline at 0, gate at 0, source = storage node.
    return np.abs(drain_current(params, 0.0, 0.0, v_sn, 0.0))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
#: Relative change of ``T_slow`` under a panel doubling that ends it.
_QUADRATURE_RTOL = 1e-13
_MAX_PANELS = 256
#: Newton stops once no voltage moves by more than this [V].
_NEWTON_VTOL = 1e-15
_MAX_NEWTON_STEPS = 8


def _discharge_time(spec: DramCellSpec, v, panels: int):
    """``t(V) = C int_V^{V_stored} dv / I_leak(v)`` [s], elementwise over
    ``v``: ``panels`` equal Gauss-Legendre panels of 8 nodes."""
    v = np.asarray(v, dtype=float)
    # Node positions in panel widths from v, and their weights.
    offsets = (np.arange(panels)[:, None] + (_GL_NODES + 1.0) / 2.0).ravel()
    weights = np.tile(_GL_WEIGHTS, panels)
    width = (spec.stored_level - v) / panels
    nodes = v[..., None] + width[..., None] * offsets
    inverse = (weights / _leakage(spec, nodes)).sum(axis=-1)
    return spec.storage_capacitance * (width / 2.0) * inverse


def _decay(spec: DramCellSpec):
    """The defect-free decay from the stored level to the threshold.

    Returns ``(T_slow, V0)``: the crossing time [s] and a function
    giving the voltage ``V0(tau)`` at clock values ``tau`` in
    ``[0, T_slow]``, exact at both ends.
    """
    panels = 4
    slow = _discharge_time(spec, spec.threshold, panels)
    finer = _discharge_time(spec, spec.threshold, 2 * panels)
    while panels < _MAX_PANELS \
            and not abs(finer - slow) <= _QUADRATURE_RTOL * finer:
        panels *= 2
        slow, finer = finer, _discharge_time(spec, spec.threshold,
                                             2 * panels)
    slow = float(slow)
    if not slow <= 1.0:
        raise SimulationError("cell never discharged within 1 s")

    def voltage(tau):
        tau = np.asarray(tau, dtype=float)
        v = np.interp(tau, (0.0, slow), (spec.stored_level, spec.threshold))
        for __ in range(_MAX_NEWTON_STEPS):
            step = (_discharge_time(spec, v, panels) - tau) \
                * _leakage(spec, v) / spec.storage_capacitance
            v = v + step
            if np.all(np.abs(step) <= _NEWTON_VTOL):
                break
        return v
    return slow, voltage


@dataclass(frozen=True)
class RetentionModel:
    """Per-scan constants of one cell's retention trials: the leakage
    factor, the defect's rates at the retention bias (gate at 0) [1/s],
    ``T_slow`` [s] and ``V0`` tabulated on a uniform clock grid ``tau``."""

    leakage_factor: float
    capture_rate: float
    emission_rate: float
    slow: float
    tau: np.ndarray
    voltage: np.ndarray

    @classmethod
    def build(cls, spec: DramCellSpec, trap: Trap) -> "RetentionModel":
        lam_c, lam_e = rates_from_bias(0.0, trap, spec.technology)
        slow, decay = _decay(spec)
        tau = np.linspace(0.0, slow, 129)
        return cls(leakage_factor=spec.leakage_factor,
                   capture_rate=float(lam_c), emission_rate=float(lam_e),
                   slow=slow, tau=tau, voltage=decay(tau))


def simulate_retention(model: RetentionModel, rng: np.random.Generator,
                       t_max: float = 1e-3) -> RetentionResult:
    """Run one retention trial of a written "1".

    The defect starts from its stationary law and runs for ``t_max``;
    the bit is lost when the clock ``tau`` reaches ``model.slow``.
    """
    lam_c, lam_e = model.capture_rate, model.emission_rate
    state = int(rng.random() < lam_c / (lam_c + lam_e))
    occupancy = simulate_constant(lam_c, lam_e, 0.0, t_max, rng,
                                  initial_state=state)
    boundaries = occupancy.times
    rates = np.where(occupancy.states == 1, model.leakage_factor, 1.0)
    tau = np.concatenate(([0.0], np.cumsum(rates * np.diff(boundaries))))
    retention = float(np.interp(model.slow, tau, boundaries)) \
        if tau[-1] >= model.slow else float("inf")
    times = np.linspace(0.0, min(retention, t_max), 129)
    voltage = np.interp(np.interp(times, boundaries, tau),
                        model.tau, model.voltage)
    return RetentionResult(retention_time=retention, occupancy=occupancy,
                           times=times, voltage=voltage)


@dataclass(frozen=True)
class RetentionScanConfig:
    """Configuration of a VRT retention scan (the ``dram.retention``
    scenario): ``n_trials`` independent retention measurements of one
    ``(spec, trap)`` cell over a ``t_max`` observation window."""

    spec: DramCellSpec
    trap: Trap
    n_trials: int
    t_max: float = 1e-3

    def __post_init__(self) -> None:
        if self.n_trials <= 0:
            raise SimulationError("n_trials must be positive")
        if not 0.0 < self.t_max < float("inf"):
            raise SimulationError("t_max must be positive and finite")


def _retention_trial(payload, rng: np.random.Generator) -> float:
    """Scenario kernel: one retention trial -> retention time [s]."""
    model, t_max = payload
    return simulate_retention(model, rng, t_max).retention_time


class RetentionScanScenario(scenario.Scenario):
    """``dram.retention`` — repeated retention trials of one DRAM cell.

    The plan builds the cell's :class:`RetentionModel` once; each job
    re-writes the cell and measures one retention time with its own
    spawned generator, so trial *k* is reproducible in isolation and
    the scan parallelises across any number of workers.  The reducer returns the
    retention-time array (``inf`` = survived the window), matching
    :func:`retention_distribution`.
    """

    name = "dram.retention"
    description = "DRAM VRT scan: repeated retention trials of one cell"
    kernel = staticmethod(_retention_trial)

    def plan(self, config: RetentionScanConfig) -> list:
        payload = (RetentionModel.build(config.spec, config.trap),
                   config.t_max)
        return [payload] * config.n_trials

    def reduce(self, config: RetentionScanConfig, results) -> np.ndarray:
        failed = [r for r in results if not r.succeeded]
        if failed:
            raise SimulationError(
                f"{len(failed)} of {len(results)} retention trials failed "
                f"terminally (first: {failed[0].error})")
        return np.array([float(r.value) for r in results])

    def fingerprint(self, config: RetentionScanConfig) -> dict:
        return scenario.config_fingerprint(config)

    def default_config(self, n: int | None = None, **options):
        spec, trap = default_vrt_cell()
        options.setdefault("t_max", 3.0 * vrt_levels(spec)[0])
        return RetentionScanConfig(spec=spec, trap=trap,
                                   n_trials=16 if n is None else n, **options)

    def format_value(self, config, value) -> str:
        finite = value[np.isfinite(value)]
        lost = f"{finite.size}/{value.size} trials lost the bit"
        if finite.size == 0:
            return lost
        return (f"{lost}; retention {finite.min() * 1e6:.1f}-"
                f"{finite.max() * 1e6:.1f} us")


scenario.register_scenario(RetentionScanScenario)


def retention_distribution(spec: DramCellSpec, trap: Trap,
                           rng: np.random.Generator, n_trials: int,
                           t_max: float = 1e-3, *,
                           workers: int | None = None) -> np.ndarray:
    """Repeated retention measurements of the same cell (VRT scan).

    Each trial re-writes the cell and measures retention; the defect
    state carries the randomness.  Returns the retention times
    (``inf`` entries mean the trial out-lasted ``t_max``).

    Thin wrapper over the ``dram.retention`` scenario: ``rng`` now only
    seeds the scan (one draw), and each trial runs on its own spawned
    stream — so trial *k* is reproducible in isolation and the scan
    runs on any number of ``workers``.  Sequences differ
    from the pre-scenario shared-generator threading at the same seed;
    the distribution is unchanged.
    """
    run = scenario.run_scenario(
        RetentionScanScenario,
        RetentionScanConfig(spec=spec, trap=trap, n_trials=n_trials,
                            t_max=t_max),
        seed=int(rng.integers(2**63)), workers=workers)
    return run.value


def default_vrt_cell(leakage_factor: float = 3.0) \
        -> tuple[DramCellSpec, Trap]:
    """A cell + defect pair whose VRT bimodality shows up in a short
    scan: the trap is placed so its time constant is commensurate with
    the empty-state retention level (the CLI/demo configuration)."""
    from ..traps.band import crossing_energy

    spec = DramCellSpec(leakage_factor=leakage_factor)
    slow, _ = vrt_levels(spec)
    tech = spec.technology
    y = np.log(3.0 * slow / (2.0 * tech.tau0)) / tech.gamma_tunnel
    y = min(y, 0.95 * tech.t_ox)
    return spec, Trap(y_tr=y, e_tr=crossing_energy(0.0, y, tech))


def vrt_levels(spec: DramCellSpec) -> tuple[float, float]:
    """The two frozen-state retention times (slow, fast) [s].

    ``slow`` is the crossing of the defect-free decay.  A pinned-filled
    defect multiplies the whole leakage, so it runs the same decay
    ``leakage_factor`` times faster: ``fast = slow / leakage_factor``
    exactly.  Actual trials fall between (or jump mid-trial).
    """
    slow, __ = _decay(spec)
    return slow, slow / spec.leakage_factor
