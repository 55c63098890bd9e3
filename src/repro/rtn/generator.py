"""Per-device RTN generation: trap profile + bias waveform -> I_RTN(t).

This is the device-level driver around paper Algorithm 1: for each trap
it builds the bias-dependent propensities (Eqs. 1-2), runs the exact
uniformisation kernel, counts the filled traps on the output grid and
converts the count to a noise current with an amplitude model (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..devices.mosfet import MosfetParams
from ..errors import SimulationError
from ..markov.occupancy import OccupancyTrace, number_filled
from ..markov.uniformization import simulate_trap
from ..traps.propensity import equilibrium_occupancy, trap_propensity
from ..traps.trap import Trap
from .current import RtnAmplitudeModel, VanDerZielModel, rtn_current_samples
from .trace import RTNTrace


@dataclass(frozen=True)
class DeviceRtnResult:
    """Everything SAMURAI produces for one device.

    Attributes
    ----------
    traps:
        The trap population that was simulated.
    occupancies:
        One :class:`OccupancyTrace` per trap (paper Fig. 8 plots b, c).
    n_filled:
        Filled-trap count sampled on the output grid (the ``N_filled``
        of Eq. 3).
    trace:
        The RTN current waveform (paper Fig. 8 plot d).
    """

    traps: list[Trap]
    occupancies: list[OccupancyTrace]
    n_filled: np.ndarray
    trace: RTNTrace

    @property
    def total_transitions(self) -> int:
        """Total trap transitions across the population."""
        return sum(occ.n_transitions for occ in self.occupancies)


def generate_device_rtn(params: MosfetParams, traps: list[Trap],
                        times: np.ndarray, v_gs: np.ndarray,
                        i_d: np.ndarray, rng: np.random.Generator,
                        model: RtnAmplitudeModel | None = None,
                        initial_states: list[int] | None = None,
                        label: str = "") -> DeviceRtnResult:
    """Generate one device's non-stationary RTN under a bias waveform.

    Parameters
    ----------
    params:
        The device (geometry, polarity, technology).
    traps:
        Its trap population (possibly empty; a zero trace results).
    times:
        Strictly increasing bias sample times [s]; also the output grid.
    v_gs:
        Effective gate drive samples [V] in on-direction convention
        (``v_gs`` for NMOS, ``v_sg`` for PMOS), same length as ``times``.
    i_d:
        Nominal channel-current samples [A], positive drain -> source.
        The magnitude sets the RTN amplitude (Eq. 3); the sign carries
        through to the trace so that injection always *opposes* the
        instantaneous conduction direction (paper Fig. 4).
    rng:
        NumPy random generator.
    model:
        Amplitude model; defaults to paper Eq. (3)
        (:class:`VanDerZielModel`).
    initial_states:
        Optional per-trap initial occupancy; defaults to a draw from
        each trap's equilibrium at the initial bias.
    label:
        Label stamped on the output trace.
    """
    times = np.asarray(times, dtype=float)
    v_gs = np.asarray(v_gs, dtype=float)
    i_d = np.asarray(i_d, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise SimulationError("times must be 1-D with >= 2 samples")
    if v_gs.shape != times.shape or i_d.shape != times.shape:
        raise SimulationError("v_gs and i_d must match the time grid")
    if model is None:
        model = VanDerZielModel()
    tech = params.technology

    if initial_states is None:
        initial_states = [
            int(rng.random() < equilibrium_occupancy(float(v_gs[0]), trap, tech))
            for trap in traps
        ]
    if len(initial_states) != len(traps):
        raise SimulationError(
            f"initial_states has {len(initial_states)} entries for "
            f"{len(traps)} traps"
        )

    occupancies = []
    for trap, state in zip(traps, initial_states):
        propensity = trap_propensity(trap, tech, times, v_gs)
        occupancies.append(
            simulate_trap(propensity, float(times[0]), float(times[-1]), rng,
                          initial_state=state)
        )

    n_filled = number_filled(occupancies, times)
    current = rtn_current_samples(model, params, v_gs, i_d, n_filled)
    current = current * np.sign(i_d)  # oppose the instantaneous direction
    trace = RTNTrace(times=times, current=current, label=label)
    return DeviceRtnResult(traps=list(traps), occupancies=occupancies,
                           n_filled=n_filled, trace=trace)


def generate_constant_bias_rtn(params: MosfetParams, traps: list[Trap],
                               v_gs: float, i_d: float, t_stop: float,
                               rng: np.random.Generator,
                               n_samples: int = 4096,
                               model: RtnAmplitudeModel | None = None,
                               label: str = "") -> DeviceRtnResult:
    """Convenience wrapper for the stationary validation experiments.

    Builds a uniform grid over ``[0, t_stop]`` with the bias held
    constant — the configuration of paper Fig. 7 and Fig. 3.
    """
    if t_stop <= 0.0:
        raise SimulationError(f"t_stop must be positive, got {t_stop}")
    if n_samples < 2:
        raise SimulationError(f"need >= 2 samples, got {n_samples}")
    times = np.linspace(0.0, t_stop, n_samples)
    return generate_device_rtn(
        params, traps, times,
        np.full(n_samples, float(v_gs)), np.full(n_samples, float(i_d)),
        rng, model=model, label=label,
    )
