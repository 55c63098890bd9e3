"""The circuit-agnostic trap-coupled transient engine.

Attach trap populations to MOSFETs of any circuit; before every
transient step each population advances exactly under rates frozen at
its host's live bias, and a held current source injects the opposing
RTN current (clipped at the live channel current, signed with it).

This is the package's one implementation of the paper's future-work #1
coupling; the SRAM (:mod:`repro.core.coupled`) and ring
(:mod:`repro.oscillators.ring`) co-simulators are adapters over
:func:`run_trap_coupled` that add only their circuit-specific set-up
and read-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..devices.ekv import drain_current
from ..errors import SimulationError
from ..markov.occupancy import OccupancyTrace
from ..rtn.current import RtnAmplitudeModel, VanDerZielModel
from ..spice.circuit import Circuit
from ..spice.elements import CurrentSource, Mosfet
from ..spice.transient import TransientOptions, simulate_transient
from ..traps.propensity import (
    draw_initial_states,
    equilibrium_occupancy_population,
    rates_for_population,
)
from ..traps.trap import TrapPopulation


@dataclass(frozen=True)
class TrapAttachment:
    """One MOSFET's trap population in a co-simulation.

    Attributes
    ----------
    mosfet_name:
        Name of the host :class:`repro.spice.elements.Mosfet` in the
        circuit.
    traps:
        The population (non-empty).
    rtn_scale:
        Acceleration factor for this attachment.
    """

    mosfet_name: str
    traps: tuple
    rtn_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.traps:
            raise SimulationError(
                f"attachment for {self.mosfet_name!r} has no traps")
        if self.rtn_scale < 0.0:
            raise SimulationError("rtn_scale must be non-negative")
        object.__setattr__(self, "traps", tuple(self.traps))


@dataclass
class TrapCoupledResult:
    """Co-simulation output.

    Attributes
    ----------
    waveform:
        The transient result.
    occupancies:
        Mosfet name -> per-trap :class:`OccupancyTrace` list.
    """

    waveform: object
    occupancies: dict = field(default_factory=dict)

    def total_transitions(self) -> int:
        return sum(trace.n_transitions
                   for traces in self.occupancies.values()
                   for trace in traces)


class _HeldValue:
    def __init__(self) -> None:
        self.value = 0.0

    def __call__(self, t):
        return self.value


class _LivePopulation:
    """Trap states plus their held source for one attachment."""

    def __init__(self, attachment: TrapAttachment, mosfet: Mosfet,
                 held: _HeldValue, rng: np.random.Generator,
                 tech) -> None:
        self.attachment = attachment
        self.mosfet = mosfet
        self.held = held
        self.traps = TrapPopulation.from_traps(attachment.traps)
        # Traps start at equilibrium with the gate at rest.
        self.states = draw_initial_states(
            equilibrium_occupancy_population(0.0, self.traps, tech),
            rng).tolist()
        self.flips: list[list] = [[] for _ in attachment.traps]

    def advance(self, t: float, dt: float, v_drive: float,
                rng: np.random.Generator, tech) -> int:
        lam_c, lam_e = rates_for_population(v_drive, self.traps, tech)
        n_filled = 0
        end = t + dt
        for index in range(len(self.states)):
            rates = (float(lam_c[index]), float(lam_e[index]))
            state = self.states[index]
            current = t
            while True:
                rate_out = rates[state]
                if rate_out <= 0.0:
                    break
                current += rng.exponential(1.0 / rate_out)
                if current >= end:
                    break
                self.flips[index].append(current)
                state = 1 - state
            self.states[index] = state
            n_filled += state
        return n_filled

    def build_occupancies(self, t_stop: float) -> list:
        traces = []
        for index, flips in enumerate(self.flips):
            flip_array = np.asarray(flips, dtype=float)
            initial = (self.states[index] + len(flips)) % 2
            traces.append(OccupancyTrace.from_transitions(
                0.0, t_stop, int(initial),
                flip_array[flip_array < t_stop]))
        return traces


def run_trap_coupled(circuit: Circuit, attachments: list,
                     t_stop: float, dt: float,
                     rng: np.random.Generator,
                     initial_voltages: dict | None = None,
                     model: RtnAmplitudeModel | None = None,
                     record_every: int = 1) -> TrapCoupledResult:
    """Run a transient with live-coupled traps on arbitrary MOSFETs.

    Parameters
    ----------
    circuit:
        Any circuit; held sources named ``Irtn_cosim_<mosfet>`` are
        attached for the run and removed afterwards.
    attachments:
        :class:`TrapAttachment` list (one per host MOSFET); empty runs
        the plain transient.
    t_stop, dt:
        Window and step [s]; ``dt`` is also the trap-update interval.
    rng:
        NumPy random generator.
    initial_voltages:
        UIC node voltages.
    model:
        RTN amplitude model (default paper Eq. 3).
    """
    names = [a.mosfet_name for a in attachments]
    if len(set(names)) != len(names):
        raise SimulationError("duplicate attachment for one MOSFET")
    amplitude_model = model or VanDerZielModel()

    live: list[_LivePopulation] = []
    created = []
    for attachment in attachments:
        mosfet = circuit.element(attachment.mosfet_name)
        if not isinstance(mosfet, Mosfet):
            raise SimulationError(
                f"{attachment.mosfet_name!r} is not a MOSFET")
        held = _HeldValue()
        drain, __, source, __ = mosfet.nodes

        def node_name(index: int) -> str:
            return "0" if index < 0 else circuit.node_names[index]

        element_name = f"Irtn_cosim_{attachment.mosfet_name}"
        # Current source oriented source -> drain (opposing convention).
        CurrentSource(element_name, circuit, node_name(source),
                      node_name(drain), held)
        created.append(element_name)
        tech = mosfet.params.technology
        live.append(_LivePopulation(attachment, mosfet, held, rng, tech))

    def pre_step(t: float, x: np.ndarray) -> None:
        for population in live:
            mosfet = population.mosfet
            v_d, v_g, v_s, v_b = mosfet.terminal_voltages(x)
            params = mosfet.params
            if params.is_nmos:
                v_drive = v_g - min(v_d, v_s)
            else:
                v_drive = max(v_d, v_s) - v_g
            i_d = float(drain_current(params, v_g, v_d, v_s, v_b))
            tech = params.technology
            n_filled = population.advance(t, dt, v_drive, rng, tech)
            amplitude = float(np.asarray(amplitude_model.amplitude(
                params, v_drive, abs(i_d))))
            magnitude = min(amplitude * n_filled
                            * population.attachment.rtn_scale, abs(i_d))
            population.held.value = np.sign(i_d) * magnitude

    options = TransientOptions(record_every=record_every,
                               pre_step=pre_step)
    try:
        waveform = simulate_transient(circuit, t_stop, dt,
                                      initial_voltages=initial_voltages,
                                      options=options)
    finally:
        for name in created:
            circuit.remove(name)

    occupancies = {population.attachment.mosfet_name:
                   population.build_occupancies(t_stop)
                   for population in live}
    return TrapCoupledResult(waveform=waveform, occupancies=occupancies)
