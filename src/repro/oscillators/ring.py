"""CMOS ring oscillators with live-coupled RTN traps.

A ring of an odd number of inverters oscillates with period
``2 N t_pd``; a trap in one inverter's pull-down modulates that stage's
drive current, so the period is longer while the trap is filled — RTN
becomes period jitter (and, over many traps, phase noise / cycle
slipping, the paper's PLL conjecture).

:func:`run_ring_with_rtn` is an adapter over
:func:`repro.cosim.engine.run_trap_coupled`, the package's one
bi-directional co-simulation loop: before every transient step the trap
rates are evaluated at the *live* bias of the host pull-down and the
held opposing current is updated.  The adapter adds only the period
measurement and its conditioning on the trap state.  A ring never has a
stationary bias, so a one-way (clean-pass) coupling would be
meaningless here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cosim.engine import TrapAttachment, run_trap_coupled
from ..devices.mosfet import MosfetParams
from ..devices.technology import Technology
from ..errors import SimulationError
from ..markov.occupancy import OccupancyTrace
from ..rtn.current import RtnAmplitudeModel
from ..spice.circuit import Circuit
from ..spice.elements import (
    Capacitor,
    Mosfet,
    VoltageSource,
    attach_mosfet_parasitics,
)
from ..spice.sources import DC
from ..spice.waveform import Waveform
from ..traps.trap import Trap


@dataclass
class RingOscillator:
    """A built ring: circuit plus stage bookkeeping.

    Attributes
    ----------
    circuit:
        The underlying circuit.
    technology:
        The device card.
    n_stages:
        Number of inverters (odd).
    nodes:
        Stage output node names, ``nodes[i]`` drives stage ``i+1``.
    nmos, pmos:
        Per-stage transistor elements.
    vdd:
        Supply [V].
    """

    circuit: Circuit
    technology: Technology
    n_stages: int
    nodes: list
    nmos: dict = field(default_factory=dict)
    pmos: dict = field(default_factory=dict)
    vdd: float = 1.0

    def initial_voltages(self) -> dict:
        """A staggered UIC state that kicks the ring into oscillation."""
        voltages = {"vdd": self.vdd}
        for index, node in enumerate(self.nodes):
            voltages[node] = self.vdd if index % 2 == 0 else 0.0
        voltages[self.nodes[-1]] = 0.5 * self.vdd  # break the tie
        return voltages


def build_ring_oscillator(technology: Technology, n_stages: int = 3,
                          load_capacitance: float = 2e-15,
                          vdd: float | None = None) -> RingOscillator:
    """Build an ``n_stages``-inverter ring from the card's nominal devices."""
    if n_stages < 3 or n_stages % 2 == 0:
        raise SimulationError("a ring needs an odd stage count >= 3")
    if load_capacitance < 0.0:
        raise SimulationError("load capacitance must be non-negative")
    supply = vdd if vdd is not None else technology.vdd
    circuit = Circuit(title=f"ring-{n_stages} ({technology.name})")
    VoltageSource("VDD", circuit, "vdd", "0", DC(supply))
    nodes = [f"n{i}" for i in range(n_stages)]
    ring = RingOscillator(circuit=circuit, technology=technology,
                          n_stages=n_stages, nodes=nodes, vdd=supply)
    for index in range(n_stages):
        inp = nodes[index]
        out = nodes[(index + 1) % n_stages]
        pmos = Mosfet(f"MP{index}", circuit, out, inp, "vdd", "vdd",
                      MosfetParams.nominal(technology, "p"))
        nmos = Mosfet(f"MN{index}", circuit, out, inp, "0", "0",
                      MosfetParams.nominal(technology, "n"))
        attach_mosfet_parasitics(circuit, pmos, out, inp, "vdd", "vdd")
        attach_mosfet_parasitics(circuit, nmos, out, inp, "0", "0")
        if load_capacitance > 0.0:
            Capacitor(f"CL{index}", circuit, out, "0", load_capacitance)
        ring.pmos[index] = pmos
        ring.nmos[index] = nmos
    return ring


def _cycles(waveform: Waveform, node: str, level: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Start times and periods of the rising-edge cycles after start-up."""
    crossings = []
    t = 0.0
    while True:
        t = waveform.crossing_time(node, level, rising=True,
                                   after=t + 1e-15)
        if t is None:
            break
        crossings.append(t)
    if len(crossings) < 3:
        raise SimulationError(
            f"only {len(crossings)} rising crossings found; the ring did "
            "not oscillate long enough")
    crossings = np.asarray(crossings)
    return crossings[1:-1], np.diff(crossings)[1:]  # drop start-up


def measure_periods(waveform: Waveform, node: str, level: float
                    ) -> np.ndarray:
    """Rising-edge periods of a node, skipping the start-up cycle."""
    return _cycles(waveform, node, level)[1]


@dataclass(frozen=True)
class RingRtnResult:
    """Outcome of a coupled ring/RTN run.

    Attributes
    ----------
    waveform:
        The transient.
    occupancy:
        The trap's trajectory.
    periods:
        Per-cycle periods of the observed node [s].
    period_when_filled, period_when_empty:
        Mean period conditioned on the trap state at the cycle start
        (NaN when a state never occurs).
    """

    waveform: Waveform
    occupancy: OccupancyTrace
    periods: np.ndarray
    period_when_filled: float
    period_when_empty: float


def run_ring_with_rtn(ring: RingOscillator, trap: Trap, stage: int,
                      rng: np.random.Generator, t_stop: float,
                      dt: float, rtn_scale: float = 1.0,
                      model: RtnAmplitudeModel | None = None,
                      observe: str | None = None,
                      record_every: int = 1) -> RingRtnResult:
    """Co-simulate the ring with one trap in a stage's NMOS pull-down.

    The trap's propensities follow the live drive of the host stage's
    pull-down; the held opposing current follows its live channel
    current (clipped at that current, as everywhere else in the
    package).  The trap starts from its zero-drive equilibrium.
    """
    if stage not in ring.nmos:
        raise SimulationError(f"ring has no stage {stage}")
    host = ring.nmos[stage].name
    coupled = run_trap_coupled(
        ring.circuit, [TrapAttachment(host, (trap,), rtn_scale)], t_stop,
        dt, rng, initial_voltages=ring.initial_voltages(), model=model,
        record_every=record_every)
    occupancy = coupled.occupancies[host][0]

    observed = (observe if observe is not None
                else ring.nodes[(stage + 1) % ring.n_stages])
    starts, periods = _cycles(coupled.waveform, observed, 0.5 * ring.vdd)
    # Condition each period on the trap state at the cycle start.
    states = occupancy.state_at(np.clip(starts, 0.0, t_stop))
    filled = periods[states == 1]
    empty = periods[states == 0]
    return RingRtnResult(
        waveform=coupled.waveform, occupancy=occupancy, periods=periods,
        period_when_filled=float(filled.mean()) if filled.size else
        float("nan"),
        period_when_empty=float(empty.mean()) if empty.size else
        float("nan"),
    )
