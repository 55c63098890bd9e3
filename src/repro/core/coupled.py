"""Bi-directionally coupled RTN/circuit co-simulation (future-work #1).

The paper's methodology is one-way: a clean SPICE pass fixes the biases,
SAMURAI generates RTN against them, and a second SPICE pass consumes the
frozen traces.  Its conclusions note the limitation: "in reality ...
both RTN and the circuit states evolve together, with RTN modulating the
circuit voltages/currents and the circuit simultaneously modulating the
stochastic processes governing RTN generation."

This module closes the loop for the 6T cell.  It is an adapter over
:func:`repro.cosim.engine.run_trap_coupled`, the package's one
co-simulation loop: before every transient step the engine reads each
transistor's live drive and channel current, advances its traps
*exactly* over the step under rates frozen at that bias (a first-order
splitting of the continuous modulation, exact as dt -> 0), and updates
a held ``sign(i_d) * amplitude * N_filled`` opposing current source.
The adapter adds what is specific to the cell: the pattern stimuli,
one trap attachment per populated transistor, and the per-operation
detector verdicts.

The circuit step then sees the new RTN current, and the next trap update
sees the circuit's response: the bi-directional coupling the paper calls
"higher order effects".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cosim.engine import TrapAttachment, run_trap_coupled
from ..errors import SimulationError
from ..rtn.current import RtnAmplitudeModel
from ..sram.cell import SramCell
from ..sram.detectors import DetectorThresholds, classify_operations
from ..sram.patterns import TestPattern, build_pattern_waveforms


@dataclass
class CoupledResult:
    """Output of a coupled co-simulation run.

    Attributes
    ----------
    waveform:
        The transient (RTN acting throughout).
    occupancies:
        Transistor name -> list of per-trap :class:`OccupancyTrace`.
    op_results:
        Per-operation verdicts.
    """

    waveform: object
    occupancies: dict
    op_results: list


def run_coupled(cell: SramCell, pattern: TestPattern,
                trap_populations: dict, rng: np.random.Generator,
                rtn_scale: float = 1.0,
                amplitude_model: RtnAmplitudeModel | None = None,
                dt: float | None = None,
                thresholds: DetectorThresholds | None = None,
                record_every: int = 1) -> CoupledResult:
    """Co-simulate a cell and its traps through a test pattern.

    Parameters
    ----------
    cell:
        A freshly built cell (held sources are attached to it and
        removed again afterwards).
    pattern:
        The stimulus pattern.
    trap_populations:
        Transistor name -> trap list.
    rng:
        NumPy random generator (initial states + trap evolution).
    rtn_scale:
        Acceleration factor on the fed-back current.
    amplitude_model:
        RTN amplitude model (default paper Eq. 3).
    dt:
        Transient step [s]; also the trap-update interval.  Defaults to
        the pattern's suggested step.
    """
    if rtn_scale < 0.0:
        raise SimulationError("rtn_scale must be non-negative")
    unknown = set(trap_populations) - set(cell.transistors)
    if unknown:
        raise SimulationError(f"unknown transistors: {unknown}")
    waves = build_pattern_waveforms(pattern, cell.vdd)
    cell.set_stimuli(waves.wl, waves.bl, waves.blb)
    attachments = [TrapAttachment(name, traps, rtn_scale)
                   for name, traps in trap_populations.items() if traps]
    coupled = run_trap_coupled(
        cell.circuit, attachments, waves.duration,
        dt if dt is not None else waves.suggested_dt, rng,
        initial_voltages=cell.initial_voltages(pattern.initial_bit),
        model=amplitude_model, record_every=record_every)
    occupancies = {name: coupled.occupancies.get(name, [])
                   for name in trap_populations}
    op_results = classify_operations(coupled.waveform, waves.schedule,
                                     cell.vdd,
                                     thresholds=thresholds
                                     or DetectorThresholds())
    return CoupledResult(waveform=coupled.waveform,
                         occupancies=occupancies, op_results=op_results)
