"""AC small-signal analysis.

Linearises the circuit at a DC operating point and solves the complex
MNA system over frequency.  Independent sources keep their DC role in
the operating point; for the AC stimulus, any voltage/current source can
be designated as *the* AC input with unit (or given) magnitude, and
every node voltage phasor is returned.

This rounds out the SPICE substrate (SpiceOPUS, which the paper used,
has the same analysis) and lets the library compute transfer functions
— e.g. the lowpass filtering an SRAM cell applies to an injected RTN
current.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .circuit import GROUND, Circuit
from .dcop import DcSolution, dc_operating_point
from .elements import CurrentSource, VoltageSource
from .mna import StampProgram


@dataclass(frozen=True)
class AcResult:
    """AC sweep output.

    Attributes
    ----------
    frequencies:
        Sweep frequencies [Hz].
    phasors:
        Node name -> complex voltage phasor array over the sweep.
    operating_point:
        The DC solution the circuit was linearised at.
    """

    frequencies: np.ndarray
    phasors: dict
    operating_point: DcSolution

    def magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.phasors[node])

    def magnitude_db(self, node: str) -> np.ndarray:
        mag = self.magnitude(node)
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def phase_deg(self, node: str) -> np.ndarray:
        return np.degrees(np.angle(self.phasors[node]))

    def corner_frequency(self, node: str) -> float | None:
        """First -3 dB frequency relative to the lowest-frequency gain."""
        mag = self.magnitude(node)
        reference = mag[0]
        below = np.flatnonzero(mag < reference / np.sqrt(2.0))
        if below.size == 0:
            return None
        i = below[0]
        if i == 0:
            return float(self.frequencies[0])
        # log-interpolate the crossing
        f_lo, f_hi = self.frequencies[i - 1], self.frequencies[i]
        m_lo, m_hi = mag[i - 1], mag[i]
        target = reference / np.sqrt(2.0)
        fraction = (np.log(m_lo / target)) / np.log(m_lo / m_hi)
        return float(f_lo * (f_hi / f_lo) ** fraction)


def ac_analysis(circuit: Circuit, ac_source: str,
                frequencies: np.ndarray, ac_magnitude: float = 1.0,
                operating_point: DcSolution | None = None) -> AcResult:
    """Small-signal sweep with ``ac_source`` as the unit AC stimulus.

    Parameters
    ----------
    circuit:
        The circuit; MOSFETs are linearised at the operating point.
    ac_source:
        Name of the V or I source carrying the AC stimulus.
    frequencies:
        Positive sweep frequencies [Hz].
    ac_magnitude:
        Stimulus phasor magnitude (1.0 gives transfer functions
        directly).
    operating_point:
        A precomputed DC solution; computed here when omitted.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise AnalysisError("frequencies must be a non-empty 1-D array")
    if np.any(frequencies <= 0.0):
        raise AnalysisError("frequencies must be positive")
    source = circuit.element(ac_source)  # raises NetlistError when absent
    program = StampProgram(circuit)
    op = operating_point or dc_operating_point(circuit)
    # Small-signal system G + jωC: G is the DC Newton matrix at the
    # operating point (GMIN, resistors, MOSFET Jacobians, source rows).
    conductance = program.dc_assembler()(op.x)[0]
    capacitance = program.capacitance_matrix()
    rhs = np.zeros(program.n, dtype=complex)
    if isinstance(source, VoltageSource):
        rhs[source.branch_index] = ac_magnitude
    elif isinstance(source, CurrentSource):
        node_from, node_to = source.nodes
        if node_from != GROUND:
            rhs[node_from] -= ac_magnitude
        if node_to != GROUND:
            rhs[node_to] += ac_magnitude
    else:
        raise AnalysisError(f"{ac_source!r} is not an independent source")
    solutions = np.array([
        np.linalg.solve(conductance + 1j * (2.0 * np.pi * f) * capacitance,
                        rhs)
        for f in frequencies])
    phasors = {name: solutions[:, index]
               for index, name in enumerate(circuit.node_names)}
    return AcResult(frequencies=frequencies, phasors=phasors,
                    operating_point=op)
