"""Circuit elements: the netlist's data.

Elements hold their terminals and values only; the analyses compile a
circuit's elements into a :class:`repro.spice.mna.StampProgram`, which
owns every MNA stamp.  Elements carrying branch-current unknowns expose
``num_branches`` and receive ``branch_index`` from
:meth:`repro.spice.circuit.Circuit.assign_branches`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..devices.mosfet import MosfetParams
from ..errors import NetlistError
from .circuit import GROUND


def _voltage(x: np.ndarray, index: int) -> float:
    """Node voltage from the unknown vector; ground reads 0."""
    return 0.0 if index == GROUND else float(x[index])


@dataclass(frozen=True)
class IntegrationCoeff:
    """Integration context handed to dynamic elements.

    Attributes
    ----------
    method:
        ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
    dt:
        Present time-step size [s].
    """

    method: str
    dt: float

    def __post_init__(self) -> None:
        if self.method not in ("be", "trap"):
            raise NetlistError(f"unknown integration method {self.method!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise NetlistError(
                f"dt must be positive and finite, got {self.dt}")


class Element:
    """Base class: common bookkeeping for all elements."""

    num_branches = 0

    def __init__(self, name: str, nodes: tuple[int, ...]) -> None:
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = name
        self.nodes = nodes
        self.branch_index: int | None = None


class Resistor(Element):
    """A linear resistor between two nodes."""

    def __init__(self, name: str, circuit, node_a: str, node_b: str,
                 resistance: float) -> None:
        if resistance <= 0.0:
            raise NetlistError(
                f"{name}: resistance must be positive, got {resistance}")
        super().__init__(name, (circuit.node(node_a), circuit.node(node_b)))
        self.resistance = float(resistance)
        circuit.add(self)


class Capacitor(Element):
    """A linear capacitor; open in DC, companion model in transient."""

    def __init__(self, name: str, circuit, node_a: str, node_b: str,
                 capacitance: float) -> None:
        if capacitance <= 0.0:
            raise NetlistError(
                f"{name}: capacitance must be positive, got {capacitance}")
        super().__init__(name, (circuit.node(node_a), circuit.node(node_b)))
        self.capacitance = float(capacitance)
        circuit.add(self)


class VoltageSource(Element):
    """An independent voltage source with a stimulus function.

    Carries one branch-current unknown: the current flowing from the
    positive terminal through the source to the negative terminal.
    """

    num_branches = 1

    def __init__(self, name: str, circuit, node_plus: str, node_minus: str,
                 stimulus) -> None:
        super().__init__(name,
                         (circuit.node(node_plus), circuit.node(node_minus)))
        self.stimulus = stimulus
        circuit.add(self)


class CurrentSource(Element):
    """An independent current source: ``stimulus(t)`` amps flow from the
    first node through the source into the second node."""

    def __init__(self, name: str, circuit, node_from: str, node_to: str,
                 stimulus) -> None:
        super().__init__(name,
                         (circuit.node(node_from), circuit.node(node_to)))
        self.stimulus = stimulus
        circuit.add(self)


class Mosfet(Element):
    """An EKV MOSFET channel (drain, gate, source, bulk).

    The channel current is Newton-linearised each iteration from the
    analytic EKV derivatives.  The element is purely resistive; gate and
    junction capacitances are attached explicitly (see
    :func:`attach_mosfet_parasitics`), keeping the charge bookkeeping
    visible in the netlist.
    """

    def __init__(self, name: str, circuit, drain: str, gate: str,
                 source: str, bulk: str, params: MosfetParams) -> None:
        super().__init__(name, (circuit.node(drain), circuit.node(gate),
                                circuit.node(source), circuit.node(bulk)))
        self.params = params
        circuit.add(self)

    def terminal_voltages(self, x) -> tuple[float, float, float, float]:
        """Return ``(v_d, v_g, v_s, v_b)`` at the given unknown vector."""
        d, g, s, b = self.nodes
        return (_voltage(x, d), _voltage(x, g),
                _voltage(x, s), _voltage(x, b))


def attach_mosfet_parasitics(circuit, mosfet: Mosfet, drain: str, gate: str,
                             source: str, bulk: str,
                             overlap_cap_per_width: float = 3e-10) -> None:
    """Attach a Meyer-style constant-capacitance parasitic set.

    Gate-channel charge is split half/half onto C_gs and C_gd (each
    ``W L C_ox / 2`` plus the overlap term ``W * c_ov``); a small
    drain/source-to-bulk junction capacitance (one tenth of the gate
    capacitance) keeps every internal node dynamically anchored, which
    is also what lets the transient engine start from UIC node voltages.
    """
    params = mosfet.params
    c_gate = params.area * params.technology.c_ox
    c_overlap = params.width * overlap_cap_per_width
    c_half = 0.5 * c_gate + c_overlap
    c_junction = max(0.1 * c_gate, 1e-18)
    # The "C" prefix keeps the names valid SPICE C-cards for export.
    Capacitor(f"C{mosfet.name}_gs", circuit, gate, source, c_half)
    Capacitor(f"C{mosfet.name}_gd", circuit, gate, drain, c_half)
    Capacitor(f"C{mosfet.name}_db", circuit, drain, bulk, c_junction)
    Capacitor(f"C{mosfet.name}_sb", circuit, source, bulk, c_junction)
