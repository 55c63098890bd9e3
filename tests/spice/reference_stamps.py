"""Scalar reference assembly: one stamp call per element contribution.

This is the element-by-element MNA assembly the library used before it
compiled netlists into :class:`repro.spice.mna.StampProgram`, kept as
the oracle for the program's bit-identity with every body unchanged:
the ``Stamper``, each element's ``stamp``/``init_history``/
``update_history`` (dispatched on the element class here), the EKV
derivative chain they called and the transient/DC assembler factories.
Only the tests import it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.constants import thermal_voltage
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)

GROUND = -1
GMIN_FLOOR = 1e-12


class Stamper:
    """Accumulates MNA stamps into a dense system ``A x = z``."""

    def __init__(self, n_unknowns: int) -> None:
        self.n = n_unknowns
        self.matrix = np.zeros((n_unknowns, n_unknowns))
        self.rhs = np.zeros(n_unknowns)

    def add_matrix(self, row: int, col: int, value: float) -> None:
        """Add to A[row, col]; either index may be GROUND (skipped)."""
        if row != GROUND and col != GROUND:
            self.matrix[row, col] += value

    def add_rhs(self, row: int, value: float) -> None:
        """Add to z[row]; GROUND rows are skipped."""
        if row != GROUND:
            self.rhs[row] += value

    def add_conductance(self, node_a: int, node_b: int, g: float) -> None:
        self.add_matrix(node_a, node_a, g)
        self.add_matrix(node_b, node_b, g)
        self.add_matrix(node_a, node_b, -g)
        self.add_matrix(node_b, node_a, -g)

    def add_current_injection(self, node_from: int, node_to: int,
                              current: float) -> None:
        self.add_rhs(node_from, -current)
        self.add_rhs(node_to, current)

    def add_nonlinear_branch(self, node_from: int, node_to: int,
                             current: float,
                             jacobian: list[tuple[int, float]]) -> None:
        for col, didx in jacobian:
            self.add_matrix(node_from, col, didx)
            self.add_matrix(node_to, col, -didx)
        self.add_current_injection(node_from, node_to, current)

    def add_linearised_branch(self, node_from: int, node_to: int,
                              i_at_x0: float,
                              jacobian: list[tuple[int, float]],
                              x0: np.ndarray) -> None:
        equivalent = i_at_x0
        for col, didx in jacobian:
            if col != GROUND:
                equivalent -= didx * x0[col]
        self.add_nonlinear_branch(node_from, node_to, equivalent, jacobian)


# -- the EKV derivative chain -------------------------------------------
def _softplus(x):
    return np.logaddexp(0.0, x)


def _interpolation_f(u):
    sp = _softplus(np.asarray(u, dtype=float) / 2.0)
    return sp * sp


def _interpolation_f_prime(u):
    u = np.asarray(u, dtype=float)
    return _softplus(u / 2.0) * expit(u / 2.0)


def _core_derivatives(params, v_gb, v_db, v_sb):
    tech = params.technology
    v_t = thermal_voltage(tech.temperature)
    v_p = (np.asarray(v_gb, dtype=float) - params.vt0) / tech.slope_factor
    x_f = (v_p - np.asarray(v_sb, dtype=float)) / v_t
    x_r = (v_p - np.asarray(v_db, dtype=float)) / v_t
    i_s = params.i_spec
    n = params.technology.slope_factor
    f_f = _interpolation_f(x_f)
    f_r = _interpolation_f(x_r)
    fp_f = _interpolation_f_prime(x_f)
    fp_r = _interpolation_f_prime(x_r)
    i = i_s * (f_f - f_r)
    di_dvg = i_s * (fp_f - fp_r) / (n * v_t)
    di_dvd = i_s * fp_r / v_t
    di_dvs = -i_s * fp_f / v_t
    return i, di_dvg, di_dvd, di_dvs


def drain_current_derivatives(params, v_g, v_d, v_s, v_b=0.0):
    if params.is_nmos:
        i, dg, dd, ds = _core_derivatives(
            params, np.asarray(v_g) - v_b, np.asarray(v_d) - v_b,
            np.asarray(v_s) - v_b)
    else:
        i_core, dg, dd, ds = _core_derivatives(
            params, v_b - np.asarray(v_g), v_b - np.asarray(v_d),
            v_b - np.asarray(v_s))
        i = -i_core
    db = -(dg + dd + ds)
    return i, dg, dd, ds, db


# -- element stamps -----------------------------------------------------
def _voltage(x: np.ndarray, index: int) -> float:
    return 0.0 if index == GROUND else float(x[index])


def _branch_voltage(cap, x) -> float:
    return _voltage(x, cap.nodes[0]) - _voltage(x, cap.nodes[1])


def init_history(element, x, history) -> None:
    if isinstance(element, Capacitor):
        history[element.name] = (_branch_voltage(element, x), 0.0)


def update_history(element, x, coeff, history) -> None:
    if not isinstance(element, Capacitor):
        return
    v_prev, i_prev = history[element.name]
    v_new = _branch_voltage(element, x)
    if coeff.method == "be":
        i_new = element.capacitance / coeff.dt * (v_new - v_prev)
    else:
        i_new = (2.0 * element.capacitance / coeff.dt * (v_new - v_prev)
                 - i_prev)
    history[element.name] = (v_new, i_new)


def stamp(element, stamper, x, t, coeff, history) -> None:
    if isinstance(element, Resistor):
        stamper.add_conductance(element.nodes[0], element.nodes[1],
                                1.0 / element.resistance)
    elif isinstance(element, Capacitor):
        if coeff is None:
            return  # open circuit in DC
        v_prev, i_prev = history[element.name]
        if coeff.method == "be":
            geq = element.capacitance / coeff.dt
            ieq = -geq * v_prev
        else:  # trapezoidal
            geq = 2.0 * element.capacitance / coeff.dt
            ieq = -geq * v_prev - i_prev
        stamper.add_conductance(element.nodes[0], element.nodes[1], geq)
        stamper.add_current_injection(element.nodes[0], element.nodes[1],
                                      ieq)
    elif isinstance(element, VoltageSource):
        plus, minus = element.nodes
        k = element.branch_index
        stamper.add_matrix(plus, k, 1.0)
        stamper.add_matrix(minus, k, -1.0)
        stamper.add_matrix(k, plus, 1.0)
        stamper.add_matrix(k, minus, -1.0)
        stamper.add_rhs(k, float(element.stimulus(t)))
    elif isinstance(element, CurrentSource):
        stamper.add_current_injection(element.nodes[0], element.nodes[1],
                                      float(element.stimulus(t)))
    elif isinstance(element, Mosfet):
        d, g, s, b = element.nodes
        v_d, v_g, v_s, v_b = (_voltage(x, d), _voltage(x, g),
                              _voltage(x, s), _voltage(x, b))
        i, di_dg, di_dd, di_ds, di_db = drain_current_derivatives(
            element.params, v_g, v_d, v_s, v_b)
        jacobian = [(g, float(di_dg)), (d, float(di_dd)),
                    (s, float(di_ds)), (b, float(di_db))]
        stamper.add_linearised_branch(d, s, float(i), jacobian, x)
    else:
        raise TypeError(type(element).__name__)


# -- assembler factories ------------------------------------------------
def transient_assemble(circuit, x, t, coeff, history,
                       source_scale=1.0):
    """``(A, z)`` of the old transient ``assemble_factory``."""
    n = circuit.assign_branches()
    stamper = Stamper(n)
    for node in range(circuit.n_nodes):
        stamper.add_matrix(node, node, GMIN_FLOOR)
    if source_scale == 1.0:
        for element in circuit.elements:
            stamp(element, stamper, x, t, coeff, history)
        return stamper.matrix, stamper.rhs
    sources = Stamper(n)
    for element in circuit.elements:
        if isinstance(element, (VoltageSource, CurrentSource)):
            stamp(element, sources, x, t, coeff, history)
        else:
            stamp(element, stamper, x, t, coeff, history)
    stamper.matrix += sources.matrix
    stamper.rhs += source_scale * sources.rhs
    return stamper.matrix, stamper.rhs


def dc_assemble(circuit, x, gmin, source_scale=1.0, t=0.0):
    """``(A, z)`` of the old DC ``_assemble_factory``."""
    n = circuit.assign_branches()
    stamper = Stamper(n)
    for node in range(circuit.n_nodes):
        stamper.add_matrix(node, node, gmin)
    sources = Stamper(n)
    for element in circuit.elements:
        if isinstance(element, (VoltageSource, CurrentSource)):
            stamp(element, sources, x, t, None, {})
        else:
            stamp(element, stamper, x, t, None, {})
    stamper.matrix += sources.matrix
    stamper.rhs += source_scale * sources.rhs
    return stamper.matrix, stamper.rhs
