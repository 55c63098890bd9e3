"""MNA assembly: a circuit compiled once into a stamp program.

Sign conventions used by every stamp:

- Unknown vector ``x = [node voltages..., branch currents...]``.
- Each node row is a KCL equation: (sum of currents *out of* the node)
  = 0, assembled as ``A x = z`` after linearisation.
- A conductance ``g`` between nodes ``i`` and ``j`` stamps ``+g`` on the
  diagonals and ``-g`` off-diagonal.
- A known current ``I`` flowing ``i -> j`` adds ``-I`` to ``z[i]`` and
  ``+I`` to ``z[j]``.
- A nonlinear branch with current ``I(v)`` out of node ``i`` stamps its
  Jacobian into ``A`` and moves the affine remainder
  ``I(v0) - J v0`` to the RHS.
- Ground (index ``-1``) rows/columns are skipped.

:class:`StampProgram` lists every matrix and RHS contribution of a
netlist once, as index arrays, in element order.  Assembling a Newton
iterate is then one vectorised EKV call for all MOSFETs and one ordered
``np.bincount`` per target.  ``bincount`` adds its weights one by one in
input order starting from 0.0, so every entry receives the same float
additions, in the same order, as a scalar stamp-by-stamp loop would
perform — assembly is bit-identical to that loop (the reference kept in
``tests/spice/reference_stamps.py``).
"""

from __future__ import annotations

import numpy as np

from ..devices.ekv import core_derivatives, device_constants
from ..errors import NetlistError
from .circuit import GROUND, Circuit
from .elements import (
    Capacitor,
    CurrentSource,
    IntegrationCoeff,
    Mosfet,
    Resistor,
    VoltageSource,
)

__all__ = ["GMIN_FLOOR", "GROUND", "StampProgram"]

#: Permanent conductance to ground on every node [S].
GMIN_FLOOR = 1e-12

# Fixed slots at the head of the matrix value pool.
_GMIN, _PLUS_ONE, _MINUS_ONE = 0, 1, 2

# Contribution kinds; an assembler sums a set of them.
_ALL = frozenset({"gmin", "static", "source", "capacitor", "mosfet"})
_SOURCES = frozenset({"source"})
_CODES = {kind: code for code, kind in enumerate(sorted(_ALL))}

_CLASSES = (Resistor, Capacitor, VoltageSource, CurrentSource, Mosfet)

#: Appended to an iterate so that index -1 (ground) reads 0.0.
_GROUND_SLOT = np.zeros(1)


class StampProgram:
    """A circuit's netlist compiled to per-class value arrays plus ordered
    index arrays.

    Compile once per analysis call (elements, parameters and branch
    indices are read here); stimuli are read from the elements each
    time an assembler is built, because co-simulation hooks and sweeps
    replace them between solves.

    The value pools hold, in this order:

    - matrix: ``gmin, +1, -1``, resistor ``g`` then ``-g``, capacitor
      companion ``geq`` then ``-geq``, MOSFET Jacobian ``J`` (terminal
      order g, d, s, b) then ``-J``;
    - RHS: voltage-source values, current-source ``I`` then ``-I``,
      capacitor ``ieq`` then ``-ieq``, MOSFET ``-I_eq`` then ``I_eq``.

    Each contribution is a ``(target, pool slot)`` pair; the pairs are
    kept in the order a scalar loop stamps them — GMIN first, then the
    elements in ``circuit.elements`` order.

    Raises
    ------
    NetlistError
        If the circuit holds an element outside the five supported
        classes.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.n = n = circuit.assign_branches()
        classes = {cls: [] for cls in _CLASSES}
        # (element, class, index within its class), in netlist order.
        netlist = []
        for element in circuit.elements:
            cls = next((known for known in _CLASSES
                        if isinstance(element, known)), None)
            if cls is None:
                raise NetlistError(
                    f"{element.name}: cannot assemble element type "
                    f"{type(element).__name__}")
            netlist.append((element, cls, len(classes[cls])))
            classes[cls].append(element)
        resistors = classes[Resistor]
        capacitors = classes[Capacitor]
        self._vsources = classes[VoltageSource]
        self._isources = classes[CurrentSource]
        mosfets = classes[Mosfet]
        n_r, n_c, n_m = len(resistors), len(capacitors), len(mosfets)
        n_v, n_i = len(self._vsources), len(self._isources)

        self._conductance = np.array(
            [1.0 / r.resistance for r in resistors])
        self._capacitance = np.array([c.capacitance for c in capacitors])
        self._cap_nodes = np.array([c.nodes for c in capacitors],
                                   dtype=np.intp).reshape(n_c, 2).T
        self._n_mos = n_m
        if n_m:
            constants = np.array([device_constants(m.params)
                                  for m in mosfets]).T
            self._vt0, self._slope, self._v_t, self._i_spec = constants
            nmos = np.array([m.params.is_nmos for m in mosfets])
            self._sign = np.where(nmos, 1.0, -1.0)
            d, g, s, b = np.array([m.nodes for m in mosfets],
                                  dtype=np.intp).T
            # Bulk-referenced differences v_hi - v_lo for (gb, db, sb):
            # NMOS v_x - v_b, PMOS mirrored to v_b - v_x.
            terminals = np.stack((g, d, s))
            bulk = np.broadcast_to(b, terminals.shape)
            self._hi = np.where(nmos, terminals, bulk)
            self._lo = np.where(nmos, bulk, terminals)
            self._jac_cols = np.stack((g, d, s, b))
            live = self._jac_cols != GROUND
            # Per Jacobian column: None (every device skips it), True
            # (none does) or the mask of devices whose column is live.
            self._live = [None if not row.any() else
                          True if row.all() else row for row in live]

        mat_static = 3 + 2 * n_r + 2 * n_c
        rhs_static = n_v + 2 * n_i + 2 * n_c
        self._mat_static, self._rhs_static = mat_static, rhs_static
        # Contribution tables, in stamp order: flat (row, col, slot,
        # kind code) quadruples.
        mat, rhs = [], []

        def add(table, row, col, slot, kind):
            table.extend((row, col, slot, _CODES[kind]))

        def conductance(a, b, slot, negated, kind):
            for row, col, value in ((a, a, slot), (b, b, slot),
                                    (a, b, negated), (b, a, negated)):
                add(mat, row, col, value, kind)

        def injection(a, b, slot, negated, kind):
            # Current a -> b: leaves a (RHS -I), enters b (RHS +I).
            add(rhs, a, a, negated, kind)
            add(rhs, b, b, slot, kind)

        for node in range(circuit.n_nodes):
            add(mat, node, node, _GMIN, "gmin")
        for element, cls, k in netlist:
            if cls is Resistor:
                conductance(*element.nodes, 3 + k, 3 + n_r + k, "static")
            elif cls is Capacitor:
                base = 3 + 2 * n_r
                conductance(*element.nodes, base + k, base + n_c + k,
                            "capacitor")
                base = n_v + 2 * n_i
                injection(*element.nodes, base + k, base + n_c + k,
                          "capacitor")
            elif cls is VoltageSource:
                plus, minus = element.nodes
                branch = element.branch_index
                add(mat, plus, branch, _PLUS_ONE, "source")
                add(mat, minus, branch, _MINUS_ONE, "source")
                add(mat, branch, plus, _PLUS_ONE, "source")
                add(mat, branch, minus, _MINUS_ONE, "source")
                add(rhs, branch, branch, k, "source")
            elif cls is CurrentSource:
                injection(*element.nodes, n_v + k, n_v + n_i + k, "source")
            else:
                d, g, s, b = element.nodes
                for column, col in enumerate((g, d, s, b)):
                    slot = mat_static + column * n_m + k
                    add(mat, d, col, slot, "mosfet")
                    add(mat, s, col, slot + 4 * n_m, "mosfet")
                injection(d, s, rhs_static + n_m + k, rhs_static + k,
                          "mosfet")
        self._tables = (self._table(mat, n), self._table(rhs, 0))
        self._programs: dict = {}

    @staticmethod
    def _table(quadruples, row_stride):
        """``(target, slot, kind code)`` arrays without ground entries."""
        rows, cols, slots, kinds = np.array(
            quadruples, dtype=np.intp).reshape(-1, 4).T
        keep = (rows != GROUND) & (cols != GROUND)
        target = rows * row_stride + cols if row_stride else rows
        return target[keep], slots[keep], kinds[keep]

    def _program(self, kinds: frozenset) -> tuple:
        """``((target, slot) matrix, (target, slot) RHS)`` of the
        contributions of the given kinds, in stamp order."""
        if kinds not in self._programs:
            selected = np.zeros(len(_CODES), dtype=bool)
            selected[[_CODES[kind] for kind in kinds]] = True
            self._programs[kinds] = tuple(
                (target[selected[code]], slot[selected[code]])
                for target, slot, code in self._tables)
        return self._programs[kinds]

    def unknown_vector(self, voltages: dict | None) -> np.ndarray:
        """Unknown vector holding the named node voltages (UIC or nodeset).

        Unlisted nodes start at 0 V; a name the circuit does not know
        raises :class:`~repro.errors.NetlistError` instead of creating a
        node.
        """
        x = np.zeros(self.n)
        for name, value in (voltages or {}).items():
            index = self.circuit.lookup(name)
            if index != GROUND:
                x[index] = value
        return x

    # -- capacitor state ------------------------------------------------
    def _branch_voltages(self, x: np.ndarray) -> np.ndarray:
        xe = np.concatenate((x, _GROUND_SLOT))
        return xe[self._cap_nodes[0]] - xe[self._cap_nodes[1]]

    def _companion_conductance(self, coeff: IntegrationCoeff) -> np.ndarray:
        if coeff.method == "be":
            return self._capacitance / coeff.dt
        return 2.0 * self._capacitance / coeff.dt

    def initial_history(self, x: np.ndarray) -> tuple:
        """Capacitor state ``(v, i)`` at the t=0 solution (UIC: i = 0)."""
        return self._branch_voltages(x), np.zeros(self._capacitance.size)

    def advance(self, x: np.ndarray, coeff: IntegrationCoeff,
                history: tuple) -> tuple:
        """Capacitor state after an accepted step ending at ``x``."""
        v_prev, i_prev = history
        v_new = self._branch_voltages(x)
        i_new = self._companion_conductance(coeff) * (v_new - v_prev)
        if coeff.method != "be":
            i_new = i_new - i_prev
        return v_new, i_new

    # -- assemblers -----------------------------------------------------
    def dc_assembler(self, t: float = 0.0, gmin: float = GMIN_FLOOR,
                     source_scale: float = 1.0):
        """Newton assembler ``x -> (A, z)`` of the DC system at time ``t``.

        Capacitors are open.  Source and non-source entries are summed
        separately and then combined, with the source RHS scaled by
        ``source_scale`` (the source-stepping homotopy).
        """
        return self._assembler(t, None, None, gmin, source_scale, True)

    def transient_assembler(self, t: float, coeff: IntegrationCoeff,
                            history: tuple, source_scale: float = 1.0):
        """Newton assembler of one companion-model step ending at ``t``.

        ``history`` is the capacitor state from :meth:`initial_history`
        or :meth:`advance`.  At ``source_scale`` 1 every entry is one
        ordered sum; otherwise the sources are summed apart and scaled.
        """
        return self._assembler(t, coeff, history, GMIN_FLOOR, source_scale,
                               source_scale != 1.0)

    def _accumulate(self, program, mat_pool, rhs_pool):
        """Sum the pools into ``(A, z)`` in the program's order."""
        n = self.n
        (mat_target, mat_slot), (rhs_target, rhs_slot) = program
        matrix = np.bincount(mat_target, mat_pool[mat_slot],
                             minlength=n * n).reshape(n, n)
        return matrix, np.bincount(rhs_target, rhs_pool[rhs_slot],
                                   minlength=n)

    def _assembler(self, t, coeff, history, gmin, source_scale, separate):
        kinds = _ALL
        if coeff is None:
            kinds = kinds - {"capacitor"}
            geq = ieq = np.zeros(self._capacitance.size)
        else:
            v_prev, i_prev = history
            geq = self._companion_conductance(coeff)
            ieq = -geq * v_prev
            if coeff.method != "be":
                ieq = ieq - i_prev
        parts = (kinds - _SOURCES, _SOURCES) if separate else (kinds,)
        programs = [self._program(part) for part in parts]
        # Stimuli are evaluated once per assembler (one per time point),
        # not once per Newton iterate.
        values = [float(e.stimulus(t)) for e in self._vsources]
        currents = np.array([float(e.stimulus(t)) for e in self._isources])
        n_m = self._n_mos
        mat_pool = np.concatenate((
            [gmin, 1.0, -1.0], self._conductance, -self._conductance,
            geq, -geq, np.empty(8 * n_m)))
        rhs_pool = np.concatenate((values, currents, -currents, ieq, -ieq,
                                   np.empty(2 * n_m)))
        # MOSFET rows written in place each iterate: J, -J and -I_eq, I_eq.
        jacobian = mat_pool[self._mat_static:].reshape(8, n_m)
        equivalent = rhs_pool[self._rhs_static:].reshape(2, n_m)

        def assemble(x: np.ndarray):
            if n_m:
                self._mosfet_values(x, jacobian, equivalent)
            sums = [self._accumulate(program, mat_pool, rhs_pool)
                    for program in programs]
            if not separate:
                return sums[0]
            (matrix, rhs), (source_matrix, source_rhs) = sums
            return matrix + source_matrix, rhs + source_scale * source_rhs

        return assemble

    def _mosfet_values(self, x: np.ndarray, jacobian: np.ndarray,
                       equivalent: np.ndarray) -> None:
        """Write ``(J, -J)`` and ``(-I_eq, I_eq)`` at ``x`` in place."""
        xe = np.concatenate((x, _GROUND_SLOT))
        u = xe[self._hi] - xe[self._lo]
        i_core, dg, dd, ds = core_derivatives(
            self._vt0, self._slope, self._v_t, self._i_spec, u[0], u[1], u[2])
        jacobian[0], jacobian[1], jacobian[2] = dg, dd, ds
        np.negative(dg + dd + ds, out=jacobian[3])
        np.negative(jacobian[:4], out=jacobian[4:])
        # Equivalent current I - sum_k J_k x_k, ground columns skipped
        # (not multiplied by zero, which could flip the sign of a zero).
        current = self._sign * i_core
        terms = jacobian[:4] * xe[self._jac_cols]
        for live, term in zip(self._live, terms):
            if live is True:
                current = current - term
            elif live is not None:
                current = np.where(live, current - term, current)
        np.negative(current, out=equivalent[0])
        equivalent[1] = current
