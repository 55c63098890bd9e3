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

The values live in :class:`StampPools`, allocated once and refilled per
time point.  The stimuli are part of that refill: an assembler either
calls them at its time point or takes their values from the caller
(the transient evaluates pure sources once on its whole step grid).
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

__all__ = ["GMIN_FLOOR", "GROUND", "StampPools", "StampProgram"]

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
    indices are read here).  The stimuli are not compiled: co-simulation
    hooks and sweeps replace them between solves, so they are read from
    the elements when pools are refilled (:meth:`stimuli`).

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
            # Ground columns of the equivalent current, zeroed before
            # the ordered sum (subtracting +0.0 changes no bit).
            self._ground_cols = self._jac_cols == GROUND

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
        self._companions: dict = {}

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

    def _companion_conductance(self, coeff: IntegrationCoeff) -> tuple:
        """``(geq, -geq)`` of the capacitors, cached per ``(method, dt)``."""
        key = (coeff.method, coeff.dt)
        pair = self._companions.get(key)
        if pair is None:
            if coeff.method == "be":
                geq = self._capacitance / coeff.dt
            else:
                geq = 2.0 * self._capacitance / coeff.dt
            pair = self._companions[key] = (geq, -geq)
            for values in pair:
                values.flags.writeable = False
        return pair

    def initial_history(self, x: np.ndarray) -> tuple:
        """Capacitor state ``(v, i)`` at the t=0 solution (UIC: i = 0)."""
        return self._branch_voltages(x), np.zeros(self._capacitance.size)

    def advance(self, x: np.ndarray, coeff: IntegrationCoeff,
                history: tuple) -> tuple:
        """Capacitor state after an accepted step ending at ``x``."""
        v_prev, i_prev = history
        v_new = self._branch_voltages(x)
        i_new = self._companion_conductance(coeff)[0] * (v_new - v_prev)
        if coeff.method != "be":
            i_new = i_new - i_prev
        return v_new, i_new

    # -- assemblers -----------------------------------------------------
    def stimuli(self) -> list:
        """The independent sources' stimuli in RHS pool order: voltage
        sources, then current sources, each in netlist order."""
        return [e.stimulus for e in self._vsources + self._isources]

    def dc_assembler(self, t: float = 0.0, gmin: float = GMIN_FLOOR,
                     source_scale: float = 1.0):
        """Newton assembler ``x -> (A, z)`` of the DC system at time ``t``.

        Capacitors are open.  Source and non-source entries are summed
        separately and then combined, with the source RHS scaled by
        ``source_scale`` (the source-stepping homotopy).  The assembler
        owns its pools.
        """
        return StampPools(self, gmin).assembler(t, None, None, source_scale,
                                                separate=True)

    def transient_assembler(self, t: float, coeff: IntegrationCoeff,
                            history: tuple, source_scale: float = 1.0):
        """Newton assembler of one companion-model step ending at ``t``.

        ``history`` is the capacitor state from :meth:`initial_history`
        or :meth:`advance`.  At ``source_scale`` 1 every entry is one
        ordered sum; otherwise the sources are summed apart and scaled.
        The assembler owns its pools.
        """
        return StampPools(self).assembler(t, coeff, history, source_scale)

    def _accumulate(self, program, mat_pool, rhs_pool):
        """Sum the pools into ``(A, z)`` in the program's order."""
        n = self.n
        (mat_target, mat_slot), (rhs_target, rhs_slot) = program
        matrix = np.bincount(mat_target, mat_pool[mat_slot],
                             minlength=n * n).reshape(n, n)
        return matrix, np.bincount(rhs_target, rhs_pool[rhs_slot],
                                   minlength=n)

    def _mosfet_values(self, xe: np.ndarray, jacobian: np.ndarray,
                       equivalent: np.ndarray, terms: np.ndarray) -> None:
        """Write ``(J, -J)`` and ``(-I_eq, I_eq)`` in place at the
        ground-padded iterate ``xe`` (``xe[-1]`` is 0.0); ``terms`` is
        ``(5, n_mos)`` scratch."""
        u = xe[self._hi] - xe[self._lo]
        i_core, dg, dd, ds = core_derivatives(
            self._vt0, self._slope, self._v_t, self._i_spec, u[0], u[1], u[2])
        jacobian[0], jacobian[1], jacobian[2] = dg, dd, ds
        np.negative(dg + dd + ds, out=jacobian[3])
        np.negative(jacobian[:4], out=jacobian[4:])
        # Equivalent current I - J_g x_g - J_d x_d - J_s x_s - J_b x_b,
        # subtracted in that order along axis 0.  A ground column's term
        # is +0.0, not J * 0.0, whose sign could flip a -0.0 current.
        np.multiply(self._sign, i_core, out=terms[0])
        np.multiply(jacobian[:4], xe[self._jac_cols], out=terms[1:])
        np.putmask(terms[1:], self._ground_cols, 0.0)
        np.subtract.reduce(terms, axis=0, out=equivalent[1])
        np.negative(equivalent[1], out=equivalent[0])


class StampPools:
    """The matrix and RHS value pools of a :class:`StampProgram`, plus a
    ground-padded iterate buffer, allocated once and refilled in place.

    The static entries (``gmin, +1, -1`` and the resistor conductances)
    are written here, once.  :meth:`assembler` refills the time-point
    entries (capacitor ``geq``/``ieq`` and the stimuli) and returns an
    assembler that writes the MOSFET entries at each iterate.

    **Ownership.**  Every assembler built from one pools object reads
    the same arrays, so it holds the values of the *latest*
    :meth:`assembler` call.  Whoever builds the pools owns them and
    must not use an assembler after building one for another time
    point: :meth:`StampProgram.dc_assembler` and
    :meth:`StampProgram.transient_assembler` build fresh pools for each
    assembler they return, and ``simulate_transient`` builds one pools
    object per run, whose assemblers (the plain solve's, then the
    recovery ladder's for the same step, which differ only in the source
    scale) are done with before the next step refills it.
    """

    def __init__(self, program: StampProgram,
                 gmin: float = GMIN_FLOOR) -> None:
        self.program = program
        n_r = program._conductance.size
        n_c = program._capacitance.size
        n_m = program._n_mos
        n_v, n_i = len(program._vsources), len(program._isources)
        mat_static, rhs_static = program._mat_static, program._rhs_static
        self._mat = mat = np.zeros(mat_static + 8 * n_m)
        mat[:3] = gmin, 1.0, -1.0
        mat[3:3 + n_r] = program._conductance
        np.negative(program._conductance, out=mat[3 + n_r:3 + 2 * n_r])
        self._rhs = rhs = np.zeros(rhs_static + 2 * n_m)
        self._geq = mat[3 + 2 * n_r:mat_static].reshape(2, n_c)
        self._stimuli = rhs[:n_v + n_i]
        self._currents = rhs[n_v:n_v + 2 * n_i].reshape(2, n_i)
        self._ieq = rhs[n_v + 2 * n_i:rhs_static].reshape(2, n_c)
        # MOSFET rows written in place each iterate: J, -J and -I_eq, I_eq.
        self._jacobian = mat[mat_static:].reshape(8, n_m)
        self._equivalent = rhs[rhs_static:].reshape(2, n_m)
        self._xe = np.zeros(program.n + 1)
        self._terms = np.empty((5, n_m))

    def assembler(self, t: float, coeff: IntegrationCoeff | None,
                  history: tuple | None, source_scale: float = 1.0,
                  separate: bool | None = None, stimuli=None):
        """Refill the pools for the time point ``t`` and return its
        Newton assembler ``x -> (A, z)``.

        ``coeff is None`` assembles the DC system (capacitors open).
        ``separate`` sums the source entries apart and scales them by
        ``source_scale``; by default only when the scale is not 1.
        ``stimuli`` are the source values at ``t`` in
        :meth:`StampProgram.stimuli` order, when already evaluated;
        otherwise each stimulus is called at ``t`` now.
        """
        program = self.program
        if separate is None:
            separate = source_scale != 1.0
        kinds = _ALL
        if coeff is None:
            kinds = kinds - {"capacitor"}
        else:
            v_prev, i_prev = history
            geq, neg_geq = program._companion_conductance(coeff)
            self._geq[0], self._geq[1] = geq, neg_geq
            ieq = self._ieq[0]
            np.multiply(neg_geq, v_prev, out=ieq)
            if coeff.method != "be":
                np.subtract(ieq, i_prev, out=ieq)
            np.negative(ieq, out=self._ieq[1])
        if stimuli is None:
            stimuli = [float(stimulus(t)) for stimulus in program.stimuli()]
        self._stimuli[:] = stimuli
        np.negative(self._currents[0], out=self._currents[1])

        parts = (kinds - _SOURCES, _SOURCES) if separate else (kinds,)
        programs = [program._program(part) for part in parts]
        mat_pool, rhs_pool, xe = self._mat, self._rhs, self._xe
        jacobian, equivalent = self._jacobian, self._equivalent
        terms = self._terms
        n, n_m = program.n, program._n_mos
        accumulate = program._accumulate

        def assemble(x: np.ndarray):
            if n_m:
                xe[:n] = x
                program._mosfet_values(xe, jacobian, equivalent, terms)
            if not separate:
                return accumulate(programs[0], mat_pool, rhs_pool)
            (matrix, rhs), (source_matrix, source_rhs) = [
                accumulate(part, mat_pool, rhs_pool) for part in programs]
            return matrix + source_matrix, rhs + source_scale * source_rhs

        return assemble
