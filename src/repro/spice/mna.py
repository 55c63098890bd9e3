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

**Batch axis.**  :meth:`StampProgram.stack` compiles B circuits of one
topology (the same elements, classes and nodes, in the same order) into
one program whose element values — conductances, capacitances, MOSFET
constants — carry a leading cell axis.  Pools, iterates and assembled
systems carry it too: an assembler maps ``x`` of shape ``(B, n)`` to
``(A, z)`` of shapes ``(B, n, n)`` and ``(B, n)``.  Each cell's targets
are offset by its row, so one ``bincount`` per target still adds every
entry's contributions in the cell's own stamp order, and every other
operation is elementwise: row ``b`` of a batched assembly has the bits
of cell ``b`` assembled alone.  A program of one circuit holds its
values without the cell axis; they broadcast over its one row.
"""

from __future__ import annotations

import copy

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

__all__ = ["GMIN_FLOOR", "GROUND", "StampPools", "StampProgram",
           "single_cell"]

#: Permanent conductance to ground on every node [S].
GMIN_FLOOR = 1e-12

# Fixed slots at the head of the matrix value pool.
_GMIN, _PLUS_ONE, _MINUS_ONE = 0, 1, 2

# Contribution kinds; an assembler sums a set of them.
_ALL = frozenset({"gmin", "static", "source", "capacitor", "mosfet"})
_SOURCES = frozenset({"source"})
_CODES = {kind: code for code, kind in enumerate(sorted(_ALL))}

_CLASSES = (Resistor, Capacitor, VoltageSource, CurrentSource, Mosfet)

#: Element values, per cell in a stacked program.
_VALUES = ("_conductance", "_capacitance", "_vt0", "_slope", "_v_t",
           "_i_spec")

#: Topology arrays, equal in every circuit of a stacked program.
_TOPOLOGY = ("_hi", "_lo", "_jac_cols", "_sign", "_cap_nodes")


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
        self.circuits = (circuit,)
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
        vsources, isources = classes[VoltageSource], classes[CurrentSource]
        # The independent sources of each cell, in RHS pool order.
        self._sources = (tuple(vsources + isources),)
        mosfets = classes[Mosfet]
        n_r, n_c, n_m = len(resistors), len(capacitors), len(mosfets)
        self._n_v, self._n_i = n_v, n_i = len(vsources), len(isources)

        self._conductance = np.array(
            [1.0 / r.resistance for r in resistors])
        self._capacitance = np.array([c.capacitance for c in capacitors])
        self._cap_nodes = np.array([c.nodes for c in capacitors],
                                   dtype=np.intp).reshape(n_c, 2).T
        self._n_mos = n_m
        constants = np.array([device_constants(m.params)
                              for m in mosfets]).reshape(n_m, 4).T
        self._vt0, self._slope, self._v_t, self._i_spec = constants
        nmos = np.array([m.params.is_nmos for m in mosfets], dtype=bool)
        self._sign = np.where(nmos, 1.0, -1.0)
        d, g, s, b = np.array([m.nodes for m in mosfets],
                              dtype=np.intp).reshape(n_m, 4).T
        # Bulk-referenced differences v_hi - v_lo for (gb, db, sb):
        # NMOS v_x - v_b, PMOS mirrored to v_b - v_x.
        terminals = np.stack((g, d, s))
        bulk = np.broadcast_to(b, terminals.shape)
        self._hi = np.where(nmos, terminals, bulk)
        self._lo = np.where(nmos, bulk, terminals)
        self._jac_cols = np.stack((g, d, s, b))
        # Ground columns of the equivalent current, zeroed before the
        # ordered sum (subtracting +0.0 changes no bit).
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

    @classmethod
    def stack(cls, circuits) -> "StampProgram":
        """One program for B circuits of one topology, cell by cell.

        The circuits must hold the same elements (classes, nodes and
        order, so the same contribution tables); their values may
        differ.  Each value array gains a leading cell axis in the
        order of ``circuits``.

        Raises
        ------
        NetlistError
            If the circuits do not share one topology.
        """
        programs = [cls(circuit) for circuit in circuits]
        if not programs:
            raise NetlistError("cannot stack zero circuits")
        first = programs[0]
        if len(programs) == 1:
            return first
        for other in programs[1:]:
            if not first._same_topology(other):
                raise NetlistError(
                    f"{other.circuit.summary()} does not share the "
                    f"topology of {first.circuit.summary()}")
        stacked = copy.copy(first)
        stacked.circuits = tuple(circuits)
        stacked._sources = sum((p._sources for p in programs), ())
        for name in _VALUES:
            setattr(stacked, name,
                    np.stack([getattr(p, name) for p in programs]))
        stacked._companions = {}
        return stacked

    def _same_topology(self, other: "StampProgram") -> bool:
        if (self.n, self._n_v, self._n_i) != (other.n, other._n_v,
                                               other._n_i):
            return False
        arrays = [(getattr(self, name), getattr(other, name))
                  for name in _TOPOLOGY]
        arrays += [pair for mine, theirs in zip(self._tables, other._tables)
                   for pair in zip(mine, theirs)]
        return all(np.array_equal(a, b) for a, b in arrays)

    @property
    def batch(self) -> int:
        """Number of cells B (1 for a program of one circuit)."""
        return len(self.circuits)

    def take(self, rows) -> "StampProgram":
        """The program of the cells ``rows`` of a stacked program."""
        part = copy.copy(self)
        part.circuits = tuple(self.circuits[row] for row in rows)
        part._sources = tuple(self._sources[row] for row in rows)
        for name in _VALUES:
            values = getattr(self, name)
            if values.ndim == 2:
                setattr(part, name, values[list(rows)])
        part._companions = {}
        return part

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
    # An iterate is ``(n,)`` or, for B cells, ``(B, n)``; the capacitor
    # state has the same leading axes.
    def _branch_voltages(self, x: np.ndarray) -> np.ndarray:
        xe = np.concatenate((x, np.zeros(x.shape[:-1] + (1,))), axis=-1)
        return xe[..., self._cap_nodes[0]] - xe[..., self._cap_nodes[1]]

    def _companion_conductance(self, coeff: IntegrationCoeff) -> tuple:
        """``(geq, -geq)`` of the capacitors, then the two as ``(n_c, B)``
        columns (:func:`_column`), cached per ``(method, dt)``."""
        key = (coeff.method, coeff.dt)
        pair = self._companions.get(key)
        if pair is None:
            if coeff.method == "be":
                geq = self._capacitance / coeff.dt
            else:
                geq = 2.0 * self._capacitance / coeff.dt
            pair = self._companions[key] = (
                geq, -geq, _column(geq), _column(-geq))
            for values in pair:
                values.flags.writeable = False
        return pair

    def initial_history(self, x: np.ndarray) -> tuple:
        """Capacitor state ``(v, i)`` at the t=0 solution (UIC: i = 0)."""
        v = self._branch_voltages(x)
        return v, np.zeros(v.shape)

    def advance(self, x: np.ndarray, coeff: IntegrationCoeff,
                history: tuple) -> tuple:
        """Capacitor state after an accepted step ending at ``x``."""
        return self._advance(self._branch_voltages(x), coeff, history)

    def _advance(self, v_new: np.ndarray, coeff: IntegrationCoeff,
                 history: tuple) -> tuple:
        v_prev, i_prev = history
        i_new = self._companion_conductance(coeff)[0] * (v_new - v_prev)
        if coeff.method != "be":
            i_new = i_new - i_prev
        return v_new, i_new

    # -- assemblers -----------------------------------------------------
    def stimuli(self) -> list:
        """Per cell, the independent sources' stimuli in RHS pool order:
        voltage sources, then current sources, each in netlist order."""
        return [[e.stimulus for e in sources] for sources in self._sources]

    def dc_assembler(self, t: float = 0.0, gmin: float = GMIN_FLOOR,
                     source_scale: float = 1.0):
        """Newton assembler ``x -> (A, z)`` of the DC system at time ``t``.

        Capacitors are open.  Source and non-source entries are summed
        separately and then combined, with the source RHS scaled by
        ``source_scale`` (the source-stepping homotopy).  The assembler
        owns its pools.  It maps one iterate ``(n,)`` to ``(A, z)``; the
        program must hold one circuit.
        """
        return single_cell(StampPools(self, gmin).assembler(
            t, None, None, source_scale, separate=True))

    def transient_assembler(self, t: float, coeff: IntegrationCoeff,
                            history: tuple, source_scale: float = 1.0):
        """Newton assembler of one companion-model step ending at ``t``.

        ``history`` is the capacitor state from :meth:`initial_history`
        or :meth:`advance`.  At ``source_scale`` 1 every entry is one
        ordered sum; otherwise the sources are summed apart and scaled.
        The assembler owns its pools.  It maps one iterate ``(n,)`` to
        ``(A, z)``; the program must hold one circuit.
        """
        return single_cell(StampPools(self).assembler(t, coeff, history,
                                                      source_scale))


def single_cell(assemble):
    """The one-cell form ``x (n,) -> (A, z)`` of a batch assembler,
    which it keeps as ``.batch`` for batch-native callers."""
    def single(x: np.ndarray):
        matrix, rhs = assemble(x[None])
        return matrix[0], rhs[0]
    single.batch = assemble
    return single


class StampPools:
    """The matrix and RHS value pools of a :class:`StampProgram`, plus a
    ground-padded iterate buffer, allocated once and refilled in place.

    The pools hold the B cells on their last axis, ``(slots, B)``, so a
    MOSFET row is one flat array over every device of every cell, and
    the EKV core runs on flat arrays as for one cell.  The padded
    iterates are ``(B, n + 1)``: each cell's unknowns, then the 0.0
    that ground reads.

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
    assembler they return, and a transient builds one pools object per
    batch, whose assemblers (the plain solve's, then the recovery
    ladder's for the same step, which differ only in the source scale)
    are done with before the next step refills it.
    """

    def __init__(self, program: StampProgram,
                 gmin: float = GMIN_FLOOR) -> None:
        self.program = program
        self.batch = batch = program.batch
        n_r = program._conductance.shape[-1]
        n_c = program._capacitance.shape[-1]
        n_m = program._n_mos
        n_v, n_i = program._n_v, program._n_i
        mat_static, rhs_static = program._mat_static, program._rhs_static
        # One array holds both pools, so one bincount sums a system.
        mat_rows = mat_static + 8 * n_m
        self._values = np.zeros((mat_rows + rhs_static + 2 * n_m, batch))
        mat, rhs = self._values[:mat_rows], self._values[mat_rows:]
        mat[_GMIN], mat[_PLUS_ONE], mat[_MINUS_ONE] = gmin, 1.0, -1.0
        mat[3:3 + n_r] = _column(program._conductance)
        np.negative(mat[3:3 + n_r], out=mat[3 + n_r:3 + 2 * n_r])
        # Views of whole rows of the C-ordered pools: the reshapes never
        # copy, so writes through them fill the pools.
        self._geq = mat[3 + 2 * n_r:mat_static].reshape(2, n_c, batch)
        self._stimuli = rhs[:n_v + n_i]
        self._currents = rhs[n_v:n_v + 2 * n_i].reshape(2, n_i, batch)
        self._ieq = rhs[n_v + 2 * n_i:rhs_static].reshape(2, n_c, batch)
        # MOSFET rows written in place each iterate: J, -J and -I_eq,
        # I_eq, each device-major over the cells.
        devices = n_m * batch
        self._jacobian = mat[mat_static:].reshape(8, devices)
        self._equivalent = rhs[rhs_static:].reshape(2, devices)
        self._xe = np.zeros((batch, program.n + 1))
        self._terms = np.empty((5, devices))
        # Device-major over the cells: a cell's own values, or values
        # every cell shares.
        self._constants = [
            values.T.ravel() if values.ndim == 2 else np.repeat(values, batch)
            for values in (program._vt0, program._slope, program._v_t,
                           program._i_spec)]
        self._sign = np.repeat(program._sign, batch)
        self._ground = np.repeat(program._ground_cols, batch, axis=-1)
        # Gathers index the flat buffers: a 1-D take is NumPy's fast
        # path, a 2-D array indexed on axis 0 is not.  Node k of cell b
        # is padded-iterate entry b * (n + 1) + k, ground k = n.
        stride = (program.n + 1) * np.arange(batch)
        self._hi, self._lo, self._jac_cols = (
            (np.where(rows == GROUND, program.n, rows)[..., None]
             + stride).reshape(len(rows), devices)
            for rows in (program._hi, program._lo, program._jac_cols))
        # Capacitor terminals, (B, n_c) per end like the capacitor state.
        self._cap_hi, self._cap_lo = (
            stride[:, None] + np.where(nodes == GROUND, program.n, nodes)
            for nodes in program._cap_nodes)
        self._mat_rows = mat_rows
        self._programs: dict = {}
        self._geq_source = None  # the companion values in the pools
        self._xe_flat = self._xe.ravel()
        self._values_flat = self._values.ravel()

    def _flat(self, slots: np.ndarray) -> np.ndarray:
        """Flat pool positions ``(*slots.shape, B)`` of the slots' cells:
        slot-major, the matrix pool first."""
        return slots[..., None] * self.batch + np.arange(self.batch)

    def _offsets(self, kinds: frozenset) -> tuple:
        """The program's ``(target, slot)`` pair of ``kinds`` for every
        cell, for one ``bincount`` over the pools' flat values: cell
        ``b`` sums into bin ``b * n * n + target`` of the matrix and
        ``B * n * n + b * n + target`` of the RHS."""
        n, batch = self.program.n, self.batch
        cells = np.arange(batch)
        (mat_target, mat_slot), (rhs_target, rhs_slot) = \
            self.program._program(kinds)
        return (
            np.concatenate((
                (mat_target[:, None] + n * n * cells).ravel(),
                (rhs_target[:, None] + n * cells).ravel() + batch * n * n)),
            np.concatenate((
                self._flat(mat_slot).ravel(),
                self._flat(rhs_slot + self._mat_rows).ravel())))

    def advance(self, x: np.ndarray, coeff: IntegrationCoeff,
                history: tuple) -> tuple:
        """:meth:`StampProgram.advance` of the cells' iterates ``(B, n)``,
        read through the padded-iterate buffer."""
        self._xe[:, :self.program.n] = x
        xe = self._xe_flat
        return self.program._advance(xe[self._cap_hi] - xe[self._cap_lo],
                                     coeff, history)

    def _accumulate(self, program: tuple) -> tuple:
        """Sum the pools into ``(A, z)`` of shapes ``(B, n, n)`` and
        ``(B, n)``, in stamp order.

        One ``bincount`` sums every matrix and RHS entry of every cell.
        A bin receives the contributions of one entry of one cell only,
        in the order of that cell's slots, so each cell's sums are the
        ones it gets alone."""
        target, slot = program
        n, batch = self.program.n, self.batch
        sums = np.bincount(target, self._values_flat[slot],
                           minlength=batch * n * (n + 1))
        split = batch * n * n
        return sums[:split].reshape(batch, n, n), sums[split:].reshape(
            batch, n)

    def _mosfet_values(self) -> None:
        """Write ``(J, -J)`` and ``(-I_eq, I_eq)`` in place at the
        ground-padded iterates."""
        xe = self._xe_flat
        jacobian, equivalent, terms = (self._jacobian, self._equivalent,
                                       self._terms)
        u = xe[self._hi] - xe[self._lo]
        i_core, dg, dd, ds = core_derivatives(*self._constants,
                                              u[0], u[1], u[2])
        jacobian[0], jacobian[1], jacobian[2] = dg, dd, ds
        np.negative(dg + dd + ds, out=jacobian[3])
        np.negative(jacobian[:4], out=jacobian[4:])
        # Equivalent current I - J_g x_g - J_d x_d - J_s x_s - J_b x_b,
        # subtracted in that order along axis 0.  A ground column's term
        # is +0.0, not J * 0.0, whose sign could flip a -0.0 current.
        np.multiply(self._sign, i_core, out=terms[0])
        np.multiply(jacobian[:4], xe[self._jac_cols], out=terms[1:])
        np.putmask(terms[1:], self._ground, 0.0)
        np.subtract.reduce(terms, axis=0, out=equivalent[1])
        np.negative(equivalent[1], out=equivalent[0])

    def assembler(self, t: float, coeff: IntegrationCoeff | None,
                  history: tuple | None, source_scale: float = 1.0,
                  separate: bool | None = None, stimuli=None):
        """Refill the pools for the time point ``t`` and return its
        Newton assembler ``x -> (A, z)`` over the cells: ``x`` is
        ``(B, n)``, ``A`` is ``(B, n, n)`` and ``z`` is ``(B, n)``.

        ``coeff is None`` assembles the DC system (capacitors open).
        ``separate`` sums the source entries apart and scales them by
        ``source_scale``; by default only when the scale is not 1.
        ``stimuli`` are the source values at ``t``, ``(sources, B)`` in
        :meth:`StampProgram.stimuli` order, when already evaluated;
        otherwise each stimulus is called at ``t`` now.
        """
        program = self.program
        if separate is None:
            separate = source_scale != 1.0
        programs = self._programs.get((coeff is None, separate))
        if programs is None:
            kinds = _ALL if coeff is not None else _ALL - {"capacitor"}
            parts = (kinds - _SOURCES, _SOURCES) if separate else (kinds,)
            programs = self._programs[coeff is None, separate] = [
                self._offsets(part) for part in parts]
        if coeff is not None:
            v_prev, i_prev = history
            _, _, geq, neg_geq = program._companion_conductance(coeff)
            if self._geq_source is not geq:
                self._geq[0], self._geq[1] = geq, neg_geq
                self._geq_source = geq
            ieq = self._ieq[0]
            np.multiply(neg_geq, _column(v_prev), out=ieq)
            if coeff.method != "be":
                np.subtract(ieq, _column(i_prev), out=ieq)
            np.negative(ieq, out=self._ieq[1])
        if stimuli is None:
            stimuli = np.array([[float(stimulus(t)) for stimulus in cell]
                                for cell in program.stimuli()]).T
        self._stimuli[:] = stimuli
        np.negative(self._currents[0], out=self._currents[1])

        xe = self._xe
        n, n_m = program.n, program._n_mos
        accumulate, mosfet_values = self._accumulate, self._mosfet_values

        def assemble(x: np.ndarray):
            if n_m:
                xe[:, :n] = x
                mosfet_values()
            if not separate:
                return accumulate(programs[0])
            (matrix, rhs), (source_matrix, source_rhs) = [
                accumulate(part) for part in programs]
            return matrix + source_matrix, rhs + source_scale * source_rhs

        return assemble


def _column(values: np.ndarray) -> np.ndarray:
    """Per-cell values ``(k,)`` (one cell) or ``(B, k)`` as ``(k, B)``."""
    return values[:, None] if values.ndim == 1 else values.T
