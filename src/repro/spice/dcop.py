"""DC operating point with gmin stepping and source stepping.

The DC solution is the Newton fixed point with capacitors open.  Two
continuation strategies ride on top of plain Newton, tried in order:

1. **gmin stepping** — a conductance from every node to ground starts
   large (making the system nearly linear) and is relaxed decade by
   decade, re-converging at each level from the previous solution.
2. **source stepping** — all independent sources are scaled from 0 to 1
   in ramping fractions, with plain Newton at each level.

A small floor gmin (1e-12 S) always remains, as in production SPICE,
so floating nodes (e.g. a capacitor-isolated gate) stay well posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from .circuit import Circuit
from .mna import GMIN_FLOOR, StampPools, StampProgram, single_cell
from .newton import NewtonOptions, solve_newton
from .sources import DC


@dataclass(frozen=True)
class DcSolution:
    """Result of a DC operating-point analysis.

    Attributes
    ----------
    voltages:
        Node name -> voltage [V].
    branch_currents:
        Branch name (``"i(V1)"``) -> current [A].
    x:
        The raw unknown vector (node voltages then branch currents).
    """

    voltages: dict
    branch_currents: dict
    x: np.ndarray

    def __getitem__(self, node: str) -> float:
        if node in self.voltages:
            return self.voltages[node]
        if node in self.branch_currents:
            return self.branch_currents[node]
        raise KeyError(node)


def dc_operating_point(circuit: Circuit, t: float = 0.0,
                       initial_guess: dict | None = None,
                       options: NewtonOptions | None = None) -> DcSolution:
    """Solve the DC operating point of a circuit.

    Parameters
    ----------
    circuit:
        The circuit to solve.
    t:
        Time at which source stimuli are evaluated (sources are frozen
        at this instant).
    initial_guess:
        Optional node-name -> voltage *nodeset* to seed Newton (useful
        to pick a branch of a bistable circuit).
    options:
        Newton tolerances.

    Raises
    ------
    ConvergenceError
        If plain Newton, gmin stepping and source stepping all fail.
    """
    return _solve(circuit, _compile(circuit), t, initial_guess, options, {})


def dc_sweep(circuit: Circuit, source, values,
             initial_guess: dict | None = None) -> list:
    """DC operating points with one source stepped through ``values``.

    ``source`` is an element of ``circuit`` whose stimulus is set to
    ``DC(value)`` for each point (and left at the last one).  Each point
    is exactly :func:`dc_operating_point`, with all three strategies,
    seeded from the previous point's node voltages (the first from
    ``initial_guess``); the circuit is compiled, and its pools are
    allocated, once for the whole sweep, because an assembler reads the
    stimuli each time it is built.  Returns one :class:`DcSolution` per
    value.
    """
    program = _compile(circuit)
    pools: dict = {}
    solutions = []
    guess = initial_guess
    for value in values:
        source.stimulus = DC(float(value))
        solution = _solve(circuit, program, 0.0, guess, None, pools)
        solutions.append(solution)
        guess = dict(solution.voltages)
    return solutions


def _compile(circuit: Circuit) -> StampProgram:
    """The circuit's stamp program; a circuit with no unknowns raises."""
    program = StampProgram(circuit)
    if program.n == 0:
        raise ConvergenceError("circuit has no unknowns")
    return program


def _solve(circuit: Circuit, program: StampProgram, t: float,
           initial_guess: dict | None, options: NewtonOptions | None,
           pools: dict) -> DcSolution:
    """Plain Newton, then gmin stepping, then source stepping.

    ``pools`` keeps one :class:`StampPools` per gmin for the analysis:
    each solve is done with its assembler before the next is built.
    """
    x0 = program.unknown_vector(initial_guess)

    def dc_assembler(gmin: float = GMIN_FLOOR, source_scale: float = 1.0):
        if gmin not in pools:
            pools[gmin] = StampPools(program, gmin)
        return single_cell(pools[gmin].assembler(
            t, None, None, source_scale, separate=True))

    # Strategy 1: plain Newton with the floor gmin.
    try:
        x = solve_newton(dc_assembler(), x0, options)
        return _package(circuit, x)
    except ConvergenceError:
        pass

    # Strategy 2: gmin stepping.
    x = x0
    try:
        for exponent in range(3, 13):
            gmin = 10.0 ** (-exponent)
            x = solve_newton(dc_assembler(gmin), x, options)
        return _package(circuit, x)
    except ConvergenceError:
        pass

    # Strategy 3: source stepping.
    x = x0
    last_error = None
    for scale in np.linspace(0.1, 1.0, 10):
        try:
            x = solve_newton(dc_assembler(source_scale=float(scale)),
                             x, options)
        except ConvergenceError as exc:
            last_error = exc
            break
    else:
        return _package(circuit, x)
    raise ConvergenceError(
        f"DC operating point failed for {circuit.summary()}"
    ) from last_error


def _package(circuit: Circuit, x: np.ndarray) -> DcSolution:
    voltages = {name: float(x[index])
                for index, name in enumerate(circuit.node_names)}
    currents = {}
    for element in circuit.elements:
        if element.num_branches:
            currents[f"i({element.name})"] = float(x[element.branch_index])
    return DcSolution(voltages=voltages, branch_currents=currents, x=x)
