"""SPICE-level oracles: conservation laws and cell physics.

The circuit simulator underneath the paper's methodology has its own
mechanically checkable invariants, independent of any stochastic law:

- a converged operating point satisfies KCL — re-assembling the MNA
  system at the solution must leave a ~zero residual;
- a transient cannot create charge — the charge delivered by a current
  source into a capacitor equals ``C * delta V``;
- linear circuits have closed forms — an RC discharge must follow its
  exponential;
- the 6T cell is bistable at hold bias — the DC solve must find two
  distinct stable states (the physical substrate of paper Fig. 8's
  write-error analysis).

These checks guard the *deterministic* half of the pipeline, so a
kernel refactor that accidentally bends the circuit layer (rather than
the stochastic layer) is caught by tier-1 without any statistics.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError
from ..spice.circuit import Circuit
from ..spice.dcop import dc_operating_point
from ..spice.elements import Capacitor, CurrentSource, Resistor
from ..spice.mna import GMIN_FLOOR, StampProgram
from ..spice.sources import DC
from ..spice.transient import simulate_transient
from .result import CheckResult

__all__ = [
    "check_dcop_kcl",
    "check_sram_bistability",
    "check_transient_charge_conservation",
    "check_transient_rc_analytic",
]


def check_dcop_kcl(circuit: Circuit, t: float = 0.0,
                   initial_guess: dict | None = None,
                   tol: float = 1e-6) -> CheckResult:
    """KCL residual of a DC operating point.

    Solves the operating point, re-assembles the Newton system at the
    solution and reports the worst-case residual ``|A(x) x - b(x)|``
    (amps on node rows, volts on branch rows).  A converged fixed point
    must satisfy it to solver tolerance.
    """
    solution = dc_operating_point(circuit, t=t, initial_guess=initial_guess)
    program = StampProgram(circuit)
    n = program.n
    matrix, rhs = program.dc_assembler(t)(solution.x)
    residual = float(np.max(np.abs(matrix @ solution.x - rhs)))
    return CheckResult.from_bound(
        "spice.dcop_kcl_residual", residual, tol,
        detail=f"{circuit.summary()}, {n} unknowns")


def check_sram_bistability(spec=None, min_separation: float = 0.8,
                           rail_tol: float = 0.15) -> CheckResult:
    """DC-op bistability of the 6T cell at hold bias.

    Solves the cell's operating point from both nodesets (Q high and Q
    low).  A healthy cell yields two distinct solutions with Q and QB
    near complementary rails; a cell whose device models or solver
    regressed collapses both solves onto one state.

    ``min_separation`` and ``rail_tol`` are fractions of the supply.
    """
    from ..sram.cell import SramCellSpec, build_sram_cell

    spec = spec or SramCellSpec()
    vdd = spec.supply
    solutions = []
    for bit in (1, 0):
        cell = build_sram_cell(spec)
        q = vdd if bit else 0.0
        try:
            sol = dc_operating_point(
                cell.circuit,
                initial_guess={"q": q, "qb": vdd - q, "vdd": vdd})
        except ConvergenceError as exc:
            return CheckResult.from_bound(
                "spice.sram_bistability", float("inf"), min_separation,
                detail=f"DC solve failed for bit={bit}: {exc}")
        solutions.append((sol["q"], sol["qb"]))

    (q_hi, qb_hi), (q_lo, qb_lo) = solutions
    separation = abs(q_hi - q_lo) / vdd
    worst_rail = max(abs(q_hi - vdd), abs(qb_hi), abs(q_lo),
                     abs(qb_lo - vdd)) / vdd
    passed = separation >= min_separation and worst_rail <= rail_tol
    return CheckResult(
        name="spice.sram_bistability", passed=passed,
        statistic=separation, threshold=min_separation, kind="exact",
        detail=(f"Q {q_lo:.3f}/{q_hi:.3f} V, rail error "
                f"{worst_rail * 100:.1f}% of Vdd"),
        extras={"q_high": q_hi, "q_low": q_lo, "qb_high": qb_hi,
                "qb_low": qb_lo, "worst_rail_fraction": worst_rail})


def check_transient_charge_conservation(current: float = 1e-6,
                                        capacitance: float = 1e-12,
                                        t_stop: float = 1e-6,
                                        steps: int = 200,
                                        tol: float = 1e-4) -> CheckResult:
    """Charge conservation: ``C * dV`` equals the injected charge.

    Drives a lone capacitor with a DC current source through a full
    transient and compares the accumulated capacitor charge against
    ``I * t_stop``.  The only legitimate loss is the ``GMIN_FLOOR``
    leak, orders of magnitude below ``tol``; any integrator bug that
    creates or destroys charge shows up directly.
    """
    circuit = Circuit(title="charge-conservation probe")
    CurrentSource("IIN", circuit, "0", "top", DC(current))
    Capacitor("CL", circuit, "top", "0", capacitance)
    wave = simulate_transient(circuit, t_stop, t_stop / steps)
    v = wave["top"]
    delivered = current * t_stop
    stored = capacitance * (v[-1] - v[0])
    # First-order bound on the sanctioned gmin leak (subtracted so the
    # check tests the integrator, not the floor conductance).
    leak = GMIN_FLOOR * float(
        np.sum(np.diff(wave.times) * (v[1:] + v[:-1]) / 2.0))
    error = abs(stored + leak - delivered) / delivered
    return CheckResult.from_bound(
        "spice.charge_conservation", error, tol,
        detail=(f"I={current:g}A into C={capacitance:g}F for "
                f"{t_stop:g}s ({steps} steps)"),
        stored=stored, delivered=delivered, gmin_leak=leak)


def check_transient_rc_analytic(resistance: float = 1e3,
                                capacitance: float = 1e-9,
                                v_initial: float = 1.0,
                                time_constants: float = 3.0,
                                steps_per_tau: int = 100,
                                tol: float = 2e-3) -> CheckResult:
    """RC discharge vs the closed form ``V0 * exp(-t/RC)``.

    A pure source-free RC has an exact solution; the trapezoidal
    integrator must track it to its O(dt^2) accuracy.  ``tol`` bounds
    the worst absolute error as a fraction of ``V0`` and includes
    headroom for the backward-Euler start-up steps.
    """
    tau = resistance * capacitance
    circuit = Circuit(title="RC analytic probe")
    Resistor("R1", circuit, "top", "0", resistance)
    Capacitor("CL", circuit, "top", "0", capacitance)
    t_stop = time_constants * tau
    wave = simulate_transient(circuit, t_stop, tau / steps_per_tau,
                              initial_voltages={"top": v_initial})
    expected = v_initial * np.exp(-wave.times / tau)
    error = float(np.max(np.abs(wave["top"] - expected))) / abs(v_initial)
    return CheckResult.from_bound(
        "spice.rc_analytic", error, tol,
        detail=(f"tau={tau:g}s, {time_constants:g} tau window, "
                f"{steps_per_tau} steps/tau"))
