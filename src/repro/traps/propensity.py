"""Paper Eqs. (1)-(2): trap propensities from bias.

- Eq. (1): ``lambda_c(t) + lambda_e(t) = 1 / (tau0 * exp(gamma * y_tr))``
  — a *constant* sum, set by the trap depth alone.  This is what makes
  the propensity sum itself the exact uniformisation bound in paper
  Algorithm 1 (its line 3).
- Eq. (2): ``beta(t) = lambda_e/lambda_c = g * exp((E_T - E_F)|_t / kT)``
  — the bias-dependent ratio, via :mod:`repro.traps.band`.

Solving the two for the individual rates:

``lambda_c = S * sigmoid(-ln beta)``, ``lambda_e = S * sigmoid(+ln beta)``

which is numerically safe for arbitrarily large ``|E_T - E_F|/kT``.
"""

from __future__ import annotations

import math

import numpy as np

from ..constants import thermal_energy_ev
from ..devices.ekv import expit
from ..devices.technology import Technology
from ..errors import ModelError
from ..markov.batch import grid_coordinates
from ..markov.propensity import checked_rate_grid, make_propensity
from .band import trap_energy_offset
from .trap import Trap, TrapPopulation


def propensity_sum(trap: Trap, tech: Technology) -> float:
    """Return ``lambda_c + lambda_e = 1/(tau0 e^{gamma y_tr})`` [1/s] (Eq. 1)."""
    if trap.y_tr > tech.t_ox:
        raise ModelError(
            f"trap depth {trap.y_tr:g} m exceeds oxide thickness "
            f"{tech.t_ox:g} m"
        )
    return 1.0 / (tech.tau0 * math.exp(tech.gamma_tunnel * trap.y_tr))


def _checked_bias(v_gs) -> np.ndarray:
    """``v_gs`` as a float array; NaN/inf would give NaN rate columns."""
    v_gs = np.asarray(v_gs, dtype=float)
    if not np.all(np.isfinite(v_gs)):
        raise ModelError("gate bias must be finite")
    return v_gs


def log_beta_from_bias(v_gs, trap: Trap, tech: Technology):
    """Return ``ln beta = ln g + (E_T - E_F)/kT`` at bias ``v_gs`` (Eq. 2).

    A non-finite bias raises :class:`~repro.errors.ModelError`, here and
    in :func:`rates_from_bias` and :func:`equilibrium_occupancy`.
    """
    kt_ev = thermal_energy_ev(tech.temperature)
    offset = trap_energy_offset(_checked_bias(v_gs), trap, tech)
    result = math.log(trap.degeneracy) + np.asarray(offset) / kt_ev
    return result if np.ndim(v_gs) else float(result)


def rates_from_bias(v_gs, trap: Trap, tech: Technology):
    """Return ``(lambda_c, lambda_e)`` [1/s] at bias ``v_gs`` (Eqs. 1-2).

    Vectorised over ``v_gs``; the two arrays always sum to
    :func:`propensity_sum` exactly (up to rounding), for any bias.
    """
    total = propensity_sum(trap, tech)
    log_beta = np.asarray(log_beta_from_bias(v_gs, trap, tech))
    lambda_c = total * expit(-log_beta)
    lambda_e = total * expit(log_beta)
    if np.ndim(v_gs):
        return lambda_c, lambda_e
    return float(lambda_c), float(lambda_e)


def equilibrium_occupancy(v_gs, trap: Trap, tech: Technology):
    """Return the would-be stationary filled probability ``1/(1+beta)``.

    This is the occupancy the trap relaxes towards if the bias were
    frozen at ``v_gs`` — used to draw physically sensible initial trap
    states.
    """
    log_beta = np.asarray(log_beta_from_bias(v_gs, trap, tech))
    result = expit(-log_beta)
    return result if np.ndim(v_gs) else float(result)


def _trap_constants(traps, tech: Technology) -> tuple:
    """Per-trap ``(e_tr, y_tr/t_ox, ln g, Eq.-(1) sum)``, each ``(K,)``.

    Read from the population's columns; a list of :class:`Trap` is
    converted to a :class:`TrapPopulation` first.
    """
    population = TrapPopulation.from_traps(traps)
    y = population.y_tr
    if np.any(y > tech.t_ox):
        raise ModelError("trap depth exceeds oxide thickness")
    totals = 1.0 / (tech.tau0 * np.exp(tech.gamma_tunnel * y))
    return (population.e_tr, y / tech.t_ox, np.log(population.degeneracy),
            totals)


def _bias_terms(v_gs: np.ndarray, tech: Technology) -> tuple:
    """Per-sample ``(psi_s, v_ox)``: the one surface-potential solve."""
    from .band import surface_potential

    psi = surface_potential(v_gs, tech)
    return psi, v_gs - tech.v_fb - psi


def _rates(e_tr, depth, log_g, totals, psi, v_ox, kt_ev) -> tuple:
    """Eqs. (1)-(2) on broadcastable per-trap and per-sample terms.

    The one body of the rate arithmetic: the dense table broadcasts
    ``(K, 1)`` traps against ``(M,)`` samples, the lazy table gathers
    both at ``(trap, column)`` pairs, with the same float operations.
    """
    offset = e_tr - psi - depth * v_ox
    log_beta = log_g + offset / kt_ev
    return totals * expit(-log_beta), totals * expit(log_beta)


def rates_for_population(v_gs, traps, tech: Technology
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Rates of a whole trap population: the dense Eq.-(1)/(2) table.

    All traps of a transistor see the same gate drive, so the
    surface-potential solve (the expensive part) is done once per bias
    sample and the per-trap energy offsets broadcast over the
    population.  A scalar ``v_gs`` gives ``(lambda_c, lambda_e)`` arrays
    of shape ``(K,)``; a waveform of shape ``(M,)`` gives ``(K, M)``
    tables whose column ``j`` equals the scalar call at ``v_gs[j]`` bit
    for bit.  Rates agree with :func:`rates_from_bias` per trap to
    rounding.  A non-finite bias raises :class:`~repro.errors.ModelError`.
    """
    v_gs = _checked_bias(v_gs)
    if not traps:
        return np.zeros((0,) + v_gs.shape), np.zeros((0,) + v_gs.shape)
    constants = _trap_constants(traps, tech)
    # Trap axis first; the bias axis (if any) broadcasts behind it.
    per_trap = (slice(None),) + (None,) * v_gs.ndim
    return _rates(*(c[per_trap] for c in constants),
                  *_bias_terms(v_gs, tech),
                  thermal_energy_ev(tech.temperature))


class PopulationRateTable:
    """A population's Eq.-(1)/(2) rates on a bias grid, evaluated on demand.

    The lazy rate table of :func:`population_propensity`.  It stores
    only per-trap constants of shape ``(K,)`` (``e_tr``, ``y_tr/t_ox``,
    ``ln g`` and the Eq.-(1) sum) and per-sample bias terms of shape
    ``(M,)`` (``psi_s`` and ``v_ox``, from one surface-potential solve),
    and evaluates the rates at ``(trap, column)`` pairs.  Every value
    equals the dense :func:`rates_for_population` table's entry bit for
    bit.  It has the kernel interface of
    :class:`~repro.markov.batch.BatchPropensity`: the batched sweep
    reads rates only at the grid columns around its candidates, and
    :meth:`single` builds one trap's row for the scalar kernel.
    """

    def __init__(self, traps, tech: Technology, times, v_gs) -> None:
        (times,) = checked_rate_grid(times)
        v_gs = _checked_bias(v_gs)
        if v_gs.shape != times.shape:
            raise ModelError(
                f"v_gs shape {v_gs.shape} does not match times {times.shape}")
        self.times = times
        (self._e_tr, self._depth, self._log_g,
         self._totals) = _trap_constants(traps, tech)
        self._psi, self._v_ox = _bias_terms(v_gs, tech)
        self._kt_ev = thermal_energy_ev(tech.temperature)

    @property
    def n_traps(self) -> int:
        """Number of traps in the table."""
        return int(self._totals.size)

    def rate_sums(self) -> np.ndarray:
        """The exact Eq.-(1) sums ``1/(tau0 e^{gamma y_tr})``, shape ``(K,)``."""
        return self._totals

    def _sum_info(self) -> tuple[np.ndarray, bool]:
        """``(per-trap sum, every row is constant)``: always constant."""
        return self._totals, True

    def grid_coordinates(self, t: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`repro.markov.batch.grid_coordinates` on this grid."""
        return grid_coordinates(self.times, t)

    def rates_at(self, rows: np.ndarray, cols: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """``(lambda_c, lambda_e)`` of traps ``rows`` at samples ``cols``."""
        return _rates(self._e_tr[rows], self._depth[rows], self._log_g[rows],
                      self._totals[rows], self._psi[cols], self._v_ox[cols],
                      self._kt_ev)

    def capture_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Capture rates at ``(trap, grid column)`` pairs."""
        return self.rates_at(rows, cols)[0]

    def emission_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Emission rates at ``(trap, grid column)`` pairs."""
        return self.rates_at(rows, cols)[1]

    def single(self, index: int):
        """Trap ``index``'s row as a scalar-kernel propensity object."""
        cols = np.arange(self.times.size)
        capture, emission = self.rates_at(np.full(cols.size, index), cols)
        return make_propensity(times=self.times, capture_values=capture,
                               emission_values=emission)

    def equilibrium(self, column: int) -> np.ndarray:
        """Every trap's equilibrium filled probability at one bias sample.

        ``lambda_c / (lambda_c + lambda_e)`` at grid column ``column``,
        shape ``(K,)``: the :func:`equilibrium_occupancy_population` of
        that sample's bias, bit for bit, with no further
        surface-potential solve.
        """
        return _equilibrium(*_rates(
            self._e_tr, self._depth, self._log_g, self._totals,
            self._psi[column], self._v_ox[column], self._kt_ev))


def _equilibrium(lam_c: np.ndarray, lam_e: np.ndarray) -> np.ndarray:
    """Stationary filled probability ``lambda_c / (lambda_c + lambda_e)``."""
    if lam_c.size == 0:
        return lam_c
    return lam_c / (lam_c + lam_e)


def equilibrium_occupancy_population(v_gs: float, traps,
                                     tech: Technology) -> np.ndarray:
    """Equilibrium filled probabilities of a whole population at one bias.

    Vectorised companion of :func:`equilibrium_occupancy` (one
    surface-potential solve for the population).
    """
    return _equilibrium(*rates_for_population(v_gs, traps, tech))


def draw_initial_states(filled: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw each trap's initial state from its equilibrium occupancy.

    ``filled`` holds every trap's filled probability at the
    pre-stimulus bias: :meth:`PopulationRateTable.equilibrium` at
    column 0 of the run's rate table (no further surface-potential
    solve), or :func:`equilibrium_occupancy_population` of a bias.
    Starting traps at the stationary occupancy avoids an artificial
    relaxation transient at ``t = 0``.  Consumes one uniform per trap,
    in population order (``rng.random(K)`` is the same stream as ``K``
    scalar draws); returns 0/1 as ``int8``.
    """
    return (rng.random(filled.size) < filled).astype(np.int8)


def population_propensity(traps, tech: Technology, times: np.ndarray,
                          v_gs: np.ndarray) -> PopulationRateTable:
    """Build the rate table of a whole population under one bias waveform.

    The lazy :class:`PopulationRateTable`: one surface-potential solve
    on the waveform's samples, rates evaluated where they are read.
    :func:`repro.markov.batch.simulate_traps_batch` takes it whole and
    reads rates only around its candidates; :meth:`~PopulationRateTable.single`
    hands one trap's row to the scalar kernel.  Every row has the
    constant Eq.-(1) sum, which is the exact uniformisation bound.

    Parameters
    ----------
    traps:
        The trap population (possibly empty): a :class:`TrapPopulation`
        or a list of :class:`Trap`.
    tech:
        Host technology card.
    times:
        Strictly increasing, finite bias sample times [s], shape ``(M,)``.
    v_gs:
        Finite gate-source bias samples [V], same length as ``times``.
    """
    return PopulationRateTable(traps, tech, times, v_gs)
