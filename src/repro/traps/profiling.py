"""Statistical trap profiling (paper ref [6], used in §IV-B).

The paper obtains trap profiles "either ... from measurement data [7] or
generated using statistical trap profiling models proposed in the
literature [6]"; its own SRAM experiments use the statistical model.  We
implement that route:

- The trap *count* of a device is Poisson with mean
  ``N_t * W * L * t_ox * dE`` (trap density times gate-stack volume
  times the sampled energy window).
- Trap *depths* are uniform through the oxide.  Because the propensity
  sum is ``exp(-gamma y)``-distributed in depth, a uniform depth yields
  log-uniform time constants — the classic construction under which many
  superposed Lorentzians produce a 1/f spectrum (Fig. 3 left).
- Trap *energies* are sampled uniformly in the window swept by the
  Fermi level across the device's bias swing (plus a margin), so every
  sampled trap is *active* — it toggles somewhere inside
  ``[0, V_dd]`` — matching the paper's "only about 5-10 traps are
  active at any given bias point" for scaled nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..devices.technology import Technology
from ..errors import ModelError
from .band import surface_potential
from .propensity import propensity_sum
from .trap import TrapPopulation


@lru_cache(maxsize=None)
def _band_points(tech: Technology) -> tuple[float, float, float, float]:
    """(psi_s, V_ox) at v_gs = 0 and at v_gs = V_dd, cached per card.

    The surface potential is depth-independent, so the two solves here
    serve every trap the profiler ever samples for this technology —
    the crossing energy at depth y is just
    ``psi + (y/t_ox) * V_ox`` (see :func:`repro.traps.band.crossing_energy`).
    """
    psi_low = surface_potential(0.0, tech)
    psi_high = surface_potential(tech.vdd, tech)
    return (psi_low, 0.0 - tech.v_fb - psi_low,
            psi_high, tech.vdd - tech.v_fb - psi_high)


@dataclass(frozen=True)
class TrapProfiler:
    """Sampler of per-device trap populations for one technology.

    Attributes
    ----------
    technology:
        The node whose density/geometry parameters drive the sampler.
    energy_margin:
        Extra energy band [eV] added on both sides of the active window,
        admitting traps that only partially toggle at the bias extremes.
    depth_fraction_min:
        Traps shallower than this fraction of ``t_ox`` are excluded:
        their propensity sums are so large that they average out within
        any circuit time step (and they would dominate simulation cost
        for no observable effect).
    max_rate:
        Optional hard cap [1/s] on a sampled trap's propensity sum;
        traps faster than this are re-drawn deeper.  ``None`` disables
        the cap.
    """

    technology: Technology
    energy_margin: float = 0.1
    depth_fraction_min: float = 0.02
    max_rate: float | None = None

    def __post_init__(self) -> None:
        if self.energy_margin < 0.0:
            raise ModelError("energy_margin must be non-negative")
        if not 0.0 < self.depth_fraction_min < 1.0:
            raise ModelError(
                "depth_fraction_min must lie strictly between 0 and 1")
        if self.max_rate is not None and self.max_rate <= 0.0:
            raise ModelError("max_rate must be positive when given")

    # ------------------------------------------------------------------
    def expected_count(self, width: float, length: float) -> float:
        """Poisson mean of the trap count for a ``W x L`` device."""
        return self.technology.expected_trap_count(width, length)

    def depth_bounds(self) -> tuple[float, float]:
        """Return the (min, max) sampled trap depth [m]."""
        tech = self.technology
        y_min = self.depth_fraction_min * tech.t_ox
        if self.max_rate is not None:
            # propensity_sum = 1/(tau0 e^{gamma y}) <= max_rate requires
            # y >= ln(1/(tau0 max_rate)) / gamma.
            y_rate = np.log(1.0 / (tech.tau0 * self.max_rate)) / tech.gamma_tunnel
            y_min = max(y_min, y_rate)
        if y_min >= tech.t_ox:
            raise ModelError(
                "depth constraints leave no admissible trap depth range")
        return y_min, tech.t_ox

    def energy_bounds(self, y_tr: float) -> tuple[float, float]:
        """Return the active energy window [eV] for a trap at depth ``y_tr``.

        The window spans the Fermi-crossing energies at ``v_gs = 0`` and
        ``v_gs = V_dd``, widened by ``energy_margin`` on each side.  An
        array of depths gives arrays of bounds.
        """
        tech = self.technology
        if not np.all((0.0 < y_tr) & (y_tr <= tech.t_ox)):
            raise ModelError(
                f"trap depth must lie in (0, t_ox], got {y_tr} m")
        return self._energy_window(y_tr)

    def _energy_window(self, y_tr):
        """:meth:`energy_bounds` of depths already known to be valid."""
        tech = self.technology
        psi_low, vox_low, psi_high, vox_high = _band_points(tech)
        fraction = y_tr / tech.t_ox
        e_low = psi_low + fraction * vox_low - self.energy_margin
        e_high = psi_high + fraction * vox_high + self.energy_margin
        return e_low, e_high

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, width: float, length: float,
               label_prefix: str = "trap") -> TrapPopulation:
        """Draw one device's trap population.

        Returns a (possibly empty) :class:`TrapPopulation`, columns of
        depths and energies; the count is Poisson with the density-based
        mean.
        """
        count = int(rng.poisson(self.expected_count(width, length)))
        return self.sample_fixed_count(rng, count, label_prefix=label_prefix)

    def sample_fixed_count(self, rng: np.random.Generator, count: int,
                           label_prefix: str = "trap") -> TrapPopulation:
        """Draw exactly ``count`` traps (for controlled experiments)."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        y_min, y_max = self.depth_bounds()
        # Interleaved (depth, energy) draws: the same stream and float64
        # `low + (high - low) * u` as one rng.uniform per value.
        u = rng.random(2 * count)
        y_tr = y_min + (y_max - y_min) * u[0::2]
        # Every depth lies in [y_min, t_ox] by construction.
        e_low, e_high = self._energy_window(y_tr)
        e_tr = e_low + (e_high - e_low) * u[1::2]
        # Valid by construction: every depth is positive, g = 1.
        return TrapPopulation._adopt(y_tr, e_tr, np.ones(count),
                                     label_prefix)

    def summarise(self, traps) -> dict:
        """Return summary statistics of a trap population (for reports)."""
        tech = self.technology
        if not traps:
            return {"count": 0, "rate_min": None, "rate_max": None}
        rates = [propensity_sum(trap, tech) for trap in traps]
        return {
            "count": len(traps),
            "rate_min": min(rates),
            "rate_max": max(rates),
            "depth_min": min(t.y_tr for t in traps),
            "depth_max": max(t.y_tr for t in traps),
            "energy_min": min(t.e_tr for t in traps),
            "energy_max": max(t.e_tr for t in traps),
        }
