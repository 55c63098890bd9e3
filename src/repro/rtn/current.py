"""RTN current amplitude models (paper §II-C).

Given a device's trap occupancy function, these models map it to a noise
current.  The paper's default is Eq. (3) (van der Ziel [19]):

``I_RTN(t) = I_d(t) / (W L N(t)) * N_filled(t)``

i.e. each filled trap removes one carrier's worth of conduction.  The
paper notes that "more complex models have also been suggested (e.g.
[20]) which, if needed, can be incorporated into SAMURAI just as
easily"; we implement that too: the Hung-et-al. model adds the
correlated mobility-fluctuation term, multiplying the per-trap amplitude
by ``(1 + alpha_sc * mu * N)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..devices.mosfet import MosfetParams
from ..devices.noise import carrier_number_density
from ..errors import ModelError

#: Default Coulomb-scattering coefficient for the Hung model [V s].
#: Chosen so the mobility term is comparable to the number term for an
#: on-state 90 nm device, as reported for deep-submicron MOSFETs.
DEFAULT_ALPHA_SC = 1.0e-15


@runtime_checkable
class RtnAmplitudeModel(Protocol):
    """Protocol: per-filled-trap RTN current amplitude at a bias point."""

    def amplitude(self, params: MosfetParams, v_gs, i_d):
        """Return the current step of one filled trap [A], vectorised."""
        ...


@dataclass(frozen=True)
class VanDerZielModel:
    """Paper Eq. (3): pure carrier-number fluctuation.

    ``delta_I = I_d / (W L N)`` — one filled trap removes one carrier
    out of ``W L N``.
    """

    def amplitude(self, params: MosfetParams, v_gs, i_d):
        i_d = np.abs(np.asarray(i_d, dtype=float))
        density = carrier_number_density(params, v_gs)
        result = i_d / (params.area * density)
        return result if (np.ndim(v_gs) or np.ndim(i_d)) else float(result)


@dataclass(frozen=True)
class HungModel:
    """Hung et al. [20]: number fluctuation plus correlated mobility term.

    ``delta_I = I_d / (W L N) * (1 + alpha_sc * mu * N)``

    The second term models the scattering-rate change caused by the
    trapped charge; it grows with carrier density, so it matters most in
    strong inversion.
    """

    alpha_sc: float = DEFAULT_ALPHA_SC

    def __post_init__(self) -> None:
        if self.alpha_sc < 0.0:
            raise ModelError(
                f"alpha_sc must be non-negative, got {self.alpha_sc}")

    def amplitude(self, params: MosfetParams, v_gs, i_d):
        i_d = np.abs(np.asarray(i_d, dtype=float))
        density = carrier_number_density(params, v_gs)
        number_term = i_d / (params.area * density)
        mobility_factor = 1.0 + self.alpha_sc * params.mobility * density
        result = number_term * mobility_factor
        return result if (np.ndim(v_gs) or np.ndim(i_d)) else float(result)


def rtn_current_samples(model: RtnAmplitudeModel, params: MosfetParams,
                        v_gs: np.ndarray, i_d: np.ndarray,
                        n_filled: np.ndarray) -> np.ndarray:
    """Evaluate ``I_RTN`` on a grid from bias samples and a filled count.

    ``v_gs`` and ``i_d`` share one shape ``(M,)``; ``n_filled`` has that
    shape too, or is a block ``(C, M)`` of counts of ``C`` devices that
    share the biases.  The result is ``amplitude(v_gs, i_d) * n_filled``
    elementwise (paper Eq. 3 with its ``N_filled(t)`` factor); the
    amplitude is evaluated once and broadcast over a block's rows, so
    each row equals that row's own call bit for bit.
    """
    v_gs = np.asarray(v_gs, dtype=float)
    i_d = np.asarray(i_d, dtype=float)
    n_filled = np.asarray(n_filled, dtype=float)
    if v_gs.shape != i_d.shape or n_filled.shape not in (
            v_gs.shape, n_filled.shape[:1] + v_gs.shape):
        raise ModelError(
            f"shape mismatch: v_gs {v_gs.shape}, i_d {i_d.shape}, "
            f"n_filled {n_filled.shape}"
        )
    if np.any(n_filled < 0.0):
        raise ModelError("n_filled must be non-negative")
    return np.asarray(model.amplitude(params, v_gs, i_d)) * n_filled
