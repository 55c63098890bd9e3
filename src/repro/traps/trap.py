"""The description of a single oxide trap."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ModelError


@dataclass(frozen=True)
class Trap:
    """One oxide trap (paper §II-A).

    Attributes
    ----------
    y_tr:
        Vertical distance from the oxide-semiconductor interface [m];
        must be positive (a trap at exactly the interface would have an
        unbounded propensity sum) and is expected to lie within the
        oxide thickness of the device it is attached to.
    e_tr:
        Trap energy level [eV], referenced to the substrate Fermi level
        at flat band.  The bias-dependent offset ``E_T - E_F`` of paper
        Eq. 2 is computed from this by :mod:`repro.traps.band`.
    degeneracy:
        The degeneracy factor ``g`` of paper Eq. 2.
    label:
        Optional identifier used in reports.
    """

    y_tr: float
    e_tr: float
    degeneracy: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.y_tr <= 0.0:
            raise ModelError(f"trap depth y_tr must be positive, got {self.y_tr}")
        if self.degeneracy <= 0.0:
            raise ModelError(
                f"degeneracy must be positive, got {self.degeneracy}")
