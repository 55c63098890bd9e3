"""The description of oxide traps: one :class:`Trap`, or a device's
whole population as columns (:class:`TrapPopulation`)."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, eq=False)
class TrapPopulation(Sequence):
    """A device's traps as columns: one entry per trap (paper §II-A).

    What the statistical profiler samples and what the population rate
    table reads.  The constructor copies the columns, validates them in
    one pass with the rules of :class:`Trap` and stores them as
    read-only arrays.  The object is
    also a read-only sequence of :class:`Trap` (``len``, index, slice,
    iteration, ``==`` against a list), built only on access: trap ``i``
    is labelled ``f"{label_prefix}{i}"``, and a slice is a list.

    Attributes
    ----------
    y_tr:
        Trap depths [m], shape ``(K,)``, each positive.
    e_tr:
        Trap energies [eV], shape ``(K,)``.
    degeneracy:
        Degeneracy factors ``g``, shape ``(K,)``, each positive; a
        scalar is broadcast to every trap.
    label_prefix:
        Stem of the per-trap labels.
    """

    y_tr: np.ndarray
    e_tr: np.ndarray
    degeneracy: np.ndarray = 1.0
    label_prefix: str = "trap"

    def __post_init__(self) -> None:
        y_tr = np.array(self.y_tr, dtype=float)
        e_tr = np.array(self.e_tr, dtype=float)
        if y_tr.ndim != 1 or e_tr.shape != y_tr.shape:
            raise ModelError(
                f"expected 1-D y_tr and e_tr of one length, got shapes "
                f"{y_tr.shape} and {e_tr.shape}")
        # Trap's rules, one comparison per column (NaN passes, as there).
        if np.count_nonzero(y_tr <= 0.0):
            raise ModelError(f"trap depth y_tr must be positive, got "
                             f"{y_tr[y_tr <= 0.0][0]}")
        degeneracy = np.array(self.degeneracy, dtype=float)
        if degeneracy.shape != y_tr.shape:
            if degeneracy.ndim:
                raise ModelError(
                    f"degeneracy shape {degeneracy.shape} does not match "
                    f"y_tr {y_tr.shape}")
            # One factor for every trap.
            degeneracy = np.full(y_tr.shape, degeneracy)
        if np.count_nonzero(degeneracy <= 0.0):
            raise ModelError(f"degeneracy must be positive, got "
                             f"{degeneracy[degeneracy <= 0.0][0]}")
        self._freeze(y_tr, e_tr, degeneracy)

    def _freeze(self, y_tr: np.ndarray, e_tr: np.ndarray,
                degeneracy: np.ndarray) -> None:
        """Store the three columns as read-only arrays."""
        for name, column in (("y_tr", y_tr), ("e_tr", e_tr),
                             ("degeneracy", degeneracy)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def _adopt(cls, y_tr: np.ndarray, e_tr: np.ndarray,
               degeneracy: np.ndarray, label_prefix: str
               ) -> "TrapPopulation":
        """Take fresh float64 columns that already obey :class:`Trap`'s
        rules, without copying or checking them again.

        For producers whose columns are valid by construction: the
        profiler (depths drawn inside ``[y_min, t_ox]``, ``g = 1``) and
        :meth:`concatenate` (columns of validated populations).  The
        columns become read-only; the caller must hold no other
        reference that writes to them.
        """
        population = object.__new__(cls)
        object.__setattr__(population, "label_prefix", label_prefix)
        population._freeze(y_tr, e_tr, degeneracy)
        return population

    @classmethod
    def from_traps(cls, traps) -> "TrapPopulation":
        """The columns of a sequence of :class:`Trap` (labels renumbered
        under the default prefix).

        A :class:`TrapPopulation` is returned as it is.
        """
        if isinstance(traps, TrapPopulation):
            return traps
        traps = list(traps)
        return cls(y_tr=[trap.y_tr for trap in traps],
                   e_tr=[trap.e_tr for trap in traps],
                   degeneracy=np.array([trap.degeneracy for trap in traps],
                                       dtype=float))

    @classmethod
    def concatenate(cls, populations) -> "TrapPopulation":
        """One population holding every trap of ``populations``, in order
        (labels renumbered under the default prefix)."""
        populations = list(populations)
        if not populations:
            return cls(y_tr=(), e_tr=())
        return cls._adopt(*(np.concatenate([getattr(p, name)
                                            for p in populations])
                            for name in ("y_tr", "e_tr", "degeneracy")),
                          label_prefix="trap")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.y_tr.size)

    def _trap(self, index: int) -> Trap:
        return Trap(y_tr=float(self.y_tr[index]), e_tr=float(self.e_tr[index]),
                    degeneracy=float(self.degeneracy[index]),
                    label=f"{self.label_prefix}{index}")

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self._trap(index) for index in range(len(self))[key]]
        index = int(key)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"trap index {key} out of range")
        return self._trap(index)

    def __iter__(self):
        prefix = self.label_prefix
        for index, (y_tr, e_tr, degeneracy) in enumerate(zip(
                self.y_tr.tolist(), self.e_tr.tolist(),
                self.degeneracy.tolist())):
            yield Trap(y_tr=y_tr, e_tr=e_tr, degeneracy=degeneracy,
                       label=f"{prefix}{index}")

    def __eq__(self, other) -> bool:
        if isinstance(other, TrapPopulation):
            return (self.label_prefix == other.label_prefix
                    and all(np.array_equal(getattr(self, name),
                                           getattr(other, name))
                            for name in ("y_tr", "e_tr", "degeneracy")))
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        # Through the constructor, so an unpickled population is
        # validated and read-only again.
        return (type(self), (self.y_tr, self.e_tr, self.degeneracy,
                             self.label_prefix))

    def __repr__(self) -> str:
        return (f"TrapPopulation({len(self)} traps, "
                f"label_prefix={self.label_prefix!r})")

