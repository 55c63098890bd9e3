"""The SAMURAI engine: per-cell RTN generation from trap populations.

This class owns the trap populations of a cell's six transistors and
drives the exact uniformisation kernel (paper Algorithm 1) for each,
under the bias waveforms extracted from a clean SPICE pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..rtn.current import RtnAmplitudeModel, VanDerZielModel
from ..rtn.generator import generate_device_rtn
from ..traps.profiling import TrapProfiler
from ..sram.biases import BiasRecord
from ..sram.cell import SramCell


@dataclass
class Samurai:
    """RTN generation engine for one SRAM cell.

    Attributes
    ----------
    cell:
        The cell whose transistors are simulated.
    trap_populations:
        Transistor name -> list of :class:`repro.traps.trap.Trap`.
    amplitude_model:
        RTN current amplitude model (default: paper Eq. 3).
    """

    cell: SramCell
    trap_populations: dict = field(default_factory=dict)
    amplitude_model: RtnAmplitudeModel = field(default_factory=VanDerZielModel)

    def __post_init__(self) -> None:
        unknown = set(self.trap_populations) - set(self.cell.transistors)
        if unknown:
            raise SimulationError(
                f"trap populations reference unknown transistors: {unknown}")

    # ------------------------------------------------------------------
    @classmethod
    def with_sampled_traps(cls, cell: SramCell, profiler: TrapProfiler,
                           rng: np.random.Generator,
                           amplitude_model: RtnAmplitudeModel | None = None
                           ) -> "Samurai":
        """Build an engine with statistically profiled trap populations.

        Each transistor's population is Poisson-sampled from its own
        gate area (paper §IV-B: trap profiles "generated using
        statistical trap profiling models").
        """
        populations = {}
        for name, mosfet in cell.transistors.items():
            traps = profiler.sample(rng, mosfet.params.width,
                                    mosfet.params.length,
                                    label_prefix=f"{name.lower()}_t")
            populations[name] = traps
        engine = cls(cell=cell, trap_populations=populations)
        if amplitude_model is not None:
            engine.amplitude_model = amplitude_model
        return engine

    # ------------------------------------------------------------------
    @property
    def total_trap_count(self) -> int:
        """Traps across the whole cell."""
        return sum(len(traps) for traps in self.trap_populations.values())

    def generate(self, biases: dict, rng: np.random.Generator) -> dict:
        """Run Algorithm 1 for every transistor under its bias record.

        Parameters
        ----------
        biases:
            Transistor name -> :class:`BiasRecord` (from
            :func:`repro.sram.biases.extract_biases`).
        rng:
            NumPy random generator.

        Returns
        -------
        dict
            Transistor name -> :class:`DeviceRtnResult`.  Transistors
            with no trap population entry get an empty population (zero
            trace).
        """
        results = {}
        for name, mosfet in self.cell.transistors.items():
            record = biases.get(name)
            if record is None:
                raise SimulationError(f"no bias record for {name!r}")
            if not isinstance(record, BiasRecord):
                raise SimulationError(
                    f"bias entry for {name!r} is not a BiasRecord")
            traps = self.trap_populations.get(name, [])
            results[name] = generate_device_rtn(
                mosfet.params, traps, record.times, record.v_drive,
                record.i_d, rng, model=self.amplitude_model, label=name)
        return results

    def describe_populations(self) -> dict:
        """Summary statistics per transistor (for reports)."""
        from ..traps.propensity import propensity_sum
        tech = self.cell.spec.technology
        summary = {}
        for name, traps in self.trap_populations.items():
            if traps:
                rates = [propensity_sum(t, tech) for t in traps]
                summary[name] = {"count": len(traps),
                                 "rate_min": min(rates),
                                 "rate_max": max(rates)}
            else:
                summary[name] = {"count": 0}
        return summary
