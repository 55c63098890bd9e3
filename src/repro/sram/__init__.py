"""The 6T SRAM cell layer: netlist, stimuli, biases, injection, verdicts.

Implements the circuit side of the paper's methodology (Fig. 8):

- :mod:`repro.sram.cell` — the 6T cell builder (paper Fig. 1), sized
  from a technology card.
- :mod:`repro.sram.patterns` — read/write test-pattern stimulus
  generation (the paper's bit pattern [1,1,0,1,0,1,0,0,1] and friends).
- :mod:`repro.sram.biases` — per-transistor time-varying bias extraction
  from a clean transient (the input SAMURAI needs).
- :mod:`repro.sram.injection` — attach the generated ``I_RTN`` traces as
  drain-source current sources opposing the nominal current
  (paper Fig. 4).
- :mod:`repro.sram.detectors` — write-error / slowdown / disturb
  classification (the paper's Fig. 5 taxonomy).
- :mod:`repro.sram.margins` — static noise margin analysis (extension).
- :mod:`repro.sram.array` — Monte-Carlo array bit-error statistics
  (paper future-work #3).
"""

from .array import ArrayConfig, ArrayResult
from .biases import BiasRecord, extract_biases
from .cell import SramCell, SramCellSpec, TRANSISTOR_NAMES, build_sram_cell
from .detectors import OpOutcome, OpResult, classify_operations
from .injection import attach_rtn_sources
from .margins import static_noise_margin, wordline_write_margin
from .patterns import Operation, PatternWaveforms, TestPattern, write_pattern

__all__ = [
    "ArrayConfig",
    "ArrayResult",
    "BiasRecord",
    "Operation",
    "OpOutcome",
    "OpResult",
    "PatternWaveforms",
    "SramCell",
    "SramCellSpec",
    "TRANSISTOR_NAMES",
    "TestPattern",
    "attach_rtn_sources",
    "build_sram_cell",
    "classify_operations",
    "extract_biases",
    "static_noise_margin",
    "wordline_write_margin",
    "write_pattern",
]
