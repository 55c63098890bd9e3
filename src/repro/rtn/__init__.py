"""RTN synthesis: from trap occupancies to device noise currents.

Implements paper §II-C and the per-device driver around Algorithm 1:

- :mod:`repro.rtn.current` — RTN amplitude models: paper Eq. (3)
  (van der Ziel [19]) and the Hung-et-al. number+mobility model [20].
- :mod:`repro.rtn.trace` — the :class:`RTNTrace` container (current on a
  time grid) with superposition, resampling and scaling.
- :mod:`repro.rtn.generator` — trap profile + bias waveform -> trap
  occupancies + ``I_RTN(t)`` for one device.
- :mod:`repro.rtn.ye_baseline` — the Ye-et-al. [10] white-noise two-stage
  baseline the paper compares against (stationary by construction).
"""

from .current import HungModel, RtnAmplitudeModel, VanDerZielModel
from .generator import DeviceRtnResult, generate_device_rtn
from .multilevel import (
    MultiLevelTrapModel,
    anomalous_rtn_model,
    simulate_multilevel_rtn,
)
from .trace import RTNTrace
from .ye_baseline import YeBaselineGenerator

__all__ = [
    "DeviceRtnResult",
    "HungModel",
    "MultiLevelTrapModel",
    "RTNTrace",
    "RtnAmplitudeModel",
    "VanDerZielModel",
    "YeBaselineGenerator",
    "anomalous_rtn_model",
    "generate_device_rtn",
    "simulate_multilevel_rtn",
]
