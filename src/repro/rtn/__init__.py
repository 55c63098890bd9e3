"""RTN synthesis: from trap occupancies to device noise currents.

Implements paper §II-C and the per-device driver around Algorithm 1:

- :mod:`repro.rtn.current` — RTN amplitude models: paper Eq. (3)
  (van der Ziel [19]) and the Hung-et-al. number+mobility model [20].
- :mod:`repro.rtn.trace` — the :class:`RTNTrace` container (current on a
  time grid) with superposition and scaling.
- :mod:`repro.rtn.generator` — trap profile + bias waveform -> trap
  occupancies + ``I_RTN(t)`` for one device.
- :mod:`repro.rtn.ye_baseline` — the Ye-et-al. [10] white-noise two-stage
  baseline the paper compares against (stationary by construction).
"""
