"""Oxide-trap physics: from gate bias to capture/emission propensities.

Implements paper §II:

- :mod:`repro.traps.trap` — the :class:`Trap` description
  (depth ``y_tr``, energy ``E_tr``, degeneracy ``g``), and a device's
  population as columns, :class:`TrapPopulation`.
- :mod:`repro.traps.band` — surface potential and the bias-dependent
  trap-to-Fermi energy offset ``(E_T - E_F)(V_gs)`` (the "function of
  E_tr, y_tr, V_gs and device parms" in paper Eq. 2, after Dunga).
- :mod:`repro.traps.propensity` — paper Eqs. (1)-(2): the constant
  propensity sum and the bias-dependent ratio ``beta``, assembled into
  kernel-ready propensity objects.
- :mod:`repro.traps.profiling` — the statistical trap-profiling model
  (Poisson trap counts over the gate-stack volume and an energy window),
  sampling each device's traps as a :class:`TrapPopulation`.
"""
