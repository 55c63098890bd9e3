"""Compact device models and technology cards.

The paper runs its experiments on 90 nm BSIM-4 models inside SpiceOPUS.
We substitute a from-scratch but self-consistent stack:

- :mod:`repro.devices.technology` — toy technology cards (180/90/45/22 nm)
  carrying oxide, threshold, mobility, supply and trap-statistics
  parameters.
- :mod:`repro.devices.mosfet` — per-instance MOSFET parameters (W, L,
  polarity) bound to a card.
- :mod:`repro.devices.ekv` — an EKV-style all-region compact model with
  analytic derivatives (smooth from subthreshold to strong inversion,
  which is what Newton needs and what the trap physics samples).
- :mod:`repro.devices.noise` — thermal-noise spectral density and
  inversion carrier density (the ``N`` of paper Eq. 3).
"""
