"""A from-scratch SPICE-class circuit simulator.

The paper's methodology (Fig. 8) couples SAMURAI to SpiceOPUS with
BSIM-4 models; this package is the substitute substrate: modified nodal
analysis with damped Newton, DC operating point with gmin/source
stepping, and trapezoidal/backward-Euler transient analysis.  Devices
include the EKV MOSFET from :mod:`repro.devices`, linear R/C, and
independent sources with DC/PULSE/PWL/SIN stimuli.

Layout:

- :mod:`repro.spice.circuit` — circuit container and node bookkeeping.
- :mod:`repro.spice.sources` — time-dependent stimulus functions.
- :mod:`repro.spice.elements` — element classes (the netlist's data).
- :mod:`repro.spice.mna` — the stamp program: a netlist compiled once,
  assembling every Newton iterate with array operations.
- :mod:`repro.spice.newton` — the damped Newton solver.
- :mod:`repro.spice.dcop` — DC operating point (gmin/source stepping).
- :mod:`repro.spice.transient` — transient analysis.
- :mod:`repro.spice.waveform` — simulation results container.
"""
