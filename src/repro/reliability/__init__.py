"""Reliability couplings rooted in the shared trap population.

Paper §I-B, observation 1: "Recent evidence suggests that RTN and NBTI
are positively correlated ... most likely due to this common root
cause" — both arise from the same oxide traps.  Because this library
carries an explicit per-device trap population, that correlation is a
*prediction*, not an assumption: a device that samples many deep traps
shows both a large NBTI threshold shift under stress and large RTN
fluctuation in operation.

- :mod:`repro.reliability.nbti` — stress-bias trap occupancy as the
  NBTI mechanism, RTN fluctuation metrics, and the cross-device
  correlation study.
"""
