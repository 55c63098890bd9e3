"""The SAMURAI engine and the SPICE-coupled methodology (paper Fig. 8).

- :mod:`repro.core.samurai` — the :class:`Samurai` engine: trap
  populations + bias records -> occupancies and ``I_RTN`` traces for
  every transistor of a cell.
- :mod:`repro.core.methodology` — the full flowchart: clean SPICE pass,
  bias extraction, SAMURAI, injection, second SPICE pass, verdicts.
- :mod:`repro.core.ensemble` — the batched array-scale Monte-Carlo
  driver (:class:`EnsembleRunner`): shared clean pass, one vectorised
  kernel sweep per transistor across all cells, screened SPICE
  verification.
- :mod:`repro.core.coupled` — bi-directionally coupled RTN/circuit
  co-simulation (paper future-work #1).
- :mod:`repro.core.report` — ASCII tables and CSV emission for the
  benchmark harness.
"""
