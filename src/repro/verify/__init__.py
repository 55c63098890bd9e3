"""repro.verify — statistical correctness harness for the reproduction.

SAMURAI's central claim (paper §III, Algorithm 1) is *exactness*: the
generated trajectories have precisely the law of the non-stationary
two-state chain.  This package turns that claim — and the deterministic
invariants of the SPICE substrate underneath it — into runnable,
tolerance-calibrated checks, so hot-kernel refactors cannot silently
bend the physics:

- :mod:`repro.verify.oracles` — occupancy-vs-analytic comparators
  (transient ODE and stationary ``beta/(1+beta)``), dwell-time
  distribution tests against the Eq.-1-constrained exponentials, and
  batch-vs-scalar kernel equivalence;
- :mod:`repro.verify.spice_checks` — KCL residuals, charge
  conservation, RC closed form, 6T DC-op bistability;
- :mod:`repro.verify.harness` — the Bonferroni :class:`AlphaBudget`
  that every statistical check draws its significance level from;
- :mod:`repro.verify.golden` — committed golden *statistics* (never
  raw traces) with provenance, regenerated via
  ``scripts/check_golden.py``;
- :mod:`repro.verify.suite` — the catalogue assembled into the tier-1
  (deterministic) and tier-2 (statistical) suites behind
  ``python -m repro verify``.

See ``docs/verification.md`` for the oracle catalogue and the
tolerance/alpha budgeting rules.
"""
