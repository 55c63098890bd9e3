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
- :mod:`repro.verify.harness` — seed-derived case generators over trap
  parameters, bias waveforms and technology cards, Bonferroni
  :class:`AlphaBudget` bookkeeping, and shrinking-by-bisection for
  failing cases;
- :mod:`repro.verify.golden` — committed golden *statistics* (never
  raw traces) with provenance, regenerated via
  ``scripts/check_golden.py``;
- :mod:`repro.verify.suite` — the catalogue assembled into the tier-1
  (deterministic) and tier-2 (statistical) suites behind
  ``python -m repro verify``.

See ``docs/verification.md`` for the oracle catalogue and the
tolerance/alpha budgeting rules.
"""

from __future__ import annotations

from .golden import (
    compare_golden,
    compute_golden_statistics,
    load_golden,
    save_golden,
)
from .harness import (
    AlphaBudget,
    Case,
    CaseGenerator,
    PropertyOutcome,
    run_property,
    shrink_case,
)
from .oracles import (
    check_batch_scalar_equivalence,
    check_dwell_times,
    check_propensity_sum_invariant,
    check_retention_law,
    check_stationary_occupancy,
    check_transient_occupancy,
    pooled_dwell_times,
    retention_probability,
    sample_stationary_population,
)
from .result import CheckResult, VerificationReport
from .spice_checks import (
    check_dcop_kcl,
    check_sram_bistability,
    check_transient_charge_conservation,
    check_transient_rc_analytic,
)
from .suite import run_suite

__all__ = [
    "AlphaBudget",
    "Case",
    "CaseGenerator",
    "CheckResult",
    "PropertyOutcome",
    "VerificationReport",
    "check_batch_scalar_equivalence",
    "check_dcop_kcl",
    "check_dwell_times",
    "check_propensity_sum_invariant",
    "check_retention_law",
    "check_sram_bistability",
    "check_stationary_occupancy",
    "check_transient_charge_conservation",
    "check_transient_occupancy",
    "check_transient_rc_analytic",
    "compare_golden",
    "compute_golden_statistics",
    "load_golden",
    "pooled_dwell_times",
    "retention_probability",
    "run_property",
    "run_suite",
    "sample_stationary_population",
    "save_golden",
    "shrink_case",
]
