"""The oracle catalogue, assembled into runnable suites.

Two tiers mirror the CI split:

- the **deterministic suite** (tier 1) checks invariants with exact or
  tightly bounded answers — Eq.-1 propensity sums, KCL residuals,
  charge conservation, the RC closed form, 6T bistability — and is
  safe on every push;
- the **statistical suite** (tier 2) simulates populations and tests
  their law against the analytic oracles — stationary and transient
  occupancy, dwell exponentiality, batch/scalar equivalence, the
  screen's exact ``N_filled`` law, the exact DRAM retention law — under
  one Bonferroni :class:`~repro.verify.harness.AlphaBudget`, so a
  correct kernel fails a whole run with probability at most
  ``alpha_total``.

``python -m repro verify`` is a thin wrapper over :func:`run_suite`.
"""

from __future__ import annotations

import numpy as np

from .harness import AlphaBudget
from .oracles import (
    check_batch_scalar_equivalence,
    check_dwell_times,
    check_population_occupancy,
    check_propensity_sum_invariant,
    check_retention_law,
    check_stationary_occupancy,
    check_transient_occupancy,
    sample_screen_populations,
    sample_stationary_population,
)
from .result import VerificationReport
from .spice_checks import (
    check_dcop_kcl,
    check_sram_bistability,
    check_transient_charge_conservation,
    check_transient_rc_analytic,
)

__all__ = ["run_suite"]

#: Statistical-suite scenario sizing (kept cheap enough for CI).
_N_TRAPS = 256
_WINDOW_SUMS = 50.0
_N_RETENTION_TRIALS = 2000


def _deterministic_checks() -> list:
    from ..devices.technology import TECH_45NM, TECH_90NM
    from ..sram.cell import build_sram_cell
    from ..traps.trap import Trap

    checks = []
    for tech in (TECH_90NM, TECH_45NM):
        trap = Trap(y_tr=0.3 * tech.t_ox, e_tr=0.05)
        checks.append(check_propensity_sum_invariant(trap, tech))
    checks.append(check_dcop_kcl(
        build_sram_cell().circuit,
        initial_guess={"q": TECH_90NM.vdd, "qb": 0.0,
                       "vdd": TECH_90NM.vdd}))
    checks.append(check_sram_bistability())
    checks.append(check_transient_charge_conservation())
    checks.append(check_transient_rc_analytic())
    return checks


def _statistical_checks(seed: int, budget: AlphaBudget) -> list:
    from ..testing.seeding import derive_seed

    # Seven statistical checks share the budget.
    alpha = budget.split(7)
    checks = []

    # Stationary marginal + dwell laws on one asymmetric population.
    lam_c, lam_e = 1.0, 0.5
    t_stop = _WINDOW_SUMS / (lam_c + lam_e)
    traces = sample_stationary_population(
        lam_c, lam_e, _N_TRAPS, t_stop, derive_seed(seed, "stationary"))
    checks.append(check_stationary_occupancy(traces, lam_c, lam_e, alpha))
    checks.append(check_dwell_times(traces, 0, lam_c, alpha, method="ks"))
    checks.append(check_dwell_times(traces, 1, lam_e, alpha,
                                    method="chi2"))

    # Transient relaxation vs the occupancy ODE from an all-empty start.
    from ..markov.batch import BatchPropensity, simulate_traps_batch
    from ..testing.seeding import derive_rng

    lam = 2.0
    t_relax = 4.0 / (2 * lam)
    batch = BatchPropensity(
        times=np.array([0.0, t_relax]),
        capture=np.full((_N_TRAPS, 2), lam),
        emission=np.full((_N_TRAPS, 2), lam))
    relax_traces, _ = simulate_traps_batch(
        batch, 0.0, t_relax, derive_rng(seed, "transient"))
    grid = np.linspace(0.05 * t_relax, t_relax, 12)
    checks.append(check_transient_occupancy(
        relax_traces, lambda t: lam, lambda t: lam, grid,
        p1_initial=0.0, alpha=alpha))

    # Batched kernel vs the scalar loop on a heterogeneous population.
    rng = derive_rng(seed, "equivalence-pop")
    rates_c = 10.0 ** rng.uniform(-0.5, 0.5, size=64)
    rates_e = 10.0 ** rng.uniform(-0.5, 0.5, size=64)
    hetero = BatchPropensity(
        times=np.array([0.0, 20.0]),
        capture=np.tile(rates_c[:, None], (1, 2)),
        emission=np.tile(rates_e[:, None], (1, 2)))
    checks.append(check_batch_scalar_equivalence(
        hetero, 0.0, 20.0, derive_seed(seed, "equivalence"), alpha))

    # The screen's filled counts vs the exact occupancy recurrence.
    checks.append(check_population_occupancy(
        sample_screen_populations(seed), alpha))

    # The dram.retention scenario vs its exact time-change law.
    from ..core.scenario import get_scenario, run_scenario
    from ..dram.cell import RetentionModel

    scan = get_scenario("dram.retention").default_config(_N_RETENTION_TRIALS)
    times = run_scenario("dram.retention", scan,
                         seed=derive_seed(seed, "retention")).value
    checks.append(check_retention_law(
        times, RetentionModel.build(scan.spec, scan.trap), scan.t_max,
        alpha))
    return checks


def run_suite(seed: int = 0, statistical: bool = False,
              alpha_total: float = 1e-4) -> VerificationReport:
    """Run the verification suite and return a report.

    Parameters
    ----------
    seed:
        Root seed for every statistical stream (irrelevant to the
        deterministic checks).
    statistical:
        Include the tier-2 statistical oracles.
    alpha_total:
        Family-wise false-positive budget of the statistical suite.
    """
    budget = AlphaBudget(alpha_total)
    checks = _deterministic_checks()
    if statistical:
        checks += _statistical_checks(seed, budget)
    return VerificationReport(
        checks=tuple(checks), seed=seed,
        alpha_total=alpha_total if statistical else 0.0)
