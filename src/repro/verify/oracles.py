"""Statistical oracles: the paper's invariants as runnable checks.

Uniformisation (paper Algorithm 1) is *exact*: the trajectories it
generates have precisely the law of the non-stationary two-state chain.
That claim is mechanically checkable, because the same library ships the
closed forms the law implies:

- the stationary occupancy ``beta/(1+beta)`` and the transient
  occupancy ODE (:mod:`repro.markov.analytic`) pin the one-point
  marginals;
- constant-rate dwell times are exponential with means ``1/lambda_c``
  and ``1/lambda_e`` (da Silva & Wirth, arXiv:1002.0392), with the
  SAMURAI sum constraint ``lambda_c + lambda_e = 1/(tau0 e^{gamma
  y_tr})`` (paper Eq. 1) tying both means to the trap depth;
- the batched and scalar kernels implement the same law, so their
  outputs are statistically indistinguishable;
- independent traps superpose (da Silva & Wirth), so a population's
  filled count ``N_filled(t)`` (paper Eq. 3) has the exact mean
  ``sum p_i`` and variance ``sum p_i (1 - p_i)`` of the per-trap
  occupancy recurrence;
- a DRAM retention trial is a time change of one decay curve, so its
  retention time has an exact law: the occupation-time law of the
  defect's two-state chain (:func:`retention_probability`).

Each oracle reduces simulated trajectories to a test statistic with a
known null distribution and returns a :class:`CheckResult` whose
``p_value`` is compared against a caller-supplied ``alpha``.  Callers
budget ``alpha`` across a suite with
:class:`~repro.verify.harness.AlphaBudget` so the family-wise
false-positive rate stays controlled (and tier-2 stays flake-free).

Every function that simulates derives its random streams from an
explicit root seed via :mod:`repro.testing.seeding` — an oracle failure
is replayable from ``(seed, case)`` alone.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from ..errors import AnalysisError
from ..markov.analytic import (
    occupancy_probability,
    occupancy_recurrence,
    stationary_occupancy,
)
from ..markov.batch import (
    BatchPropensity,
    simulate_traps_batch,
    simulate_traps_scalar,
)
from ..markov.occupancy import number_filled
from ..testing.seeding import derive_rng, spawn_rngs
from .result import CheckResult

__all__ = [
    "check_batch_scalar_equivalence",
    "check_dwell_times",
    "check_population_occupancy",
    "check_propensity_sum_invariant",
    "check_retention_law",
    "check_stationary_occupancy",
    "check_transient_occupancy",
    "pooled_dwell_times",
    "retention_probability",
    "sample_screen_populations",
    "sample_stationary_population",
]


# ----------------------------------------------------------------------
# Deterministic invariants
# ----------------------------------------------------------------------
def check_propensity_sum_invariant(trap, tech, biases=None,
                                   rtol: float = 1e-9) -> CheckResult:
    """Paper Eq. 1: ``lambda_c + lambda_e`` is bias-independent.

    Evaluates the rates over a bias sweep and compares every sum to the
    closed form ``1/(tau0 * exp(gamma * y_tr))``.
    """
    from ..traps.propensity import propensity_sum, rates_from_bias

    if biases is None:
        biases = np.linspace(0.0, tech.vdd, 21)
    biases = np.asarray(biases, dtype=float)
    expected = propensity_sum(trap, tech)
    lam_c, lam_e = rates_from_bias(biases, trap, tech)
    error = float(np.max(np.abs((lam_c + lam_e) - expected))) / expected
    return CheckResult.from_bound(
        "traps.propensity_sum", error, rtol,
        detail=f"{biases.size} bias points, sum {expected:.3g}/s",
        expected_sum=expected)


# ----------------------------------------------------------------------
# Trajectory generation helpers
# ----------------------------------------------------------------------
def sample_stationary_population(lambda_c: float, lambda_e: float,
                                 n_traps: int, t_stop: float,
                                 seed: int) -> list:
    """Simulate ``n_traps`` i.i.d. constant-rate traps from stationarity.

    Initial states are drawn from the stationary law ``beta/(1+beta)``
    so time averages are unbiased estimators of the stationary
    occupancy (no burn-in correction needed).  Returns the traces.
    """
    if n_traps < 2:
        raise AnalysisError(f"need >= 2 traps, got {n_traps}")
    init_rng, sim_rng = spawn_rngs(seed, 2)
    p_inf = stationary_occupancy(lambda_c, lambda_e)
    init = (init_rng.random(n_traps) < p_inf).astype(np.int8)
    batch = BatchPropensity(
        times=np.array([0.0, t_stop]),
        capture=np.full((n_traps, 2), lambda_c),
        emission=np.full((n_traps, 2), lambda_e),
    )
    traces, _ = simulate_traps_batch(batch, 0.0, t_stop, sim_rng,
                                     initial_states=init)
    return traces


def sample_screen_populations(seed: int, n_cells: int = 64) -> list:
    """The ensemble screen's kernel runs at ``seed``, one per transistor.

    The benchmark's Fig.-8 cell and one-bit write pattern: a clean pass
    gives each transistor's drive, and the traps of ``n_cells`` devices
    run through the batched kernel from the column-0 equilibrium, as in
    the ensemble's step 3.  Returns ``(rate table, occupancy)`` pairs.
    """
    from ..core.experiments import fig8_cell_spec, fig8_pattern
    from ..core.methodology import MethodologyConfig, PatternBench
    from ..sram.biases import extract_biases
    from ..traps.profiling import TrapProfiler
    from ..traps.propensity import draw_initial_states, population_propensity

    spec = fig8_cell_spec()
    bench = PatternBench.build(spec, fig8_pattern(bits=(1,)),
                               MethodologyConfig())
    biases = extract_biases(bench.cell, bench.simulate()[0])
    profiler = TrapProfiler(spec.technology)
    rng = derive_rng(seed, "screen")
    populations = []
    for name, transistor in bench.cell.transistors.items():
        params, record = transistor.params, biases[name]
        traps = profiler.sample(rng, n_cells * params.width, params.length)
        table = population_propensity(traps, spec.technology, record.times,
                                      record.v_drive)
        init = draw_initial_states(table.equilibrium(0), rng)
        populations.append((table, simulate_traps_batch(
            table, float(record.times[0]), float(record.times[-1]), rng,
            initial_states=init)[0]))
    return populations


def pooled_dwell_times(traces, state: int) -> np.ndarray:
    """Pool uncensored dwell times in ``state`` across traces."""
    samples = [trace.dwell_times(state) for trace in traces]
    return np.concatenate(samples) if samples else np.zeros(0)


# ----------------------------------------------------------------------
# Statistical oracles
# ----------------------------------------------------------------------
def check_stationary_occupancy(traces, lambda_c: float, lambda_e: float,
                               alpha: float) -> CheckResult:
    """Time-averaged occupancy vs the stationary ``beta/(1+beta)``.

    Uses the per-trace filled fractions as an i.i.d. sample (valid for
    independently simulated traps) and a one-sample t-test against the
    analytic mean.  Requires traces initialised from stationarity (see
    :func:`sample_stationary_population`) — a deterministic initial
    state biases the time average by the relaxation transient.
    """
    fractions = np.array([trace.fraction_filled() for trace in traces])
    if fractions.size < 8:
        raise AnalysisError(f"need >= 8 traces, got {fractions.size}")
    p_inf = stationary_occupancy(lambda_c, lambda_e)
    t_stat, p_value = stats.ttest_1samp(fractions, p_inf)
    return CheckResult.from_pvalue(
        "markov.stationary_occupancy", float(p_value), alpha,
        detail=(f"{fractions.size} traces, mean {fractions.mean():.4f} "
                f"vs {p_inf:.4f}"),
        t_statistic=float(t_stat), expected=p_inf,
        observed=float(fractions.mean()))


def check_transient_occupancy(traces, capture_fn, emission_fn,
                              grid, p1_initial: float,
                              alpha: float,
                              t_initial: float | None = None) -> CheckResult:
    """Ensemble occupancy on a grid vs the master-equation ODE solution.

    This is the genuinely *non-stationary* oracle: for arbitrary
    time-varying rates the filled count at each grid time is
    ``Binomial(K, p1(t))`` with ``p1`` from
    :func:`repro.markov.analytic.occupancy_probability`.  Each grid
    point gets an exact binomial test; the verdict Bonferroni-corrects
    across points, so ``alpha`` is the family-wise budget of the whole
    curve comparison.

    All traces must share the initial state implied by ``p1_initial``
    (0.0 or 1.0 for deterministic starts) and the window covering
    ``grid``.  ``p1_initial`` holds at ``t_initial`` — the simulation
    start, defaulting to the first trace's ``t_start`` — *not* at
    ``grid[0]``; the ODE is integrated from there onto the grid.
    """
    grid = np.asarray(grid, dtype=float)
    n_traps = len(traces)
    if n_traps < 8:
        raise AnalysisError(f"need >= 8 traces, got {n_traps}")
    if t_initial is None:
        t_initial = traces[0].t_start
    if grid.size and grid[0] < t_initial:
        raise AnalysisError(
            f"grid starts at {grid[0]:g}s, before t_initial {t_initial:g}s")
    ode_times = grid if grid.size and grid[0] == t_initial \
        else np.concatenate(([t_initial], grid))
    expected = occupancy_probability(ode_times, capture_fn, emission_fn,
                                     p1_initial)[-grid.size:]
    filled = number_filled(traces, grid).astype(np.int64)
    per_point = alpha / grid.size
    worst_p = 1.0
    worst_at = 0.0
    for k, p_model, t in zip(filled, expected, grid):
        p_model = min(max(float(p_model), 0.0), 1.0)
        p_val = stats.binomtest(int(k), n_traps, p_model).pvalue
        if p_val < worst_p:
            worst_p, worst_at = float(p_val), float(t)
    return CheckResult.from_pvalue(
        "markov.transient_occupancy", worst_p, per_point,
        detail=(f"{n_traps} traces x {grid.size} grid points, "
                f"worst at t={worst_at:.3g}s"),
        grid_points=int(grid.size), worst_time=worst_at,
        alpha_per_point=per_point)


def check_population_occupancy(populations, alpha: float,
                               points=(0.25, 0.5, 0.75)) -> CheckResult:
    """Simulated ``N_filled`` vs its exact mean and variance.

    ``populations`` are independent ``(rate table, occupancy)`` pairs,
    constant-sum tables run from the column-0 equilibrium.  At a grid
    time the filled count sums independent ``Bernoulli(p_i)``, ``p_i``
    from :func:`~repro.markov.analytic.occupancy_recurrence`; pooled
    over the populations at each of ``points`` (fractions of the grid),
    ``z = (N - sum p)/sqrt(sum p (1 - p))`` is tested two-sided against
    the normal law.  One trap's states at two times are correlated, so
    ``alpha`` is Bonferroni-split across the points.
    """
    parts = []
    for table, occupancy in populations:
        cols = np.rint(np.multiply(points, table.times.size - 1)).astype(int)
        p = occupancy_recurrence(table)[:, cols]
        parts.append((number_filled(occupancy, table.times[cols]),
                      p.sum(axis=0), (p * (1.0 - p)).sum(axis=0)))
    filled, mean, var = np.sum(parts, axis=0)
    z = (filled - mean) / np.sqrt(var)
    return CheckResult.from_pvalue(
        "markov.population_occupancy",
        float(2.0 * stats.norm.sf(np.abs(z).max())), alpha / z.size,
        detail=(f"{len(populations)} populations, z = "
                + ", ".join(f"{value:+.2f}" for value in z)),
        z=z.tolist())


def check_dwell_times(traces, state: int, exit_rate: float, alpha: float,
                      method: str = "ks",
                      min_dwells: int = 32) -> CheckResult:
    """Pooled dwell times vs the exponential law ``Exp(exit_rate)``.

    ``exit_rate`` is the rate of *leaving* ``state`` — ``lambda_c`` for
    the empty state, ``lambda_e`` for the filled state; for SAMURAI
    traps the two are tied by paper Eq. 1 (their sum is fixed by the
    trap depth), so a dwell-time drift in either state reveals a broken
    kernel even when the occupancy looks right.

    ``method="ks"`` runs a Kolmogorov-Smirnov test with the *known*
    scale (fully calibrated, unlike the Lilliefors-style estimated-scale
    shortcut in :mod:`repro.analysis.dwell`); ``method="chi2"`` bins the
    sample at exponential quantiles into equal-probability cells and
    applies a chi-square test.
    """
    dwells = pooled_dwell_times(traces, state)
    if dwells.size < min_dwells:
        raise AnalysisError(
            f"need >= {min_dwells} uncensored dwells, got {dwells.size}")
    if exit_rate <= 0.0:
        raise AnalysisError(f"exit_rate must be positive, got {exit_rate}")
    scale = 1.0 / exit_rate
    if method == "ks":
        __, p_value = stats.kstest(dwells, "expon", args=(0.0, scale))
        stat_name = "ks"
    elif method == "chi2":
        n_bins = max(4, min(32, dwells.size // 8))
        quantiles = np.arange(1, n_bins) / n_bins
        edges = stats.expon.ppf(quantiles, scale=scale)
        counts = np.bincount(np.searchsorted(edges, dwells),
                             minlength=n_bins)
        expected = np.full(n_bins, dwells.size / n_bins)
        __, p_value = stats.chisquare(counts, expected)
        stat_name = "chi2"
    else:
        raise AnalysisError(f"unknown method {method!r}")
    return CheckResult.from_pvalue(
        f"markov.dwell_{stat_name}_state{state}", float(p_value), alpha,
        detail=(f"{dwells.size} dwells, mean {dwells.mean():.3g}s vs "
                f"{scale:.3g}s"),
        observed_mean=float(dwells.mean()), expected_mean=scale,
        n_dwells=int(dwells.size))


def check_batch_scalar_equivalence(batch: BatchPropensity, t_start: float,
                                   t_stop: float, seed: int,
                                   alpha: float) -> CheckResult:
    """Batched vs scalar kernel: same population, same law.

    Simulates the population once with the vectorised batched kernel
    and once with the scalar per-trap loop (independent streams spawned
    from ``seed``), then compares the per-trap filled fractions and
    transition counts with two-sample Welch t-tests.  Under the
    exactness claim both samples follow the identical law, so each
    p-value is uniform; the verdict Bonferroni-splits ``alpha`` across
    the two comparisons.
    """
    rng_batch, rng_scalar = spawn_rngs(seed, 2)
    traces_b, _ = simulate_traps_batch(batch, t_start, t_stop, rng_batch)
    scalar_traces, _ = simulate_traps_scalar(batch, t_start, t_stop,
                                             rng_scalar)

    frac_b = np.array([trace.fraction_filled() for trace in traces_b])
    frac_s = np.array([trace.fraction_filled() for trace in scalar_traces])
    hops_b = np.array([trace.n_transitions for trace in traces_b],
                      dtype=float)
    hops_s = np.array([trace.n_transitions for trace in scalar_traces],
                      dtype=float)

    __, p_frac = stats.ttest_ind(frac_b, frac_s, equal_var=False)
    __, p_hops = stats.ttest_ind(hops_b, hops_s, equal_var=False)
    worst = float(min(p_frac, p_hops))
    return CheckResult.from_pvalue(
        "markov.batch_scalar_equivalence", worst, alpha / 2.0,
        detail=(f"{batch.n_traps} traps, occupancy p={p_frac:.3g}, "
                f"transitions p={p_hops:.3g}"),
        p_occupancy=float(p_frac), p_transitions=float(p_hops),
        mean_occupancy_batch=float(frac_b.mean()),
        mean_occupancy_scalar=float(frac_s.mean()))


def retention_probability(t, slow: float, leakage_factor: float,
                          lambda_c: float, lambda_e: float) -> np.ndarray:
    """Exact ``P(retention <= t)`` of a DRAM trial with a stationary start.

    The defect multiplies the leakage by ``m = leakage_factor`` while
    filled, so the node runs the defect-free decay in the clock
    ``tau(t) = t + (m - 1) F(t)``, ``F`` the filled time over
    ``[0, t]``: retention is at most ``t`` exactly when
    ``F(t) >= (slow - t)/(m - 1)``.  Uniformised at
    ``Lambda = lambda_c + lambda_e``, every one of the ``N + 1``
    intervals between ``N ~ Poisson(Lambda t)`` candidate events holds
    an i.i.d. ``Bernoulli(lambda_c/Lambda)`` state, and ``K`` filled
    intervals fill a ``Beta(K, N + 1 - K)`` fraction of the window.
    Summing over ``N`` and ``K`` gives the law, with atoms at
    ``slow / m`` (filled throughout) and ``slow`` (empty throughout).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    rate = lambda_c + lambda_e
    p_fill = lambda_c / rate
    out = (t >= slow).astype(float)
    for index, t_i in enumerate(t):
        if t_i >= slow or leakage_factor == 1.0:
            continue
        fraction = (slow - t_i) / ((leakage_factor - 1.0) * t_i)
        if fraction > 1.0:
            continue
        n = np.arange(int(stats.poisson.isf(1e-16, rate * t_i)) + 2)
        k = np.arange(n.size + 1)
        n_grid, k_grid = np.meshgrid(n, k, indexing="ij")
        inside = (k_grid >= 1) & (k_grid <= n_grid)
        tail = np.where(k_grid > n_grid, 1.0, 0.0)
        tail[inside] = stats.beta.sf(fraction, k_grid[inside],
                                     n_grid[inside] + 1 - k_grid[inside])
        weight = stats.poisson.pmf(n_grid, rate * t_i) \
            * stats.binom.pmf(k_grid, n_grid + 1, p_fill)
        out[index] = float(np.sum(weight * tail))
    return out


def check_retention_law(times, model, t_max: float,
                        alpha: float) -> CheckResult:
    """DRAM retention times vs their exact law.

    ``times`` are the retention times of independent trials over a
    ``t_max`` window (``inf`` = survived), ``model`` the
    :class:`~repro.dram.cell.RetentionModel` whose nominal law they
    should follow.  The law has atoms at ``slow/m`` and ``slow``, so a
    KS test does not apply; instead the count of trials lost by each
    grid time is ``Binomial(n, P(retention <= t))`` with the exact
    probability of :func:`retention_probability`.  Each grid point gets
    an exact binomial test, Bonferroni-corrected across points.  The
    grid brackets both atoms (just below and just above the fast level,
    just below the slow one; never on an atom, where rounding decides
    the count) and samples the continuous part between them.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 8:
        raise AnalysisError(f"need >= 8 trials, got {times.size}")
    slow, factor = model.slow, model.leakage_factor
    fast = slow / factor
    grid = np.concatenate(([0.99 * fast, 1.01 * fast],
                           np.linspace(fast, slow, 6)[1:-1], [0.999 * slow]))
    if np.any(grid > t_max):
        raise AnalysisError(
            f"window t_max={t_max:g}s ends before the slow level {slow:g}s")
    expected = retention_probability(grid, slow, factor, model.capture_rate,
                                     model.emission_rate)
    per_point = alpha / grid.size
    worst_p, worst_at = 1.0, 0.0
    for t, p_model in zip(grid, expected):
        lost = int(np.count_nonzero(times <= t))
        p_val = stats.binomtest(lost, times.size,
                                min(max(float(p_model), 0.0), 1.0)).pvalue
        if p_val < worst_p:
            worst_p, worst_at = float(p_val), float(t)
    return CheckResult.from_pvalue(
        "dram.retention_law", worst_p, per_point,
        detail=(f"{times.size} trials x {grid.size} grid points, "
                f"worst at t={worst_at:.3g}s"),
        grid_points=int(grid.size), worst_time=worst_at,
        alpha_per_point=per_point)
