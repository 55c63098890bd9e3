"""Backend invariance: every execution backend computes the same physics.

Two layers of evidence, per the engine's contract:

1. **Bit identity.**  With identical seeds, the full ensemble pipeline
   (and raw trap simulations fanned out through ``run_jobs``) must
   produce *bit-identical* RTN traces, occupancy trajectories and cell
   verdicts on the ``serial`` and ``shared`` backends —
   the backend moves bytes, it must never touch the law.
2. **Statistical law.**  The PR-5 oracles (stationary occupancy, dwell
   laws, batch/scalar Welch equivalence) must pass on trap populations
   simulated *inside shared-memory workers*, under one family-wise
   :class:`~repro.verify.AlphaBudget`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import get_backend
from repro.core.resilience import RetryPolicy
from repro.verify import (
    AlphaBudget,
    check_batch_scalar_equivalence,
    check_dwell_times,
    check_stationary_occupancy,
)

pytestmark = pytest.mark.tier2

BACKENDS = ("serial", "shared")

#: One family-wise budget covers every statistical check in this module.
BUDGET = AlphaBudget(1e-4)

LAMBDA_C, LAMBDA_E = 1.0, 0.5
T_STOP = 30.0
N_JOBS, TRAPS_PER_JOB = 16, 8


def _stationary_chunk(payload):
    """Simulate one i.i.d. stationary sub-population (worker-side job).

    Each job derives its own rng from ``(seed, chunk)``, so the sampled
    law is independent of which backend, worker or chunk schedule runs
    it — the exact invariance this module asserts.
    """
    from repro.markov.batch import BatchPropensity, simulate_traps_batch
    from repro.testing.seeding import spawn_rngs

    n_traps, t_stop, seed, chunk = payload
    init_rng, sim_rng = spawn_rngs(seed + 1009 * chunk, 2)
    p_inf = LAMBDA_C / (LAMBDA_C + LAMBDA_E)
    init = (init_rng.random(n_traps) < p_inf).astype(np.int8)
    batch = BatchPropensity(
        times=np.array([0.0, t_stop]),
        capture=np.full((n_traps, 2), LAMBDA_C),
        emission=np.full((n_traps, 2), LAMBDA_E))
    traces, _ = simulate_traps_batch(batch, 0.0, t_stop, sim_rng,
                                     initial_states=init)
    return traces


def _welch_check(payload):
    """Run the batch/scalar Welch oracle inside a worker."""
    from repro.markov.batch import BatchPropensity
    from repro.testing.seeding import derive_rng

    n_traps, seed, alpha = payload
    rng = derive_rng(seed, "welch-pop")
    batch = BatchPropensity(
        times=np.array([0.0, 15.0]),
        capture=np.tile(10.0 ** rng.uniform(-0.3, 0.3, (n_traps, 1)),
                        (1, 2)),
        emission=np.tile(10.0 ** rng.uniform(-0.3, 0.3, (n_traps, 1)),
                         (1, 2)))
    return check_batch_scalar_equivalence(batch, 0.0, 15.0, seed=seed,
                                          alpha=alpha)


def _population_via(backend_name: str, seed: int = 17) -> list:
    jobs = [(TRAPS_PER_JOB, T_STOP, seed, chunk)
            for chunk in range(N_JOBS)]
    results = get_backend(backend_name).run(
        _stationary_chunk, jobs, keys=list(range(N_JOBS)), workers=3,
        policy=RetryPolicy())
    assert all(r.status == "ok" for r in results)
    return [trace for r in results for trace in r.value]


@pytest.fixture(scope="module")
def populations():
    """The same population simulated through every backend."""
    return {name: _population_via(name) for name in BACKENDS}


class TestBitIdenticalTrajectories:
    def test_occupancy_traces_identical_across_backends(self, populations):
        reference = populations["serial"]
        for name in BACKENDS[1:]:
            candidate = populations[name]
            assert len(candidate) == len(reference) \
                == N_JOBS * TRAPS_PER_JOB
            for ours, theirs in zip(candidate, reference):
                np.testing.assert_array_equal(ours.times, theirs.times)
                np.testing.assert_array_equal(ours.states, theirs.states)

    def test_ensemble_rtn_traces_identical_across_backends(self):
        from repro.core.ensemble import EnsembleConfig, EnsembleRunner
        from repro.core.experiments import fig8_cell_spec, fig8_pattern

        def run(backend):
            config = EnsembleConfig(
                n_cells=4, spec=fig8_cell_spec(),
                pattern=fig8_pattern(bits=(1,)), rtn_scale=30.0,
                max_verified_cells=2, workers=2, backend=backend,
                keep_traces=True)
            return EnsembleRunner(config).run(
                np.random.default_rng(20110314))

        reference = run("serial")
        assert reference.traces, "keep_traces must expose the traces"
        for name in BACKENDS[1:]:
            result = run(name)
            assert result.backend == name
            assert [o.status for o in result.outcomes] == \
                [o.status for o in reference.outcomes]
            assert [o.rtn_failures for o in result.outcomes] == \
                [o.rtn_failures for o in reference.outcomes]
            assert [o.screen_metric for o in result.outcomes] == \
                [o.screen_metric for o in reference.outcomes]
            for cell, ref_cell in zip(result.traces, reference.traces):
                assert sorted(cell) == sorted(ref_cell)
                for transistor, trace in cell.items():
                    np.testing.assert_array_equal(
                        trace.current, ref_cell[transistor].current)
                    np.testing.assert_array_equal(
                        trace.times, ref_cell[transistor].times)


class TestStatisticalOraclesOnSharedBackend:
    """The PR-5 law-level oracles, fed by shared-memory workers.

    Four checks share one Bonferroni budget: stationary occupancy, the
    dwell law in both states, and the batch/scalar Welch equivalence.
    """

    ALPHA = BUDGET.split(4)

    def test_stationary_occupancy(self, populations):
        check = check_stationary_occupancy(
            populations["shared"], LAMBDA_C, LAMBDA_E, self.ALPHA)
        assert check.passed
        assert check.extras["expected"] == pytest.approx(2.0 / 3.0)

    def test_dwell_law_empty_state(self, populations):
        check = check_dwell_times(populations["shared"], 0, LAMBDA_C,
                                  self.ALPHA)
        assert check.passed

    def test_dwell_law_filled_state(self, populations):
        check = check_dwell_times(populations["shared"], 1, LAMBDA_E,
                                  self.ALPHA)
        assert check.passed

    def test_welch_batch_scalar_equivalence_in_worker(self):
        results = get_backend("shared").run(
            _welch_check, [(48, 21, self.ALPHA)], keys=["welch"],
            workers=1, policy=RetryPolicy())
        assert results[0].status == "ok"
        check = results[0].value
        assert check.passed
        assert 0.0 < check.extras["mean_occupancy_batch"] < 1.0
