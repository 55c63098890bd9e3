"""Backend invariance of every migrated scenario workload.

The scenario layer's core promise: because job *k* draws from its own
generator spawned from ``(seed, "scenario", name)``, the workload's
results are *backend-invariant by construction*.  This suite holds each
migrated workload to it:

1. **Identical triples.**  The per-job ``(status, value, attempts)``
   triples must be identical — bit-for-bit for array/float values —
   across the ``serial`` and ``shared`` backends.
2. **Statistical reducers.**  The reduced distributions of the two
   statistical workloads (DRAM retention times, NBTI/RTN device
   metrics) must agree across backends under one family-wise
   :class:`~repro.verify.AlphaBudget` — the law-level restatement of
   the same contract, which survives even if a future change trades
   exact identity for a documented reseed.
3. **Checkpoint -> kill -> resume.**  A non-SRAM scenario interrupted
   mid-run must resume from its checkpoint and finish bit-identical to
   an uninterrupted run.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core.scenario import run_scenario
from repro.verify import AlphaBudget

pytestmark = pytest.mark.tier2

BACKENDS = ("serial", "shared")

#: One family-wise budget covers every statistical check in this module.
BUDGET = AlphaBudget(1e-4)

SEED = 20110314
WORKERS = 2


def _run(name: str, config, backend: str):
    return run_scenario(name, config, seed=SEED, backend=backend,
                        workers=1 if backend == "serial" else WORKERS)


def _values_equal(ours, theirs) -> None:
    """Recursive bit-level equality over the JSON-able kernel values."""
    assert type(ours) is type(theirs)
    if isinstance(ours, dict):
        assert sorted(ours) == sorted(theirs)
        for key in ours:
            _values_equal(ours[key], theirs[key])
    elif isinstance(ours, (list, tuple)):
        assert len(ours) == len(theirs)
        for mine, other in zip(ours, theirs):
            _values_equal(mine, other)
    elif isinstance(ours, float):
        assert ours == theirs or (np.isnan(ours) and np.isnan(theirs))
    else:
        assert ours == theirs


def _assert_invariant(runs: dict) -> None:
    """Identical (status, value, attempts) triples vs the serial run."""
    reference = runs["serial"]
    for name in BACKENDS[1:]:
        candidate = runs[name]
        assert candidate.backend == name
        assert candidate.n_jobs == reference.n_jobs
        for ours, theirs in zip(candidate.results, reference.results):
            assert ours.key == theirs.key
            assert ours.status == theirs.status
            assert ours.attempts == theirs.attempts
            _values_equal(ours.value, theirs.value)


def _default_config(name: str, n: int):
    from repro.core.scenario import get_scenario

    return get_scenario(name).default_config(n)


@pytest.fixture(scope="module")
def retention_runs():
    config = _default_config("dram.retention", 8)
    return {name: _run("dram.retention", config, name)
            for name in BACKENDS}


@pytest.fixture(scope="module")
def nbti_runs():
    config = _default_config("reliability.nbti", 12)
    return {name: _run("reliability.nbti", config, name)
            for name in BACKENDS}


class TestDramRetention:
    def test_triples_identical(self, retention_runs):
        _assert_invariant(retention_runs)

    def test_reduced_distribution_identical(self, retention_runs):
        reference = retention_runs["serial"].value
        assert reference.shape == (8,)
        for name in BACKENDS[1:]:
            np.testing.assert_array_equal(retention_runs[name].value,
                                          reference)


class TestNbtiPopulation:
    def test_triples_identical(self, nbti_runs):
        _assert_invariant(nbti_runs)

    def test_reduced_devices_identical(self, nbti_runs):
        reference = nbti_runs["serial"].value
        assert len(reference) == 12
        for name in BACKENDS[1:]:
            assert nbti_runs[name].value == reference


class TestSramArray:
    def test_triples_and_array_statistics_identical(self):
        config = _default_config("sram.array", 2)
        runs = {name: _run("sram.array", config, name)
                for name in BACKENDS}
        _assert_invariant(runs)
        reference = runs["serial"].value
        for name in BACKENDS[1:]:
            result = runs[name].value
            assert result.n_slots == reference.n_slots
            for ours, theirs in zip(result.outcomes, reference.outcomes):
                assert ours.index == theirs.index
                assert ours.vt_shifts == theirs.vt_shifts
                assert ours.trap_count == theirs.trap_count
                assert ours.clean_failures == theirs.clean_failures
                assert ours.rtn_failures == theirs.rtn_failures
                assert ours.error_slots == theirs.error_slots


class TestOscillatorSweeps:
    def test_ring_sweep_invariant(self):
        config = _default_config("oscillators.ring", 2)
        runs = {name: _run("oscillators.ring", config, name)
                for name in BACKENDS}
        _assert_invariant(runs)
        reference = runs["serial"].value
        for name in BACKENDS[1:]:
            for ours, theirs in zip(runs[name].value, reference):
                assert ours.n_stages == theirs.n_stages
                np.testing.assert_array_equal(ours.periods, theirs.periods)

    def test_pll_sweep_invariant(self):
        config = _default_config("oscillators.pll", 2)
        runs = {name: _run("oscillators.pll", config, name)
                for name in BACKENDS}
        _assert_invariant(runs)
        for name in BACKENDS[1:]:
            np.testing.assert_array_equal(runs[name].value,
                                          runs["serial"].value)


class TestStatisticalReducersUnderBudget:
    """Law-level agreement of the statistical reducers across backends.

    Bit identity (above) implies these pass trivially today; they exist
    so that a future change that deliberately reseeds or re-partitions
    jobs still has a contract to meet — the *distributions* coming out
    of a scenario must not depend on the backend.
    """

    ALPHA = BUDGET.split(3)

    def test_retention_distribution_backend_agnostic(self, retention_runs):
        reference = retention_runs["serial"].value
        finite = reference[np.isfinite(reference)]
        assert finite.size >= 2, "scan window too short to resolve VRT"
        for name in BACKENDS[1:]:
            sample = retention_runs[name].value
            check = stats.ks_2samp(finite,
                                   sample[np.isfinite(sample)])
            assert check.pvalue > self.ALPHA

    def test_nbti_shift_distribution_backend_agnostic(self, nbti_runs):
        reference = [d.nbti_shift for d in nbti_runs["serial"].value]
        for name in BACKENDS[1:]:
            sample = [d.nbti_shift for d in nbti_runs[name].value]
            check = stats.ks_2samp(reference, sample)
            assert check.pvalue > self.ALPHA

    def test_rtn_rms_distribution_backend_agnostic(self, nbti_runs):
        reference = [d.rtn_rms for d in nbti_runs["serial"].value]
        for name in BACKENDS[1:]:
            sample = [d.rtn_rms for d in nbti_runs[name].value]
            check = stats.ks_2samp(reference, sample)
            assert check.pvalue > self.ALPHA


class TestCheckpointKillResume:
    """The acceptance drill: kill a non-SRAM scenario mid-run, resume,
    and land bit-identical to the uninterrupted run."""

    def test_dram_retention_survives_a_kill(self, tmp_path):
        config = _default_config("dram.retention", 6)
        clean = run_scenario("dram.retention", config, seed=SEED,
                             backend="serial")

        completed = []

        def kill_after_three(result):
            completed.append(int(result.key))
            if len(completed) == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_scenario("dram.retention", config, seed=SEED,
                         backend="serial", checkpoint_dir=tmp_path,
                         checkpoint_every=1, on_result=kill_after_three)
        assert len(completed) == 3

        executed = []
        resumed = run_scenario("dram.retention", config, seed=SEED,
                               backend="shared", workers=WORKERS,
                               checkpoint_dir=tmp_path, resume=True,
                               on_result=lambda r: executed.append(
                                   int(r.key)))
        assert sorted(resumed.resumed) == sorted(completed)
        assert sorted(executed + resumed.resumed) == list(range(6))
        assert resumed.complete
        np.testing.assert_array_equal(resumed.value, clean.value)
