"""Tests for the pluggable execution-backend layer (`repro.core.engine`).

Covers the backend registry, the shared-memory arena round-trip, the
adaptive chunk scheduler, resilience semantics (retry / crash / timeout /
fault injection) on the shared backend, the compiled propensity-table
cache, and the ``run_jobs(backend=...)`` / ``EnsembleConfig(backend=...)``
integration.  The statistical half of backend invariance lives in
``tests/verify/test_backend_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import (
    ExecutionBackend,
    PropensityTableCache,
    SerialBackend,
    SharedMemoryBackend,
    _ArenaBuilder,
    _arena_loads,
    adaptive_chunk_size,
    available_backends,
    get_backend,
    propensity_cache,
    register_backend,
    resolve_backend,
)
from repro.core.resilience import RetryPolicy, run_jobs
from repro.devices.technology import TECH_45NM, TECH_90NM
from repro.errors import SimulationError
from repro.markov.batch import BatchPropensity
from repro.testing.faults import inject_faults
from repro.traps.propensity import population_propensity
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1

BACKENDS = ("serial", "shared")

#: Shared payload array — interned once in the arena across all jobs.
GRID = np.arange(4096, dtype=float)


def scaled_sum(payload):
    """Module-level job function (picklable for worker processes)."""
    array, scale = payload
    return float(array.sum() * scale)


def echo_array(payload):
    """Returns a copy of its array leaf (exercises result pickling)."""
    array, scale = payload
    return array * scale


def make_jobs(n: int) -> list:
    return [(GRID, i) for i in range(n)]


# ======================================================================
# Registry
# ======================================================================

class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_get_backend_by_name_class_and_instance(self):
        by_name = get_backend("shared")
        assert isinstance(by_name, SharedMemoryBackend)
        assert isinstance(get_backend(SerialBackend), SerialBackend)
        instance = SharedMemoryBackend()
        assert get_backend(instance) is instance

    def test_process_alias_resolves_to_shared_and_warns_once(self):
        from repro.core.ensemble import EnsembleConfig

        with pytest.warns(DeprecationWarning, match="'process'") as caught:
            backends = [get_backend("process") for _ in range(3)]
        assert all(isinstance(b, SharedMemoryBackend) for b in backends)
        assert len(caught) == 1
        assert "process" not in available_backends()
        with pytest.warns(DeprecationWarning, match="'process'"):
            assert EnsembleConfig(n_cells=1, backend="process").backend \
                == "process"

    def test_resolve_backend_maps_workers_to_a_backend(self):
        assert resolve_backend(None, None).name == "serial"
        assert resolve_backend(None, 1).name == "serial"
        assert resolve_backend(None, 2).name == "shared"
        assert resolve_backend("serial", 4).name == "serial"
        instance = SharedMemoryBackend()
        assert resolve_backend(instance, 1) is instance

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("quantum")
        with pytest.raises(ValueError, match="available"):
            get_backend(None)

    def test_registration_override_and_restore(self):
        class Shadow(SerialBackend):
            name = "serial"

        try:
            register_backend(Shadow)
            assert isinstance(get_backend("serial"), Shadow)
        finally:
            register_backend(SerialBackend)
        assert type(get_backend("serial")) is SerialBackend

    def test_backend_base_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ExecutionBackend().run(scaled_sum, [], keys=[])


# ======================================================================
# Adaptive chunk scheduling
# ======================================================================

class TestAdaptiveChunkSize:
    def test_deep_queue_gets_large_chunks(self):
        assert adaptive_chunk_size(1000, 4) == 64  # capped at max_chunk

    def test_tail_shrinks_to_single_jobs(self):
        assert adaptive_chunk_size(3, 4) == 1
        assert adaptive_chunk_size(1, 4) == 1

    def test_never_exceeds_remaining(self):
        assert adaptive_chunk_size(2, 1, min_chunk=8) == 2

    def test_zero_remaining(self):
        assert adaptive_chunk_size(0, 4) == 0

    def test_monotone_in_queue_depth(self):
        sizes = [adaptive_chunk_size(r, 4) for r in range(1, 600)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="chunk_factor"):
            SharedMemoryBackend(chunk_factor=0.0)
        with pytest.raises(ValueError, match="min_chunk"):
            SharedMemoryBackend(min_chunk=8, max_chunk=4)


# ======================================================================
# Shared-memory arena
# ======================================================================

class TestArena:
    def test_round_trip_is_bit_identical(self):
        builder = _ArenaBuilder()
        payload = {"grid": GRID, "nested": [(GRID[:7], 3), "tag"],
                   "matrix": np.arange(12.0).reshape(3, 4)}
        blob = builder.dumps(payload)
        shm, table = builder.seal()
        try:
            restored = _arena_loads(blob, shm.buf, table)
            np.testing.assert_array_equal(restored["grid"], GRID)
            np.testing.assert_array_equal(restored["nested"][0][0], GRID[:7])
            assert restored["nested"][0][1] == 3
            np.testing.assert_array_equal(
                restored["matrix"], np.arange(12.0).reshape(3, 4))
            # Arena views alias one block across jobs: must be frozen.
            assert not restored["grid"].flags.writeable
            del restored
        finally:
            shm.close()
            shm.unlink()

    def test_identical_arrays_interned_once(self):
        builder = _ArenaBuilder()
        for scale in range(10):
            builder.dumps((GRID, scale))
        assert builder.n_arrays == 1
        assert builder.dedup_hits == 9

    def test_array_free_payload_needs_no_block(self):
        builder = _ArenaBuilder()
        blob = builder.dumps({"answer": 42})
        shm, table = builder.seal()
        assert shm is None
        assert _arena_loads(blob, None, table) == {"answer": 42}


# ======================================================================
# Backend contract (both backends)
# ======================================================================

class TestBackendContract:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_values_in_job_order(self, name):
        backend = get_backend(name)
        results = backend.run(scaled_sum, make_jobs(12),
                              keys=list(range(12)), workers=3)
        assert [r.key for r in results] == list(range(12))
        assert all(r.status == "ok" for r in results)
        expected = [float(GRID.sum() * i) for i in range(12)]
        assert [r.value for r in results] == expected

    @pytest.mark.parametrize("name", BACKENDS)
    def test_array_results_exact(self, name):
        results = get_backend(name).run(echo_array, make_jobs(4),
                                        keys=list(range(4)), workers=2)
        for result in results:
            np.testing.assert_array_equal(result.value,
                                          GRID * result.key)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_jobs(self, name):
        assert get_backend(name).run(scaled_sum, [], keys=[]) == []

    @pytest.mark.parametrize("name", BACKENDS)
    def test_on_result_fires_once_per_job(self, name):
        seen: list = []
        get_backend(name).run(scaled_sum, make_jobs(8),
                              keys=list(range(8)), workers=2,
                              on_result=lambda r: seen.append(r.key))
        assert sorted(seen) == list(range(8))

    def test_convergence_fault_statuses_invariant_across_backends(self):
        """Per-job fault decisions hash (site, key, attempt) — the
        executing backend must not change any terminal status/value."""
        runs = {}
        for name in BACKENDS:
            with inject_faults(convergence_rate=0.4, seed=7):
                results = get_backend(name).run(
                    scaled_sum, make_jobs(24), keys=list(range(24)),
                    workers=3, policy=RetryPolicy(attempts=3))
            runs[name] = [(r.status, r.value, r.attempts)
                          for r in results]
        assert runs["serial"] == runs["shared"]
        statuses = {status for status, _, _ in runs["serial"]}
        assert "recovered" in statuses  # the drill actually exercised retries


# ======================================================================
# Shared backend resilience semantics
# ======================================================================

class TestSharedBackendResilience:
    def test_workers_none_still_uses_a_real_worker(self):
        results = SharedMemoryBackend().run(
            scaled_sum, make_jobs(3), keys=list(range(3)), workers=None)
        assert [r.value for r in results] == \
            [float(GRID.sum() * i) for i in range(3)]

    def test_crash_drill_reaches_terminal_states(self):
        with inject_faults(crash_rate=0.3, seed=7):
            results = SharedMemoryBackend().run(
                scaled_sum, make_jobs(24), keys=list(range(24)),
                workers=3, policy=RetryPolicy(attempts=3))
        assert len(results) == 24
        assert all(r.status in ("ok", "recovered", "failed")
                   for r in results)
        for result in results:
            if result.succeeded:
                assert result.value == float(GRID.sum() * result.key)

    def test_hang_reaped_as_timeout(self):
        with inject_faults(hang_rate=1.0, hang_seconds=10.0, seed=1):
            results = SharedMemoryBackend().run(
                scaled_sum, make_jobs(3), keys=list(range(3)), workers=2,
                policy=RetryPolicy(attempts=1, timeout=0.3))
        assert [r.status for r in results] == ["timeout"] * 3
        assert all(r.error_type == "WorkerTimeoutError" for r in results)

    def test_arena_fault_site_fails_the_decode(self):
        """The shared-only ``arena`` site models a corrupted payload
        descriptor: with rate 1 every attempt fails, and the policy's
        retry ladder is consumed in the worker-side decode path."""
        with inject_faults(arena_rate=1.0, seed=5):
            results = SharedMemoryBackend().run(
                scaled_sum, make_jobs(4), keys=list(range(4)), workers=2,
                policy=RetryPolicy(attempts=2))
        assert all(r.status == "failed" for r in results)
        assert all("arena decode" in r.error for r in results)
        assert all(r.attempts == 2 for r in results)

    def test_arena_site_inert_on_in_parent_backends(self):
        with inject_faults(arena_rate=1.0, seed=5):
            results = get_backend("serial").run(
                scaled_sum, make_jobs(4), keys=list(range(4)))
        assert all(r.status == "ok" for r in results)


# ======================================================================
# run_jobs / ensemble integration
# ======================================================================

class TestRunJobsBackendParam:
    # "process" is the deprecated alias of "shared"; it still dispatches.
    @pytest.mark.filterwarnings("ignore:execution backend 'process'")
    @pytest.mark.parametrize("name", BACKENDS + ("process",))
    def test_dispatches_to_named_backend(self, name):
        results = run_jobs(scaled_sum, make_jobs(6), workers=2,
                           backend=name)
        assert [r.value for r in results] == \
            [float(GRID.sum() * i) for i in range(6)]

    def test_default_backend_untouched(self):
        results = run_jobs(scaled_sum, make_jobs(3))
        assert all(r.status == "ok" for r in results)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            run_jobs(scaled_sum, make_jobs(1), backend="warp")

    def test_parallel_run_records_queue_wait_per_job(self):
        from repro import obs

        obs.enable()
        try:
            results = run_jobs(scaled_sum, make_jobs(6), workers=2)
            snapshot = obs.metrics().snapshot()
        finally:
            obs.disable()
            obs.metrics().clear()
        assert all(r.status == "ok" for r in results)
        wait = snapshot["histograms"]["jobs.queue_wait_s"]
        assert wait["count"] == 6
        assert wait["min"] >= 0.0

    def test_ensemble_config_validates_backend(self):
        from repro.core.ensemble import EnsembleConfig

        with pytest.raises(ValueError, match="unknown execution backend"):
            EnsembleConfig(n_cells=1, backend="warp")
        assert EnsembleConfig(n_cells=1, backend="shared").backend == \
            "shared"


# ======================================================================
# Propensity-table cache
# ======================================================================

@pytest.fixture
def bias_grid():
    times = np.linspace(0.0, 1e-3, 64)
    return times, np.full_like(times, 0.8)


TRAPS = [Trap(y_tr=0.4e-9, e_tr=0.10, label="a"),
         Trap(y_tr=0.6e-9, e_tr=-0.05)]


class TestPropensityTableCache:
    def test_hit_returns_the_same_table(self, bias_grid):
        times, v_gs = bias_grid
        cache = PropensityTableCache(maxsize=4)
        first = cache.population(TRAPS, TECH_90NM, times, v_gs)
        assert cache.population(TRAPS, TECH_90NM, times, v_gs) is first
        assert cache.info() == {"hits": 1, "misses": 1, "entries": 1,
                                "maxsize": 4}

    def test_cached_table_matches_direct_build(self, bias_grid):
        times, v_gs = bias_grid
        cache = PropensityTableCache()
        cached = cache.population(TRAPS, TECH_90NM, times, v_gs)
        direct = population_propensity(TRAPS, TECH_90NM, times, v_gs)
        assert cached.digest() == direct.digest()

    def test_labels_do_not_affect_the_key(self, bias_grid):
        times, v_gs = bias_grid
        cache = PropensityTableCache()
        first = cache.population(TRAPS, TECH_90NM, times, v_gs)
        relabeled = [Trap(y_tr=t.y_tr, e_tr=t.e_tr, label="x")
                     for t in TRAPS]
        assert cache.population(relabeled, TECH_90NM, times, v_gs) is first

    def test_physics_inputs_do_affect_the_key(self, bias_grid):
        times, v_gs = bias_grid
        cache = PropensityTableCache()
        base = cache.population(TRAPS, TECH_90NM, times, v_gs)
        assert cache.population(TRAPS, TECH_45NM, times, v_gs) is not base
        assert cache.population(TRAPS[:1], TECH_90NM, times, v_gs) \
            is not base
        assert cache.population(TRAPS, TECH_90NM, times, v_gs * 0.9) \
            is not base

    def test_lru_eviction(self, bias_grid):
        times, v_gs = bias_grid
        cache = PropensityTableCache(maxsize=2)
        for k in range(4):
            cache.population([Trap(y_tr=(3 + k) * 1e-10, e_tr=0.2)],
                             TECH_90NM, times, v_gs)
        assert cache.info()["entries"] == 2

    def test_singleton_and_validation(self):
        assert propensity_cache() is propensity_cache()
        with pytest.raises(ValueError, match="maxsize"):
            PropensityTableCache(maxsize=0)


class TestBatchPropensityDigest:
    def test_equal_content_equal_digest(self):
        times = np.array([0.0, 1.0])
        a = BatchPropensity(times=times, capture=np.ones((2, 2)),
                            emission=np.full((2, 2), 0.5))
        b = BatchPropensity(times=times.copy(),
                            capture=np.ones((2, 2)),
                            emission=np.full((2, 2), 0.5))
        assert a.digest() == b.digest()
        assert a.digest() is a.digest()  # cached

    def test_content_changes_change_the_digest(self):
        times = np.array([0.0, 1.0])
        a = BatchPropensity(times=times, capture=np.ones((2, 2)),
                            emission=np.full((2, 2), 0.5))
        b = BatchPropensity(times=times, capture=np.ones((2, 2)),
                            emission=np.full((2, 2), 0.6))
        assert a.digest() != b.digest()
