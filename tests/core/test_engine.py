"""Tests for the execution layer (`repro.core.engine`).

Covers how ``workers`` alone picks the backend at every entry point,
the shared-memory arena round-trip, the adaptive chunk scheduler,
resilience semantics (retry / crash / timeout / fault injection) on the
shared backend, and the compiled propensity-table cache.  The
statistical half of backend invariance lives in
``tests/verify/test_backend_equivalence.py``.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.core.engine import (
    PropensityTableCache,
    SerialBackend,
    SharedMemoryBackend,
    _ArenaBuilder,
    _arena_loads,
    adaptive_chunk_size,
    get_backend,
    propensity_cache,
    resolve_backend,
)
from repro.core.ensemble import EnsembleConfig, EnsembleRunner
from repro.core.experiments import fig8_cell_spec, fig8_pattern
from repro.core.resilience import RetryPolicy, run_jobs
from repro.core.scenario import get_scenario, run_scenario
from repro.devices.technology import TECH_45NM, TECH_90NM
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
# One knob: workers picks the backend
# ======================================================================

class TestWorkersPickTheBackend:
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_at_every_entry_point(self, workers, capsys):
        expected = "shared" if workers == 2 else "serial"
        assert resolve_backend(workers).name == expected

        results = run_jobs(scaled_sum, make_jobs(3), workers=workers)
        assert [r.value for r in results] == \
            [float(GRID.sum() * i) for i in range(3)]

        scan = get_scenario("dram.retention").default_config(2)
        assert run_scenario("dram.retention", scan,
                            workers=workers).backend == expected

        config = EnsembleConfig(n_cells=1, spec=fig8_cell_spec(),
                                pattern=fig8_pattern(bits=(1,)),
                                max_verified_cells=0, workers=workers)
        result = EnsembleRunner(config).run(np.random.default_rng(0))
        assert result.backend == expected

        argv = ["scenario", "run", "dram.retention", "--n", "2"]
        if workers is not None:
            argv += ["--workers", str(workers)]
        capsys.readouterr()
        assert main(argv) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert f"backend {expected}," in title



class TestRegistry:
    def test_builtin_backends_registered(self):
        for name in BACKENDS:
            assert get_backend(name).name == name

    def test_get_backend_by_name_class_and_instance(self):
        # Names are the only lookup key: each call builds a fresh backend.
        by_name = get_backend("shared")
        assert isinstance(by_name, SharedMemoryBackend)
        assert get_backend("shared") is not by_name
        assert isinstance(get_backend("serial"), SerialBackend)
        for not_a_name in (SerialBackend, SharedMemoryBackend()):
            with pytest.raises(ValueError, match="unknown execution backend"):
                get_backend(not_a_name)

    def test_process_is_an_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("process")
        with pytest.raises(TypeError):
            EnsembleConfig(n_cells=1, backend="process")

    def test_resolve_backend_maps_workers_to_a_backend(self):
        assert resolve_backend().name == "serial"
        assert resolve_backend(None).name == "serial"
        assert resolve_backend(0).name == "serial"
        assert resolve_backend(1).name == "serial"
        assert resolve_backend(2).name == "shared"
        assert resolve_backend(8).name == "shared"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("quantum")
        with pytest.raises(ValueError, match="available"):
            get_backend(None)


class TestRunJobsBackendParam:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_dispatches_to_named_backend(self, name):
        from repro import obs

        workers = {"serial": 1, "shared": 2}[name]
        obs.enable()
        try:
            results = run_jobs(scaled_sum, make_jobs(6), workers=workers)
            counters = obs.metrics().snapshot()["counters"]
        finally:
            obs.disable()
            obs.metrics().clear()
        assert [r.value for r in results] == \
            [float(GRID.sum() * i) for i in range(6)]
        # Only the shared backend issues chunks to worker processes.
        assert (counters.get("engine.chunks", 0) > 0) == (name == "shared")


# ======================================================================
# Adaptive chunk scheduling
# ======================================================================

class TestAdaptiveChunkSize:
    def test_deep_queue_gets_large_chunks(self):
        assert adaptive_chunk_size(1000, 4) == 64  # capped at MAX_CHUNK

    def test_tail_shrinks_to_single_jobs(self):
        assert adaptive_chunk_size(3, 4) == 1
        assert adaptive_chunk_size(1, 4) == 1

    def test_never_exceeds_remaining(self):
        for remaining in range(1, 300):
            for workers in (1, 2, 3, 4, 8, 64):
                size = adaptive_chunk_size(remaining, workers)
                assert 1 <= size <= remaining

    def test_zero_remaining(self):
        assert adaptive_chunk_size(0, 4) == 0

    def test_monotone_in_queue_depth(self):
        sizes = [adaptive_chunk_size(r, 4) for r in range(1, 600)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))


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

    def test_unpicklable_job_function_leaves_no_arena_block(
            self, monkeypatch):
        from multiprocessing import shared_memory

        blocks = []
        seal = _ArenaBuilder.seal

        def recording_seal(builder):
            shm, table = seal(builder)
            blocks.append(shm.name)
            return shm, table

        monkeypatch.setattr(_ArenaBuilder, "seal", recording_seal)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            SharedMemoryBackend().run(lambda payload: payload,
                                      make_jobs(2), keys=[0, 1])
        for name in blocks:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

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

    def test_arena_site_inert_on_in_parent_backends(self):
        with inject_faults(arena_rate=1.0, seed=5):
            results = get_backend("serial").run(
                scaled_sum, make_jobs(4), keys=list(range(4)))
        assert all(r.status == "ok" for r in results)


class _Killed(BaseException):
    """Stands in for a kill signal raised from the ``on_result`` hook."""


def _kill(result):
    raise _Killed


class TestSharedBackendWorkersExit:
    """Every worker :meth:`SharedMemoryBackend.run` spawns has exited
    when it returns or raises, on every path."""

    @staticmethod
    def _run(jobs=12, workers=3, **kwargs):
        assert multiprocessing.active_children() == []
        return SharedMemoryBackend().run(
            scaled_sum, make_jobs(jobs), keys=list(range(jobs)),
            workers=workers, **kwargs)

    def test_normal_path(self):
        self._run()
        assert multiprocessing.active_children() == []

    def test_crash_drill(self):
        with inject_faults(crash_rate=0.3, seed=7):
            self._run(24, policy=RetryPolicy(attempts=3))
        assert multiprocessing.active_children() == []

    def test_hang_reaped_by_timeout(self):
        with inject_faults(hang_rate=1.0, hang_seconds=10.0, seed=1):
            self._run(3, workers=2,
                      policy=RetryPolicy(attempts=1, timeout=0.3))
        assert multiprocessing.active_children() == []

    def test_failed_spawn(self, monkeypatch):
        """A spawn that fails part-way still takes down the workers
        already started."""
        from multiprocessing.process import BaseProcess

        start = BaseProcess.start
        started = []

        def start_once(process):
            if started:
                raise OSError("no more processes")
            started.append(process)
            start(process)

        monkeypatch.setattr(BaseProcess, "start", start_once)
        with pytest.raises(OSError, match="no more processes"):
            self._run()
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    def test_base_exception_from_on_result(self):
        with pytest.raises(_Killed):
            self._run(on_result=_kill)
        assert multiprocessing.active_children() == []

    def test_base_exception_while_a_worker_hangs(self):
        """The kill reaches a worker stuck in a job (no timeout set)."""
        with inject_faults(hang_rate=0.5, hang_seconds=10.0, seed=3):
            with pytest.raises(_Killed):
                self._run(on_result=_kill)
        assert multiprocessing.active_children() == []


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
        assert cached.n_traps == direct.n_traps == len(TRAPS)
        assert np.array_equal(cached.times, direct.times)
        for k in range(len(TRAPS)):
            row, expected = cached.single(k), direct.single(k)
            assert np.array_equal(row.capture_values, expected.capture_values)
            assert np.array_equal(row.emission_values,
                                  expected.emission_values)

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
