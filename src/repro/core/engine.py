"""Pluggable execution backends for ensemble-scale job fan-out.

Every fan-out in the package goes through
:func:`repro.core.resilience.run_jobs`, which hands the job list to a
*backend* — a named, registered, swappable object.  Two ship:

``serial``
    The in-process loop (single helper thread for timeout supervision).
``shared``
    The one parallel executor: a persistent worker pool over one
    :mod:`multiprocessing.shared_memory` arena.  Every numpy array in
    every job payload — trace buffers, occupancy tables, bias grids —
    is written into the arena **once** (deduplicated across jobs), and
    workers receive only small pickled descriptors whose array leaves
    resolve to zero-copy read-only views of the arena.  Work is handed
    out in *adaptive chunks*: large while the queue is deep (amortising
    queue latency), shrinking toward single jobs near the tail so no
    worker idles behind a straggler.  A worker that crashes or hangs
    past its job's timeout is reaped (killed), its running job charged
    an attempt, its unstarted chunk-mates requeued for free, and a
    fresh worker respawned in its slot.

:func:`resolve_backend` is the single place a ``(backend, workers)``
request becomes a backend: an explicit backend wins, otherwise
``shared`` runs ``workers > 1`` and ``serial`` everything else.  The
name ``process`` — the retired per-job-pickling process pool — still
resolves, to ``shared``, with a deprecation warning.

Both backends speak the same contract as ``run_jobs``: retry with
backoff per :class:`~repro.core.resilience.RetryPolicy`, per-job
wall-clock timeouts, worker-crash recovery with requeue accounting,
deterministic fault-injection sites (:mod:`repro.testing.faults`), the
``on_result`` checkpoint hook, and one terminal
:class:`~repro.core.resilience.JobResult` per job in job order.  The
obs spans/metrics (``jobs.completed``, ``jobs.retries``,
``resilience.job`` spans, ...) are the same on both because both settle
results through the same bookkeeping.

The module also hosts :class:`PropensityTableCache` — a process-wide
LRU for compiled trap-population propensity tables, keyed by content
(technology card + trap parameters + bias waveform).  Because trap
populations are drawn deterministically from the run seed, identical
cells across a parameter sweep hash to the same key and skip the
surface-potential solve entirely.

See ``docs/performance.md`` for the backend selection guide and the
shared-memory caveats on spawn-start platforms (macOS/Windows).
"""

from __future__ import annotations

import hashlib
import io
import pickle
import struct
import threading
import time
from collections import OrderedDict, deque
from math import ceil

import numpy as np

from .. import obs
from .._deprecation import warn_once
from ..errors import SimulationError, WorkerCrashError, WorkerTimeoutError
from .resilience import (
    JobResult,
    RetryPolicy,
    _execute_job,
    _finish,
    _run_serial,
)

__all__ = [
    "ExecutionBackend",
    "PropensityTableCache",
    "SerialBackend",
    "SharedMemoryBackend",
    "adaptive_chunk_size",
    "available_backends",
    "get_backend",
    "propensity_cache",
    "register_backend",
    "resolve_backend",
]

#: Parent supervision tick [s]: how long the scheduler blocks on the
#: result queue before checking timeouts, dead workers and backoffs.
_TICK = 0.02

#: Arena array alignment [bytes] (cache-line sized).
_ALIGN = 64

#: Tag marking an arena reference inside a pickled payload.
_ARENA_TAG = "repro.arena"


# ======================================================================
# Backend protocol + registry
# ======================================================================

class ExecutionBackend:
    """One way of running ``fn(job)`` over many jobs, resiliently.

    Subclasses implement :meth:`run` with ``run_jobs`` semantics: never
    raise on job failure, return one terminal
    :class:`~repro.core.resilience.JobResult` per job, in job order.
    """

    #: Registry name (``serial`` / ``shared`` / ...).
    name: str = "?"

    def run(self, fn, jobs, *, keys, workers: int | None = None,
            policy: RetryPolicy | None = None,
            on_result=None) -> list:
        raise NotImplementedError


_BACKENDS: dict = {}


def register_backend(cls) -> type:
    """Register an :class:`ExecutionBackend` subclass under ``cls.name``.

    Usable as a decorator; later registrations override earlier ones,
    so tests can shadow a backend with an instrumented double.
    """
    _BACKENDS[cls.name] = cls
    return cls


def available_backends() -> tuple:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(spec) -> ExecutionBackend:
    """Resolve a backend name / class / instance to an instance.

    ``"process"`` is a deprecated alias of ``"shared"`` and is not
    listed by :func:`available_backends`.

    Raises
    ------
    ValueError
        For an unknown backend name.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, type) and issubclass(spec, ExecutionBackend):
        return spec()
    if spec == "process":
        warn_once("execution backend 'process' is deprecated; it now "
                  "runs on 'shared'")
        spec = "shared"
    try:
        cls = _BACKENDS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown execution backend {spec!r}; available: "
            f"{', '.join(available_backends())}") from None
    return cls()


def resolve_backend(backend=None, workers: int | None = None
                    ) -> ExecutionBackend:
    """The backend that runs a ``(backend, workers)`` request.

    An explicit ``backend`` (name, class or instance) goes through
    :func:`get_backend`; ``None`` picks ``shared`` for ``workers > 1``
    and ``serial`` otherwise.  Callers read ``.name`` off the result
    for telemetry.
    """
    if backend is None:
        backend = "shared" if (workers or 0) > 1 else "serial"
    return get_backend(backend)


@register_backend
class SerialBackend(ExecutionBackend):
    """In-process execution (the ``workers<=1`` path of ``run_jobs``)."""

    name = "serial"

    def run(self, fn, jobs, *, keys, workers=None, policy=None,
            on_result=None) -> list:
        policy = policy or RetryPolicy()
        return _run_serial(fn, list(jobs), list(keys), policy, on_result)


# ======================================================================
# Shared-memory arena (zero-copy payload arrays)
# ======================================================================

class _ArenaPickler(pickle.Pickler):
    """Pickler that spills numpy array leaves into an arena builder."""

    def __init__(self, file, builder: "_ArenaBuilder") -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._builder = builder

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray) and obj.dtype != object:
            return (_ARENA_TAG, self._builder.intern(obj))
        return None


class _ArenaUnpickler(pickle.Unpickler):
    """Unpickler resolving arena references to shared-memory views."""

    def __init__(self, file, buffer, table) -> None:
        super().__init__(file)
        self._buffer = buffer
        self._table = table

    def persistent_load(self, pid):
        tag, slot = pid
        if tag != _ARENA_TAG:
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        offset, shape, dtype = self._table[slot]
        view = np.ndarray(shape, dtype=np.dtype(dtype),
                          buffer=self._buffer, offset=offset)
        # Views of one shared block alias each other across every job of
        # every worker: freeze them so job functions cannot race.
        view.flags.writeable = False
        return view


class _ArenaBuilder:
    """Collects payload arrays, then seals them into one shared block.

    Arrays are interned by identity, so a grid shared by every job (the
    ensemble's bias time axis, say) is stored once no matter how many
    payloads reference it.
    """

    def __init__(self) -> None:
        self._arrays: list = []
        self._index: dict = {}
        self.dedup_hits = 0

    def intern(self, array: np.ndarray) -> int:
        slot = self._index.get(id(array))
        if slot is None:
            slot = len(self._arrays)
            self._index[id(array)] = slot
            self._arrays.append(array)
        else:
            self.dedup_hits += 1
        return slot

    def dumps(self, payload) -> bytes:
        buffer = io.BytesIO()
        _ArenaPickler(buffer, self).dump(payload)
        return buffer.getvalue()

    @property
    def n_arrays(self) -> int:
        return len(self._arrays)

    @property
    def nbytes(self) -> int:
        return sum(_aligned(np.ascontiguousarray(a).nbytes)
                   for a in self._arrays)

    def seal(self):
        """Copy the interned arrays into a fresh shared block.

        Returns ``(shm, table)`` where ``table[slot]`` is
        ``(offset, shape, dtype_str)``; ``shm`` is ``None`` when no
        payload carried any array.
        """
        if not self._arrays:
            return None, []
        from multiprocessing import shared_memory

        total = max(1, sum(_aligned(np.ascontiguousarray(a).nbytes)
                           for a in self._arrays))
        shm = shared_memory.SharedMemory(create=True, size=total)
        table = []
        offset = 0
        for array in self._arrays:
            source = np.ascontiguousarray(array)
            destination = np.ndarray(source.shape, dtype=source.dtype,
                                     buffer=shm.buf, offset=offset)
            destination[...] = source
            table.append((offset, source.shape, source.dtype.str))
            offset += _aligned(source.nbytes)
            del destination
        return shm, table


def _aligned(nbytes: int) -> int:
    return max(_ALIGN, (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN)


def _arena_loads(blob: bytes, buffer, table):
    return _ArenaUnpickler(io.BytesIO(blob), buffer, table).load()


def _attach_shared(name: str):
    """Attach to a named block without registering as its owner.

    Python < 3.13 registers *attaching* processes with the resource
    tracker as if they owned the block (``track=`` only landed in
    3.13); under ``fork`` the workers even share the parent's tracker
    process, so attach-side bookkeeping corrupts the owner's and the
    block gets unlinked twice.  Only the parent — the creator — should
    track it, so registration is suppressed for the attach call.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def _skip_shared_memory(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _dump_error(error: BaseException) -> bytes:
    """Pickle an exception for the result queue, with a safe fallback."""
    try:
        blob = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)  # some exceptions pickle but refuse to load
        return blob
    except Exception:
        return pickle.dumps(SimulationError(
            f"{type(error).__name__}: {error}"))


def _shared_worker(worker_id: int, shm_name, table, fn_blob: bytes,
                   plan_blob: bytes, task_queue, result_conn,
                   progress) -> None:
    """Worker-process main loop of the shared backend.

    Module-level and driven purely by picklable arguments, so it runs
    under any multiprocessing start method (``fork`` *and* ``spawn``).
    Per job it stamps ``(job index, start time)`` into the shared
    ``progress`` array — the parent's only window into a worker that
    has stopped answering — runs the job via the same
    :func:`~repro.core.resilience._execute_job` shim as every other
    backend (fault sites fire *here*, in the worker), and ships the
    small result, with the start stamp, back over this worker's
    private pipe.  The pipe is
    deliberately not a shared queue: queue feeder threads serialise
    under one cross-process lock, and a worker dying (crash fault,
    timeout SIGKILL) while its feeder holds that lock would wedge every
    surviving worker's ``put`` forever.  A single-writer pipe has no
    lock to leak, and its sends are synchronous, so a crash between
    jobs can never truncate a frame.  The bulky inputs never travel:
    they are read in place from the arena.
    """
    from ..testing import faults

    shm = None
    buffer = None
    base = 2 * worker_id
    try:
        if shm_name is not None:
            shm = _attach_shared(shm_name)
            buffer = shm.buf
        fn = pickle.loads(fn_blob)
        plan = pickle.loads(plan_blob)
        faults.install(plan)
        while True:
            chunk = task_queue.get()
            if chunk is None:
                break
            for index, attempt, key_blob, payload_blob in chunk:
                started = time.monotonic()
                progress[base + 1] = started
                progress[base] = float(index)
                key = pickle.loads(key_blob)
                try:
                    faults.fire("arena", key, attempt)
                    payload = _arena_loads(payload_blob, buffer, table)
                    value = _execute_job(fn, payload, key, attempt, plan)
                except BaseException as exc:  # noqa: B036 - relayed to parent
                    result_conn.send((index, attempt, False,
                                      _dump_error(exc), started))
                else:
                    result_conn.send((index, attempt, True,
                                      pickle.dumps(
                                          value,
                                          protocol=pickle.HIGHEST_PROTOCOL),
                                      started))
                progress[base] = -1.0
            result_conn.send((None, None, None, None, None))
    finally:
        try:
            result_conn.close()
        except Exception:
            pass
        if shm is not None:
            del buffer
            try:
                shm.close()
            except BufferError:
                # Job results may still hold arena views; the mapping
                # dies with the process either way.
                pass


def adaptive_chunk_size(remaining: int, workers: int, *,
                        factor: float = 2.0, min_chunk: int = 1,
                        max_chunk: int = 64) -> int:
    """Guided self-scheduling: next chunk = remaining / (factor * workers).

    Deep queue -> big chunks (few queue round-trips); near the tail the
    chunk shrinks toward ``min_chunk`` so the last jobs spread across
    all workers instead of idling behind one straggler holding a big
    final chunk.
    """
    if remaining <= 0:
        return 0
    size = ceil(remaining / (factor * max(1, workers)))
    return min(remaining, max(min_chunk, min(max_chunk, size)))


class _WorkerHandle:
    """Parent-side record of one shared-backend worker."""

    __slots__ = ("process", "task_queue", "reader", "outstanding", "idle")

    def __init__(self, process, task_queue, reader) -> None:
        self.process = process
        self.task_queue = task_queue
        self.reader = reader  # receive end of the worker's result pipe
        self.outstanding: dict = {}  # job index -> attempt
        self.idle = True


@register_backend
class SharedMemoryBackend(ExecutionBackend):
    """Persistent worker pool over a shared-memory payload arena.

    Parameters
    ----------
    chunk_factor, min_chunk, max_chunk:
        Knobs of :func:`adaptive_chunk_size`.
    start_method:
        Multiprocessing start method (``None`` uses the platform
        default).  ``spawn`` — the macOS/Windows default — is fully
        supported: workers rebuild state from pickled blobs and attach
        the arena by name.
    """

    name = "shared"

    def __init__(self, *, chunk_factor: float = 2.0, min_chunk: int = 1,
                 max_chunk: int = 64, start_method: str | None = None
                 ) -> None:
        if chunk_factor <= 0.0:
            raise ValueError("chunk_factor must be positive")
        if not (1 <= min_chunk <= max_chunk):
            raise ValueError("need 1 <= min_chunk <= max_chunk")
        self.chunk_factor = float(chunk_factor)
        self.min_chunk = int(min_chunk)
        self.max_chunk = int(max_chunk)
        self.start_method = start_method

    # ------------------------------------------------------------------
    def run(self, fn, jobs, *, keys, workers=None, policy=None,
            on_result=None) -> list:
        import multiprocessing
        from multiprocessing.connection import wait as mp_wait

        from ..testing import faults

        jobs, keys = list(jobs), list(keys)
        policy = policy or RetryPolicy()
        if not jobs:
            return []
        n_workers = max(1, int(workers or 1))
        context = multiprocessing.get_context(self.start_method)

        run_started = obs.clock.monotonic()
        builder = _ArenaBuilder()
        payload_blobs = [builder.dumps(job) for job in jobs]
        key_blobs = [pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
                     for key in keys]
        shm, table = builder.seal()
        if obs.enabled():
            obs.inc("engine.arena.arrays", builder.n_arrays)
            obs.inc("engine.arena.dedup_hits", builder.dedup_hits)
            obs.set_gauge("engine.arena.bytes",
                          float(builder.nbytes if builder.n_arrays else 0))

        fn_blob = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        plan_blob = pickle.dumps(faults.active(),
                                 protocol=pickle.HIGHEST_PROTOCOL)
        # Per worker: [current job index or -1, start stamp].  Raw (no
        # lock): single-writer per slot, word-sized stores.
        progress = context.Array("d", 2 * n_workers, lock=False)
        for slot in range(n_workers):
            progress[2 * slot] = -1.0

        shm_name = shm.name if shm is not None else None

        def spawn(worker_id: int) -> _WorkerHandle:
            # One private result pipe per worker: a dying worker can
            # only ever corrupt its own channel (which reap discards),
            # never a lock shared with its siblings.
            task_queue = context.SimpleQueue()
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_shared_worker,
                args=(worker_id, shm_name, table, fn_blob, plan_blob,
                      task_queue, writer, progress),
                daemon=True)
            process.start()
            writer.close()  # keep EOF detection honest on worker death
            progress[2 * worker_id] = -1.0
            return _WorkerHandle(process, task_queue, reader)

        pool = {worker_id: spawn(worker_id)
                for worker_id in range(n_workers)}
        results = {i: JobResult(key=keys[i]) for i in range(len(jobs))}
        first_started: list = [None] * len(jobs)
        # Per job: time.monotonic() when its latest attempt was handed to
        # a worker — the same clock as the worker's start stamp.
        issued_at: list = [0.0] * len(jobs)
        terminal: set = set()
        pending: deque = deque((i, 1, 0.0) for i in range(len(jobs)))
        # One free (uncharged) requeue per (index, attempt) whose worker
        # died before stamping it as started; a crasher that keeps
        # slipping through unobserved gets charged on the next death.
        requeue_grants: set = set()

        def settle(index: int, attempt: int, error, *, value=None,
                   timed_out: bool = False) -> None:
            now = obs.clock.monotonic()
            if first_started[index] is None:
                first_started[index] = now
            if error is not None and attempt < policy.attempts \
                    and policy.retryable(error):
                pending.append((index, attempt + 1,
                                now + policy.delay(attempt + 1)))
                return
            result = results[index]
            if error is None:
                result.value = value
            _finish(result, error, attempt, first_started[index], timed_out)
            terminal.add(index)
            if on_result is not None:
                on_result(result)

        def crash_or_requeue(ran: bool, index: int, attempt: int,
                             error: BaseException) -> None:
            if not ran and (index, attempt) not in requeue_grants:
                requeue_grants.add((index, attempt))
                pending.appendleft((index, attempt, 0.0))
                if obs.enabled():
                    obs.inc("jobs.requeues")
                return
            settle(index, attempt, error)

        def drop_duplicates(index: int) -> None:
            """Forget queued retries of a job that just resolved."""
            for _ in range(len(pending)):
                item = pending.popleft()
                if item[0] != index:
                    pending.append(item)

        def pop_ready_chunk(now: float) -> list:
            size = adaptive_chunk_size(
                len(pending), n_workers, factor=self.chunk_factor,
                min_chunk=self.min_chunk, max_chunk=self.max_chunk)
            chunk: list = []
            for _ in range(len(pending)):
                if len(chunk) >= size:
                    break
                index, attempt, ready_at = pending.popleft()
                if ready_at > now:
                    pending.append((index, attempt, ready_at))
                    continue
                chunk.append((index, attempt))
            return chunk

        def handle_message(worker_id: int, message) -> None:
            index, attempt, ok, blob, started = message
            handle = pool.get(worker_id)
            if index is None:  # chunk finished
                if handle is not None and not handle.outstanding:
                    handle.idle = True
                return
            if handle is not None:
                handle.outstanding.pop(index, None)
            if index in terminal:
                return  # late duplicate (job was reaped and re-run)
            if obs.enabled():
                obs.observe("jobs.queue_wait_s", started - issued_at[index])
            drop_duplicates(index)
            if ok:
                settle(index, attempt, None, value=pickle.loads(blob))
            else:
                settle(index, attempt, pickle.loads(blob))

        def drain(worker_id: int, handle: _WorkerHandle) -> None:
            """Deliver every complete frame sitting in one worker's pipe."""
            try:
                while handle.reader.poll():
                    handle_message(worker_id, handle.reader.recv())
            except (EOFError, OSError):
                pass  # worker died; crash supervision reaps it

        def reap(worker_id: int, error_factory, *, timed_out: bool,
                 counter: str) -> None:
            """Kill one worker, charge its running job, respawn."""
            handle = pool[worker_id]
            running = int(progress[2 * worker_id])
            # Salvage results the worker completed before dying/hanging.
            # Safe pre-kill: sends are synchronous, so a worker stuck in
            # a job (or already crashed between jobs) holds no half-sent
            # frame.  Post-kill the pipe is suspect and gets closed.
            drain(worker_id, handle)
            try:
                handle.process.kill()
            except Exception:
                pass
            handle.process.join(timeout=2.0)
            try:
                handle.reader.close()
            except Exception:
                pass
            if obs.enabled():
                obs.inc(counter)
            for index, attempt in list(handle.outstanding.items()):
                if index in terminal:
                    continue
                if index == running:
                    if timed_out:
                        settle(index, attempt, error_factory(index, attempt),
                               timed_out=True)
                    else:
                        crash_or_requeue(True, index, attempt,
                                         error_factory(index, attempt))
                else:
                    crash_or_requeue(False, index, attempt,
                                     error_factory(index, attempt))
            pool[worker_id] = spawn(worker_id)

        chunks_issued = 0
        try:
            while len(terminal) < len(jobs):
                now = obs.clock.monotonic()
                for worker_id, handle in pool.items():
                    if not handle.idle or not pending:
                        continue
                    chunk = pop_ready_chunk(now)
                    if not chunk:
                        continue
                    issued = time.monotonic()
                    for index, attempt in chunk:
                        if first_started[index] is None:
                            first_started[index] = now
                        issued_at[index] = issued
                        handle.outstanding[index] = attempt
                    handle.idle = False
                    chunks_issued += 1
                    if obs.enabled():
                        obs.observe("engine.chunk_jobs", float(len(chunk)))
                    handle.task_queue.put(
                        [(index, attempt, key_blobs[index],
                          payload_blobs[index]) for index, attempt in chunk])

                readers = {handle.reader: worker_id
                           for worker_id, handle in pool.items()}
                for reader in mp_wait(list(readers), timeout=_TICK):
                    drain(readers[reader], pool[readers[reader]])

                # Timeout supervision: compare the worker's own stamp
                # against the same system-wide monotonic clock.
                if policy.timeout is not None:
                    wall = time.monotonic()
                    for worker_id, handle in list(pool.items()):
                        running = int(progress[2 * worker_id])
                        if handle.idle or running < 0 \
                                or running not in handle.outstanding:
                            continue
                        if wall - progress[2 * worker_id + 1] \
                                > policy.timeout:
                            reap(worker_id,
                                 lambda i, a: WorkerTimeoutError(
                                     f"job {keys[i]!r} exceeded its "
                                     f"{policy.timeout:g}s budget",
                                     timeout=policy.timeout, attempts=a),
                                 timed_out=True,
                                 counter="jobs.worker_timeouts")

                # Crash supervision: a worker that died takes its
                # running job's attempt with it; unstarted chunk-mates
                # ride one free requeue.
                for worker_id, handle in list(pool.items()):
                    if handle.process.exitcode is None:
                        continue
                    reap(worker_id,
                         lambda i, a: WorkerCrashError(
                             f"worker died while running job {keys[i]!r}",
                             attempts=a),
                         timed_out=False, counter="jobs.pool_respawns")
        finally:
            for handle in pool.values():
                if handle.process.exitcode is None:
                    try:
                        handle.task_queue.put(None)
                    except Exception:
                        pass
            deadline = time.monotonic() + 2.0
            for handle in pool.values():
                handle.process.join(
                    timeout=max(0.0, deadline - time.monotonic()))
                if handle.process.exitcode is None:
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
                try:
                    handle.reader.close()
                except Exception:
                    pass
            if shm is not None:
                shm.close()
                shm.unlink()
            if obs.enabled():
                elapsed = obs.clock.monotonic() - run_started
                obs.inc("engine.chunks", chunks_issued)
                obs.complete_span("engine.shared.run", run_started, elapsed,
                                  jobs=len(jobs), workers=n_workers,
                                  chunks=chunks_issued,
                                  arena_arrays=builder.n_arrays)
        return [results[i] for i in range(len(jobs))]


# ======================================================================
# Compiled propensity-table cache
# ======================================================================

class PropensityTableCache:
    """Process-wide LRU of compiled trap-population propensity tables.

    Building a :class:`~repro.markov.batch.BatchPropensity` for a
    transistor's whole trap population runs the surface-potential solve
    on every bias sample — the single most expensive *deterministic*
    step of the ensemble pipeline.  Its inputs are fully determined by
    the technology card, the trap parameters and the bias waveform, and
    trap populations are themselves drawn deterministically from the
    run seed: across a sweep (same card, same seed, varying
    ``rtn_scale`` / thresholds / backends) every cell rebuilds *the
    same tables*.  This cache keys the compiled table by a BLAKE2b
    digest of that content, so repeated cells cost one dict lookup.

    Trap labels are excluded from the key — they never influence rates.
    Entries are immutable (:class:`BatchPropensity` is frozen) and safe
    to share across runs and threads.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- keys ------------------------------------------------------------
    @staticmethod
    def population_key(traps, tech, times, v_gs) -> str:
        """Content digest of one ``population_propensity`` call."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(_technology_fingerprint(tech))
        for trap in traps:
            digest.update(struct.pack(
                "<ddd", float(trap.y_tr), float(trap.e_tr),
                float(trap.degeneracy)))
        times = np.ascontiguousarray(np.asarray(times, dtype=float))
        v_gs = np.ascontiguousarray(np.asarray(v_gs, dtype=float))
        digest.update(struct.pack("<qq", times.size, v_gs.size))
        digest.update(times.tobytes())
        digest.update(v_gs.tobytes())
        return digest.hexdigest()

    # -- lookup ----------------------------------------------------------
    def population(self, traps, tech, times, v_gs):
        """``population_propensity`` with content-keyed memoisation."""
        from ..traps.propensity import population_propensity

        key = self.population_key(traps, tech, times, v_gs)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if obs.enabled():
                    obs.inc("engine.cache.hits")
                return entry
            self.misses += 1
        if obs.enabled():
            obs.inc("engine.cache.misses")
        table = population_propensity(traps, tech, times, v_gs)
        with self._lock:
            self._entries[key] = table
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return table

    # -- management ------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries),
                    "maxsize": self.maxsize}


def _technology_fingerprint(tech) -> bytes:
    """Stable content identity of a technology card."""
    import dataclasses

    if dataclasses.is_dataclass(tech):
        fields = dataclasses.asdict(tech)
        return repr(sorted(fields.items())).encode()
    return repr(tech).encode()


_POPULATION_CACHE = PropensityTableCache()


def propensity_cache() -> PropensityTableCache:
    """The process-wide :class:`PropensityTableCache` singleton."""
    return _POPULATION_CACHE
