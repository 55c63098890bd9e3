"""Deterministic fault injection for resilience testing.

The ensemble engine and the fault-tolerant executor expose a handful of
*fault sites* — named points where, under test, a failure can be forced:

``job``
    Raise a :class:`~repro.errors.ConvergenceError` before a sharded job
    body runs (models a cell whose verification transient diverges).
``worker``
    Kill the hosting worker process with ``os._exit`` (models a crashed
    ``shared`` worker; in-process execution raises
    :class:`~repro.errors.WorkerCrashError` instead, since taking down
    the interpreter would take the test with it).
``hang``
    Sleep for :attr:`FaultPlan.hang_seconds` (models a hung worker that
    only a per-job timeout can clear).
``batch``
    Report a fault at the batched trap kernel so the ensemble degrades
    to the exact scalar per-trap kernel.
``nan``
    Report a fault at RTN-trace synthesis so the affected cell's current
    samples are corrupted to NaN (exercises the non-finite guard in
    :class:`~repro.rtn.trace.RTNTrace`).
``arena``
    Raise a :class:`~repro.errors.SimulationError` in a shared-memory
    worker just before it reads a job's payload, keyed by ``(job key,
    attempt)``.  A worker decodes the run's job list once, on its first
    job, and the site fires before that decode too (models a corrupted
    payload descriptor; exercises the shared backend's retry path
    without touching the job function).
``scenario``
    Raise a :class:`~repro.errors.SimulationError` in the scenario job
    shim, before the kernel runs, keyed by ``(scenario name, job
    index)`` — the workload-agnostic failure every migrated scenario
    inherits through :func:`repro.core.scenario.execute_scenario_job`.

Decisions are *deterministic*: each is a hash of
``(seed, site, key, attempt)``, so a given cell faults (or not)
regardless of which worker picks it up, in which order, or whether
that worker has been respawned — and a retry of the same job gets a fresh,
independent draw.  That is what makes "crash 20 % of verify workers"
reproducible across runs and resumes.

Usage::

    from repro.testing.faults import inject_faults

    with inject_faults(crash_rate=0.2, convergence_rate=0.1, seed=7):
        result = EnsembleRunner(config).run(rng)

The harness is inert (near-zero overhead, a single ``is None`` check)
outside the context manager.  Plans cross process boundaries explicitly:
the executor snapshots the active plan with :func:`active` and installs
it in each worker via :func:`install`, so injection works under any
multiprocessing start method.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import ConvergenceError, SimulationError, WorkerCrashError
from .seeding import uniform_from_tags

__all__ = [
    "FaultPlan",
    "active",
    "fire",
    "inject_faults",
    "install",
    "kernel_bias",
    "should",
]

#: The armed plan, or ``None`` (the common, inert case).
_ACTIVE: "FaultPlan | None" = None


@dataclass(frozen=True)
class FaultPlan:
    """Rates and knobs of one injection campaign.

    Attributes
    ----------
    seed:
        Decision-hash seed; same seed, same faults.
    convergence_rate:
        Probability a ``job`` site raises :class:`ConvergenceError`.
    crash_rate:
        Probability a ``worker`` site kills its process.
    hang_rate:
        Probability a ``hang`` site sleeps.
    hang_seconds:
        How long a hung job sleeps [s].
    nan_rate:
        Probability a ``nan`` site corrupts a cell's RTN currents.
    batch_rate:
        Probability a ``batch`` site fails the batched trap kernel.
    arena_rate:
        Probability an ``arena`` site fails a shared-memory payload
        decode.
    scenario_rate:
        Probability a ``scenario`` site fails a scenario job before its
        kernel runs.
    acceptance_bias:
        Additive perturbation of the batched kernel's fill-acceptance
        probability (an off-by-epsilon *physics* bug, not a crash).
        The kernel stays numerically healthy — trajectories remain
        valid — but their law drifts from the exact chain, which is
        exactly the class of silent regression the statistical oracles
        of :mod:`repro.verify` exist to catch.  Zero (the default)
        leaves the kernel exact.
    """

    seed: int = 0
    convergence_rate: float = 0.0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    hang_seconds: float = 30.0
    nan_rate: float = 0.0
    batch_rate: float = 0.0
    arena_rate: float = 0.0
    scenario_rate: float = 0.0
    acceptance_bias: float = 0.0

    def rate_for(self, site: str) -> float:
        return {
            "job": self.convergence_rate,
            "worker": self.crash_rate,
            "hang": self.hang_rate,
            "nan": self.nan_rate,
            "batch": self.batch_rate,
            "arena": self.arena_rate,
            "scenario": self.scenario_rate,
        }.get(site, 0.0)

    def decide(self, site: str, key: object, attempt: int = 0) -> bool:
        rate = self.rate_for(site)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        # The shared seed-spawning convention (repro.testing.seeding)
        # reproduces the historical token hash bit-for-bit; ``key`` has
        # always contributed its repr, even for strings.
        return uniform_from_tags(self.seed, site, repr(key), attempt) < rate


def active() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _ACTIVE


def install(plan: FaultPlan | None) -> None:
    """Arm ``plan`` in *this* process (executor -> worker hand-off)."""
    global _ACTIVE
    _ACTIVE = plan


def kernel_bias() -> float:
    """Armed acceptance-probability perturbation (0.0 when inert).

    Read by the batched uniformisation kernel on each sweep; the check
    is a single ``is None`` in the common case, so the hook costs
    nothing outside an injection campaign.
    """
    plan = _ACTIVE
    return 0.0 if plan is None else plan.acceptance_bias


def should(site: str, key: object, attempt: int = 0) -> bool:
    """Pure query: would this site fault?  (No side effect.)"""
    plan = _ACTIVE
    return plan is not None and plan.decide(site, key, attempt)


def fire(site: str, key: object, attempt: int = 0) -> None:
    """Act on a fault site: raise, sleep or kill per the armed plan."""
    plan = _ACTIVE
    if plan is None or not plan.decide(site, key, attempt):
        return
    if site == "job":
        raise ConvergenceError(
            f"injected convergence failure (job {key!r}, attempt {attempt})",
            iterations=7, residual=0.123,
        )
    if site == "worker":
        # A real crash only if this process is expendable; otherwise an
        # exception stands in for it so the host interpreter survives.
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(3)
        raise WorkerCrashError(
            f"injected worker crash (job {key!r}, attempt {attempt})")
    if site == "hang":
        time.sleep(plan.hang_seconds)
    if site == "arena":
        raise SimulationError(
            f"injected arena decode failure (job {key!r}, "
            f"attempt {attempt})")
    if site == "scenario":
        raise SimulationError(
            f"injected scenario job failure (job {key!r}, "
            f"attempt {attempt})")


@contextmanager
def inject_faults(**kwargs):
    """Arm a :class:`FaultPlan` for the duration of the ``with`` block."""
    plan = FaultPlan(**kwargs)
    install(plan)
    try:
        yield plan
    finally:
        install(None)
