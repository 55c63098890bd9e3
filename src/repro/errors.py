"""Exception hierarchy for the SAMURAI reproduction library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch library failures without also catching programming errors
such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """A physical model received parameters outside its validity range."""


class SimulationError(ReproError):
    """A stochastic or circuit simulation could not be carried out."""


class ConvergenceError(SimulationError):
    """An iterative solver (Newton, stepping strategy) failed to converge."""

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class WorkerTimeoutError(SimulationError):
    """A sharded job exceeded its per-job wall-clock budget.

    Raised (or recorded on the job outcome) by the fault-tolerant
    executor when a worker hangs past :attr:`RetryPolicy.timeout`.
    """

    def __init__(self, message: str, timeout: float | None = None,
                 attempts: int | None = None) -> None:
        super().__init__(message)
        self.timeout = timeout
        self.attempts = attempts


class WorkerCrashError(SimulationError):
    """A worker process died mid-job (it is reaped and respawned)."""

    def __init__(self, message: str, attempts: int | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts


class RecoveredWarning(UserWarning):
    """A solver or executor recovered from a failure via its ladder.

    Carries enough context (``stage``, ``iterations``, ``residual``) for
    logs to say *how* the recovery happened, not just that it did.
    """

    def __init__(self, message: str, stage: str | None = None,
                 iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.stage = stage
        self.iterations = iterations
        self.residual = residual


class NetlistError(ReproError):
    """A circuit description is malformed (unknown node, bad card, ...)."""


class AnalysisError(ReproError):
    """A post-processing analysis received unusable data."""
