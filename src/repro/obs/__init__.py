"""``repro.obs`` — zero-dependency observability for the whole pipeline.

One switch (:func:`enable` / :func:`disable`), three instruments:

- :class:`Tracer` — nested spans exported as Chrome ``trace_event``
  JSON (``chrome://tracing`` / Perfetto) or JSONL;
- :class:`Metrics` — thread-safe counters / gauges / histograms with
  JSON snapshots that merge across sharded ensemble processes;
- :func:`profiled` — a decorator hooking any function into both.

Instrumentation sites throughout the library (``spice.newton``,
``spice.transient``, ``markov.uniformization``, ``markov.batch``,
``core.resilience``, ``core.ensemble``) call the module-level helpers
below (:func:`span`, :func:`inc`, :func:`observe`, ...).  While
observability is **disabled** — the default — every helper reduces to
one flag test, so the hot paths pay effectively nothing
(benchmark-verified: <2% on ``bench_ensemble_scaling``).

Typical use::

    from repro import obs

    with obs.enable_tracing(trace_path="run.json") as session:
        result = EnsembleRunner(config).run(rng)
    print(result.telemetry.to_json())

or imperatively::

    obs.enable()
    ... run ...
    obs.tracer().write_chrome("run.json")
    snapshot = obs.metrics().snapshot()
    obs.disable()

See ``docs/observability.md`` for the full guide.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import clock
from .metrics import Metrics
from .profile import profiled
from .tracer import NULL_SPAN, Tracer, validate_chrome_trace

__all__ = [
    "Metrics",
    "Tracer",
    "clock",
    "complete_span",
    "disable",
    "enable",
    "enable_tracing",
    "enabled",
    "inc",
    "instant",
    "metrics",
    "observe",
    "profiled",
    "set_gauge",
    "span",
    "tracer",
    "validate_chrome_trace",
]

_enabled: bool = False
_tracer: Tracer | None = None
_metrics: Metrics = Metrics()


def enabled() -> bool:
    """Is observability on?  The one check every hot-path helper makes."""
    return _enabled


def enable(tracer: Tracer | None = None,
           metrics: Metrics | None = None) -> Tracer:
    """Switch instrumentation on; returns the active tracer.

    Passing an existing :class:`Tracer` / :class:`Metrics` lets a
    caller accumulate several runs into one trace or registry;
    otherwise fresh instances are installed.
    """
    global _enabled, _tracer, _metrics
    _tracer = tracer if tracer is not None else Tracer()
    if metrics is not None:
        _metrics = metrics
    elif not _enabled:
        _metrics = Metrics()
    _enabled = True
    return _tracer


def disable() -> None:
    """Switch instrumentation off (recorded data stays readable)."""
    global _enabled
    _enabled = False


def tracer() -> Tracer | None:
    """The active tracer (``None`` when never enabled)."""
    return _tracer


def metrics() -> Metrics:
    """The active metrics registry (always present; empty when off)."""
    return _metrics


@contextmanager
def enable_tracing(trace_path=None, metrics_path=None):
    """Enable observability for a block; optionally export on exit.

    ``trace_path`` gets the Chrome/JSONL trace (by suffix),
    ``metrics_path`` the metrics snapshot as JSON.  The previous
    enabled/disabled state is restored on exit, so nesting a traced
    block inside an already-observed session is safe.
    """
    import json

    was_enabled, previous_tracer = _enabled, _tracer
    active = enable(tracer=previous_tracer if was_enabled else None)
    try:
        yield active
    finally:
        if trace_path is not None:
            active.write(trace_path)
        if metrics_path is not None:
            with open(metrics_path, "w", encoding="utf-8") as handle:
                json.dump(_metrics.snapshot(), handle, indent=2,
                          sort_keys=True)
        if not was_enabled:
            disable()


# ----------------------------------------------------------------------
# Hot-path helpers: one flag test when disabled.

def span(name: str, **args):
    """A tracer span, or the shared no-op span when observability is off."""
    if not _enabled or _tracer is None:
        return NULL_SPAN
    return _tracer.span(name, **args)


def instant(name: str, **args) -> None:
    """Record an instant marker (no-op when off)."""
    if _enabled and _tracer is not None:
        _tracer.instant(name, **args)


def complete_span(name: str, start: float, duration: float, **args) -> None:
    """Record an externally timed span (no-op when off)."""
    if _enabled and _tracer is not None:
        _tracer.complete(name, start, duration, **args)


def inc(name: str, amount: float = 1.0) -> None:
    """Bump a counter (no-op when off)."""
    if _enabled:
        _metrics.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Feed a histogram (no-op when off)."""
    if _enabled:
        _metrics.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op when off)."""
    if _enabled:
        _metrics.set(name, value)
