"""Structured run telemetry: the redesigned diagnostics surface.

:class:`RunTelemetry` is the one JSON-serialisable object that replaces
the ad-hoc diagnostics dictionaries the ensemble used to hand out
(per-cell status fields read off the outcome list).  It is
keyword-only by construction, versioned by a ``schema`` tag, and
round-trips through JSON losslessly — the contract the ``report`` CLI
subcommand and downstream dashboards consume.

:func:`telemetry_report` renders a telemetry document (object, dict or
file) as human-readable tables.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["RunTelemetry", "load_telemetry", "telemetry_report"]

#: Version tag stamped into every serialised telemetry document.
TELEMETRY_SCHEMA = "repro.telemetry/1"


@dataclass(kw_only=True)
class RunTelemetry:
    """Everything one run wants to tell you, in one JSON-able object.

    Attributes
    ----------
    schema:
        Format version tag (``repro.telemetry/1``).
    scenario:
        Registry name of the scenario that produced the run (empty for
        documents written by pre-scenario pipelines).
    n_cells, n_slots:
        Ensemble size and pattern slots per cell.  Scenario runs reuse
        ``n_cells`` for their job count.
    backend:
        Execution backend of the verification pass (``serial`` /
        ``shared``; pre-engine documents leave it empty).
    counts:
        Resilience status -> cell count (``ok/recovered/failed/timeout``).
    complete:
        Every cell reached a usable outcome.
    flagged, verified, failing, traps:
        Screening/verification totals across the ensemble.
    kernel:
        Transistor name -> batched-kernel accounting
        (``candidates``, ``accepted``, ``acceptance_ratio``,
        ``rate_bound``, and ``fallback`` — the degradation message when
        the batched sweep fell back to the scalar kernel, else None).
    errors:
        Terminal per-cell failures (cell, status, error, details).
    cells:
        Per-cell diagnostic records (index, status, attempts, error,
        error_details, flagged, verified, rtn_failures, screen_metric).
    timings:
        Pipeline phase -> wall-clock seconds (always recorded; cheap).
    metrics:
        A :meth:`repro.obs.metrics.Metrics.snapshot` taken at the end
        of the run ({} when observability was disabled).
    """

    schema: str = TELEMETRY_SCHEMA
    scenario: str = ""
    n_cells: int = 0
    n_slots: int = 0
    backend: str = ""
    counts: dict = field(default_factory=dict)
    complete: bool = True
    flagged: int = 0
    verified: int = 0
    failing: int = 0
    traps: int = 0
    kernel: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunTelemetry":
        """Rebuild from a dict, ignoring unknown keys (forward compat)."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in dict(data).items() if k in known})

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "RunTelemetry":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))


def load_telemetry(source) -> RunTelemetry:
    """Coerce a path / JSON string / dict / RunTelemetry to the object."""
    if isinstance(source, RunTelemetry):
        return source
    if isinstance(source, dict):
        return RunTelemetry.from_dict(source)
    text = Path(source).read_text(encoding="utf-8") \
        if not str(source).lstrip().startswith("{") else str(source)
    return RunTelemetry.from_dict(json.loads(text))


def telemetry_report(source) -> str:
    """Render a telemetry document as human-readable tables.

    ``source`` may be a :class:`RunTelemetry`, a dict, a JSON string or
    a path to a telemetry JSON file — whatever ``--metrics-out`` wrote.
    """
    from ..core.report import format_table

    data = load_telemetry(source)
    sections: list = []

    rows = [[status, count] for status, count in data.counts.items()]
    rows.append(["complete", "yes" if data.complete else "NO"])
    backend = f", backend {data.backend}" if data.backend else ""
    scenario = f"scenario {data.scenario}, " if data.scenario else ""
    sections.append(format_table(
        ["status", "cells"], rows,
        title=f"Run telemetry ({scenario}{data.n_cells} cells, "
              f"{data.traps} traps, flagged {data.flagged}, "
              f"verified {data.verified}, "
              f"failing {data.failing}{backend})"))

    if data.kernel:
        rows = [[name,
                 entry.get("candidates", 0),
                 entry.get("accepted", 0),
                 f"{entry.get('acceptance_ratio', 0.0):.4f}",
                 f"{entry.get('rate_bound', 0.0):.3g}",
                 entry.get("fallback") or "-"]
                for name, entry in data.kernel.items()]
        sections.append(format_table(
            ["transistor", "candidates", "accepted", "acceptance",
             "rate bound", "fallback"], rows, title="Batched kernel"))

    if data.timings:
        rows = [[phase, f"{seconds * 1e3:.2f}"]
                for phase, seconds in data.timings.items()]
        sections.append(format_table(["phase", "wall [ms]"], rows,
                                     title="Pipeline timings"))

    if data.errors:
        rows = [[entry.get("cell"), entry.get("status"),
                 str(entry.get("error"))[:60]] for entry in data.errors]
        sections.append(format_table(["cell", "status", "error"], rows,
                                     title="Terminal failures"))

    counters = data.metrics.get("counters", {})
    if counters:
        rows = [[name, f"{value:g}"]
                for name, value in sorted(counters.items())]
        sections.append(format_table(["counter", "value"], rows,
                                     title="Metrics: counters"))
    histograms = data.metrics.get("histograms", {})
    if histograms:
        rows = [[name, h.get("count", 0), f"{h.get('mean', 0.0):.3g}",
                 f"{h.get('min') if h.get('min') is not None else 0:.3g}",
                 f"{h.get('max') if h.get('max') is not None else 0:.3g}"]
                for name, h in sorted(histograms.items())]
        sections.append(format_table(
            ["histogram", "count", "mean", "min", "max"], rows,
            title="Metrics: histograms"))

    return "\n\n".join(sections)
