"""One emission path for runtime and resilience events.

An *event* happens once at a point in a launch: a plan, a worker
attempt, a retry, a quarantine, the launch itself.  Each is a row of
:data:`EVENTS` naming its trace instant ``(name, category)``, its log
record ``(name, level)`` and at most one counter (:class:`Metric`).
:func:`emit` writes every channel the row names from one field set, so
trace args, log fields and metric labels cannot drift apart; each
channel keeps its own gate (an active tracer,
:func:`~repro.observe.log.log_enabled`,
:func:`~repro.observe.metrics.metrics_enabled`), so with everything off
an event costs one check per channel.

Per-chunk *measurements* -- wall and queue-wait histograms, problem,
FLOP and byte totals, gauges -- are not events; the runtime writes them
to the metrics registry directly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from . import log as _log
from . import metrics as _metrics
from .tracer import current_tracer

__all__ = ["EVENTS", "EventRoute", "Metric", "emit"]


@dataclasses.dataclass(frozen=True)
class Metric:
    """The counter an event increments."""

    name: str
    help: str
    #: Event fields that become labels (a missing field labels ``""``).
    labels: Tuple[str, ...] = ()
    #: Event field holding the increment; ``None`` increments by one.
    amount: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class EventRoute:
    """Where one event is written; ``None`` skips that channel."""

    #: ``(name, category)`` of the trace instant.
    trace: Optional[Tuple[str, str]] = None
    #: ``(name, level)`` of the structured-log record.
    log: Optional[Tuple[str, str]] = None
    metric: Optional[Metric] = None


def _resilience(kind: str, *metric) -> EventRoute:
    name = f"resilience.{kind}"
    return EventRoute((name, "resilience"), (name, "warning"), Metric(*metric))


#: Every runtime and resilience event, by the name passed to :func:`emit`.
EVENTS: Dict[str, EventRoute] = {
    "runtime.plan": EventRoute(log=("runtime.plan", "info")),
    "worker.attempt": EventRoute(log=("worker.attempt", "info")),
    "checkpoint.record": EventRoute(log=("checkpoint.record", "debug")),
    "resilience.retry": _resilience(
        "retry",
        "repro_chunk_retries_total",
        "Chunk attempts retried, by op and reason.",
        ("op", "reason"),
    ),
    "resilience.timeout": _resilience(
        "timeout",
        "repro_chunk_timeouts_total",
        "Chunk attempts cancelled at their deadline.",
        ("op",),
    ),
    "resilience.inline": _resilience(
        "inline",
        "repro_chunk_inline_total",
        "Chunks rescued inline after pool retries.",
        ("op",),
    ),
    "resilience.rebuild": _resilience(
        "rebuild",
        "repro_pool_rebuilds_total",
        "Worker pools torn down and rebuilt.",
        ("reason",),
    ),
    "resilience.resume": EventRoute(
        ("resilience.resume", "resilience"),
        ("resilience.resume", "info"),
        Metric(
            "repro_resume_chunks_skipped_total",
            "Chunks restored from a checkpoint journal.",
            amount="skipped",
        ),
    ),
    "resilience.quarantine": EventRoute(
        ("resilience.quarantine", "resilience"), ("runtime.quarantine", "warning")
    ),
    # One per quarantined problem: the labels differ problem to problem.
    "resilience.problem_failure": EventRoute(
        metric=Metric(
            "repro_problem_failures_total",
            "Problems quarantined for numerical breakdown.",
            ("op", "reason"),
        )
    ),
    "runtime.serial_fallback": EventRoute(
        metric=Metric(
            "repro_runtime_serial_fallback_total",
            "Launches degraded from the pool to in-process.",
        )
    ),
    "runtime.launch": EventRoute(
        ("runtime.launch", "runtime"),
        ("runtime.launch", "info"),
        Metric(
            "repro_runtime_launches_total",
            "Batch launches by execution mode.",
            ("mode",),
        ),
    ),
    "observe.attribution_error": EventRoute(
        ("observe.attribution_error", "observe"),
        metric=Metric(
            "repro_attribution_errors_total",
            "Launches whose model attribution failed.",
            ("error",),
        ),
    ),
}


def emit(
    event: str,
    *,
    span_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    **fields,
) -> None:
    """Write ``event`` to every channel its :data:`EVENTS` row names.

    ``span_id``/``parent_id`` stamp the log record (``None`` defaults
    from :func:`~repro.observe.log.span_context`); ``fields`` are the
    trace args, the log fields, and the source of the metric labels and
    amount.
    """
    route = EVENTS[event]
    if route.trace is not None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(*route.trace, **fields)
    if route.log is not None and _log.log_enabled():
        name, level = route.log
        _log.log_event(
            name, level=level, span_id=span_id, parent_id=parent_id, **fields
        )
    metric = route.metric
    if metric is not None and _metrics.metrics_enabled():
        _metrics.default_registry().inc(
            metric.name,
            1.0 if metric.amount is None else fields[metric.amount],
            help=metric.help,
            **{label: fields.get(label, "") for label in metric.labels},
        )
