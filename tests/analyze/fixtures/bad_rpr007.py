"""RPR007 golden fixture -- expected findings: 2 (lines 8, 9)."""

from repro.observe.events import emit
from repro.observe.log import log_event


def bad_hand_written_event(tracer, chunk):
    log_event("resilience.retry", level="warning", chunk=chunk)
    tracer.instant("resilience.retry", "resilience", chunk=chunk)


def good_routed_event(chunk):
    emit("resilience.retry", chunk=chunk)
