"""Structured event tracer with a thread-local activation context.

Tracing is **off by default**: instrumented call-sites fetch the active
tracer with :func:`current_tracer` and bail on ``None``, so un-traced hot
paths pay a single attribute lookup.  Activate with::

    from repro.observe import tracing

    with tracing() as t:
        per_block_qr(batch)          # engine events land in t
    write_chrome_trace(t, "qr.json")  # open in chrome://tracing / Perfetto

Events are ring-buffer backed (:class:`collections.deque` with
``maxlen``): a runaway kernel cannot grow memory without bound -- old
events are dropped and counted in :attr:`Tracer.dropped`.

Timestamps are *simulated* time.  The engine stamps its events with the
block's cycle clock; events from outside the engine (pipeline stages,
microbenchmarks, dispatch decisions) draw from the tracer's own monotonic
tick so a single trace stays ordered.  The Chrome exporter emits the
numbers verbatim -- one trace "microsecond" is one cycle or one tick.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional

from .counters import CounterRegistry

__all__ = [
    "ClockOrigin",
    "Event",
    "Span",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "tracing",
    "span",
    "instant",
    "add_counter",
    "observe_counter",
    "DEFAULT_CAPACITY",
]

#: Default ring-buffer capacity (events).  A 56x56 per-block QR emits a
#: few thousand events; the default holds dozens of launches.
DEFAULT_CAPACITY = 65536


@dataclasses.dataclass(frozen=True)
class ClockOrigin:
    """One process's clock anchor, captured when its tracer is built.

    ``perf`` is a :func:`time.perf_counter` reading and ``wall`` the
    matching :func:`time.time` instant.  Two origins from the same
    machine share the monotonic epoch, so the *true* offset between the
    processes' profile clocks is simply ``perf_a - perf_b`` -- the
    handshake :meth:`Tracer.ingest` uses to align worker timelines
    instead of re-stamping them.  ``wall`` rides along as a
    human-readable anchor for exported traces.
    """

    perf: float
    wall: float
    pid: int

    @classmethod
    def capture(cls) -> "ClockOrigin":
        return cls(perf=time.perf_counter(), wall=time.time(), pid=os.getpid())

    def offset_from(self, other: "ClockOrigin") -> float:
        """Seconds this origin's profile clock leads ``other``'s."""
        return self.perf - other.perf


@dataclasses.dataclass(frozen=True)
class Event:
    """One recorded trace event (Chrome ``trace_event`` phases).

    ``ph`` is ``"X"`` (complete: has a duration), ``"i"`` (instant), or
    ``"C"`` (counter sample).
    """

    name: str
    category: str
    ph: str
    ts: float
    dur: float = 0.0
    args: Optional[Dict[str, Any]] = None


class Span:
    """Handle for an open span; closed by :meth:`end` or the context."""

    __slots__ = ("tracer", "name", "category", "start", "args", "_open")

    def __init__(self, tracer: "Tracer", name: str, category: str, start: float,
                 args: Optional[dict]) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.start = start
        self.args = args
        self._open = True

    def end(self, ts: Optional[float] = None) -> None:
        if not self._open:
            return
        self._open = False
        end_ts = self.tracer._stamp(ts)
        self.tracer._emit(
            Event(
                name=self.name,
                category=self.category,
                ph="X",
                ts=self.start,
                dur=max(0.0, end_ts - self.start),
                args=self.args,
            )
        )
        stack = self.tracer._span_stack
        if stack and stack[-1] is self:
            stack.pop()


class Tracer:
    """Ring-buffer event recorder plus a session counter registry."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.events: deque[Event] = deque(maxlen=self.capacity)
        self.counters = CounterRegistry()
        self.dropped = 0
        self._ts = 0.0
        self._span_stack: list[Span] = []
        #: Clock anchor for real-time (profile) events; see
        #: :class:`ClockOrigin` and :meth:`now`.
        self.origin = ClockOrigin.capture()

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds elapsed on this tracer's real-time (profile) clock.

        Runtime-level profile spans stamp themselves with this clock --
        real seconds since the tracer was built -- while engine events
        keep their simulated cycle clock.  The two coexist in one trace;
        profile consumers filter by category.
        """
        return time.perf_counter() - self.origin.perf

    def _stamp(self, ts: Optional[float], dur: float = 0.0) -> float:
        """Resolve a timestamp, keeping the internal clock monotonic."""
        if ts is None:
            self._ts += 1.0
            return self._ts
        if ts + dur > self._ts:
            self._ts = ts + dur
        return float(ts)

    def _emit(self, event: Event) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    # ------------------------------------------------------------------
    # Recording API
    # ------------------------------------------------------------------
    def complete(
        self,
        name: str,
        category: str,
        ts: Optional[float] = None,
        dur: float = 0.0,
        **args: Any,
    ) -> None:
        """Record a finished interval (Chrome ``"X"`` event).

        ``ts`` defaults to the tracer's own tick clock; the engine passes
        its cycle clock instead.
        """
        if ts is None:
            ts = self._stamp(None)
        self._stamp(ts, dur)
        self._emit(
            Event(name=name, category=category, ph="X", ts=float(ts),
                  dur=float(dur), args=args or None)
        )

    def instant(
        self, name: str, category: str = "mark", ts: Optional[float] = None,
        **args: Any,
    ) -> None:
        """Record a point-in-time event (Chrome ``"i"`` event)."""
        stamped = self._stamp(ts)
        self._emit(
            Event(name=name, category=category, ph="i", ts=stamped,
                  args=args or None)
        )

    def counter(
        self, name: str, value: float, ts: Optional[float] = None
    ) -> None:
        """Record a counter sample and accumulate it in the registry."""
        stamped = self._stamp(ts)
        self.counters.add(name, value)
        self._emit(
            Event(name=name, category="counter", ph="C", ts=stamped,
                  args={"value": value})
        )

    @contextmanager
    def span(
        self, name: str, category: str = "span", ts: Optional[float] = None,
        **args: Any,
    ) -> Iterator[Span]:
        """Open a nested span; also scopes the counter registry's stage."""
        handle = Span(self, name, category, self._stamp(ts), args or None)
        self._span_stack.append(handle)
        try:
            with self.counters.stage(name):
                yield handle
        finally:
            handle.end()

    def ingest(
        self,
        events,
        dropped: int = 0,
        clock: Optional[ClockOrigin] = None,
        **tags: Any,
    ) -> int:
        """Replay foreign :class:`Event` records into this tracer.

        Used by the sharded runtime to fold each worker's trace back into
        the launch tracer.  Without ``clock``, every event is re-stamped
        onto this tracer's tick clock (shifted so the replay starts
        "now" and stays monotonic) -- relative timing *between* the two
        processes is lost.  With ``clock`` -- the worker tracer's
        :class:`ClockOrigin`, shipped back with the chunk outcome -- the
        events are instead shifted by the **measured** offset between the
        two origins (``clock.offset_from(self.origin)``), so a worker
        span that ran 3 ms into the worker's timeline lands 3 ms after
        that worker's origin on *this* timeline: durations, gaps, and
        cross-process ordering all survive.

        Events are tagged with ``tags`` (e.g. ``shard=3``) so merged
        timelines remain attributable.  ``dropped`` carries the source
        ring buffer's overflow count into :attr:`dropped` -- without it a
        worker that overflowed would fold into a launch trace that looks
        complete -- and, when fleet metrics are enabled, into the
        ``repro_trace_dropped_total`` counter, so silent trace loss is a
        fleet signal (and a default alert rule) rather than a per-run
        attribute.  Events are replayed in the order given; returns the
        number ingested.

        ``ingest`` is :meth:`replay` followed by :meth:`splice`; a caller
        that receives traces over time can replay each on arrival and
        splice them later, in whatever order the merged trace needs.
        """
        return self.splice(self.replay(events, clock, **tags), dropped)

    def replay(
        self, events, clock: Optional[ClockOrigin] = None, **tags: Any
    ) -> List[Event]:
        """The copies :meth:`ingest` records, without recording them.

        Each event is shifted onto this tracer's clock (see
        :meth:`ingest`) and tagged with ``tags``.  With ``clock`` the
        result does not depend on this tracer's state, so it stays valid
        until spliced; without it the shift reads the tick clock, so
        splice it straight away.
        """
        base = clock.offset_from(self.origin) if clock is not None else self._ts
        # A launch replays thousands of worker events: each copy fills its
        # ``__dict__`` directly, since the frozen ``__init__`` pays one
        # ``object.__setattr__`` per field (about 3x the cost).
        new = object.__new__
        replayed = []
        for ev in events:
            copy = new(Event)
            copy.__dict__.update(
                ev.__dict__,
                ts=base + ev.ts,
                args={**ev.args, **tags} if ev.args else (dict(tags) or None),
            )
            replayed.append(copy)
        return replayed

    def splice(self, replayed: List[Event], dropped: int = 0) -> int:
        """Record :meth:`replay` output; ``dropped`` as in :meth:`ingest`."""
        if dropped:
            # Deferred import: metrics pulls in the cache layer, and the
            # tracer must stay importable from everywhere.
            from . import metrics as _metrics

            _metrics.counter_inc(
                "repro_trace_dropped_total",
                int(dropped),
                help="Trace events lost to source ring-buffer overflow.",
            )
        self.dropped += int(dropped)
        if not replayed:
            return 0
        end = max(ev.ts + ev.dur for ev in replayed)
        if end > self._ts:
            self._ts = end
        self.dropped += max(0, len(self.events) + len(replayed) - self.capacity)
        self.events.extend(replayed)
        return len(replayed)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._span_stack)

    @property
    def current_span(self) -> Optional[Span]:
        return self._span_stack[-1] if self._span_stack else None

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._ts = 0.0
        self._span_stack.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer({len(self.events)}/{self.capacity} events, "
            f"{self.dropped} dropped, {len(self.counters)} counters)"
        )


# ----------------------------------------------------------------------
# Thread-local activation
# ----------------------------------------------------------------------
_tls = threading.local()


def current_tracer() -> Optional[Tracer]:
    """The tracer active on this thread, or ``None`` (the common case)."""
    return getattr(_tls, "tracer", None)


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as this thread's active tracer; returns the old."""
    previous = current_tracer()
    _tls.tracer = tracer
    return previous


@contextmanager
def tracing(
    tracer: Optional[Tracer] = None, capacity: int = DEFAULT_CAPACITY
) -> Iterator[Tracer]:
    """Activate a tracer for the body (creating one if not supplied)."""
    active = tracer if tracer is not None else Tracer(capacity)
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


# ----------------------------------------------------------------------
# No-op-when-disabled conveniences for instrumented call-sites
# ----------------------------------------------------------------------
_NULL_SPAN = nullcontext()


def span(name: str, category: str = "span", **args: Any):
    """A span on the active tracer, or a shared no-op context manager."""
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **args)


def instant(name: str, category: str = "mark", **args: Any) -> None:
    """An instant event on the active tracer; no-op when disabled."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.instant(name, category, **args)


def add_counter(name: str, value: float = 1.0) -> None:
    """Accumulate into the active tracer's registry; no-op when disabled."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.counters.add(name, value)


def observe_counter(name: str, values) -> None:
    """Batch-observe values into the active registry; no-op when disabled."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.counters.observe(name, values)
