"""Per-chunk supervision: deadlines, retries, pool rebuilds, inline rescue.

A bare process pool has one recovery path -- any worker exception throws
away every completed chunk and the whole batch re-runs serially.  The
supervisor makes failure *per chunk*:

* every attempt gets a wall-clock **deadline** (``RetryPolicy.timeout_s``;
  ``None`` disables) -- an overdue attempt's worker is killed and the
  chunk resubmitted;
* a failed attempt (worker exception, checksum mismatch, broken pool) is
  **retried** with capped exponential backoff up to
  ``RetryPolicy.max_retries`` times;
* a **broken pool** (worker died hard) is torn down and rebuilt; chunks
  that were merely in flight at teardown time are resubmitted without
  burning a retry;
* a chunk that exhausts its retries runs **inline** in the launch
  process as a last resort; only an inline failure surfaces, as
  :class:`ChunkFailedError` -- and by then every other chunk's outcome
  is already safe (and journaled, when checkpointing is on).

Completed chunks are never re-executed, and outcomes are keyed by chunk
index, so the submission-order merge -- and therefore bitwise output
determinism -- is untouched by any amount of retrying.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
import zlib
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observe.events import emit
from .policy import RetryPolicy

__all__ = [
    "ChunkFailedError",
    "ChunkSpans",
    "SuperviseStats",
    "outcome_checksum",
    "supervise_pool",
    "supervise_serial",
]


class ChunkFailedError(RuntimeError):
    """A chunk failed its pool retries *and* the inline last resort.

    Deliberately not swallowed by the runtime's serial-fallback guard:
    re-running the whole batch cannot fix a chunk that already failed
    inline, and doing so would re-execute completed chunks.
    """

    def __init__(self, index: int, op: str, reason: str) -> None:
        super().__init__(
            f"chunk {index} ({op}) failed permanently after retries: {reason}"
        )
        self.index = index
        self.op = op
        self.reason = reason


@dataclasses.dataclass
class SuperviseStats:
    """Recovery events of one launch, emitted as they happen.

    :meth:`note` records an event and writes it through
    :func:`~repro.observe.events.emit` at once, so an exception later in
    the launch cannot drop it from any channel.  ``scope`` is the
    launch's profile scope (``batch:N``) when the run is profiled; the
    log record is then stamped with the chunk's span id, so a retry in
    the log joins its ``attempt:k`` span in the flamegraph.
    """

    #: ``(kind, args)`` in occurrence order; kinds: ``retry`` /
    #: ``timeout`` / ``inline`` / ``rebuild``.
    events: List[Tuple[str, dict]] = dataclasses.field(default_factory=list)
    scope: Optional[str] = None

    def note(self, kind: str, **args) -> None:
        self.events.append((kind, args))
        chunk = args.get("chunk")
        span_id = (
            f"{self.scope}/chunk:{chunk}"
            if self.scope is not None and chunk is not None
            else self.scope
        )
        emit(f"resilience.{kind}", span_id=span_id, parent_id=self.scope, **args)


def outcome_checksum(output: np.ndarray, extra: Optional[np.ndarray]) -> str:
    """Content checksum of a chunk's numerical payload.

    Computed in the worker before the outcome crosses the process
    boundary and verified by the supervisor after -- a mismatch means the
    payload was corrupted in transit (or by an injected fault) and the
    chunk must be retried, not merged.

    CRC32 over the raw array buffers, not a cryptographic hash: the
    adversary is a flipped bit, and the supervisor re-hashes every chunk
    serially on the launch process's critical path, so throughput is
    what keeps the clean-path gate in ``bench_runtime_scaling`` (checksum
    plus quarantine self time <2% of the launch wall) honest.
    """
    value = zlib.crc32(np.ascontiguousarray(output))
    if extra is not None:
        value = zlib.crc32(np.ascontiguousarray(np.asarray(extra)), value)
    return format(value, "08x")


def _verified(outcome) -> bool:
    checksum = getattr(outcome, "checksum", None)
    if checksum is None:
        return True
    return outcome_checksum(outcome.output, outcome.extra) == checksum


Entry = Tuple[int, tuple]  # (chunk index, payload for ``execute``)


class ChunkSpans:
    """Per-chunk profile bookkeeping for the supervisor paths.

    Wraps a :class:`~repro.observe.profile.ProfileEmitter` (or ``None``
    -- every method is then a no-op) and emits the parent-side spans of
    the batch tree: one ``submit`` span per submission (retries and
    forgiven resubmissions become visible siblings) and one ``chunk``
    span from first submission to final completion.
    """

    __slots__ = ("emitter", "first_submit", "seq")

    def __init__(self, emitter) -> None:
        self.emitter = emitter
        self.first_submit: Dict[int, float] = {}
        self.seq: Dict[int, int] = {}

    def chunk_id(self, index: int) -> str:
        return self.emitter.span_id(f"chunk:{index}")

    def submit(self, index: int, start: float, end: float, **args) -> None:
        if self.emitter is None:
            return
        seq = self.seq.get(index, 0)
        self.seq[index] = seq + 1
        self.first_submit.setdefault(index, start)
        self.emitter.emit(
            "submit",
            start,
            end,
            span_id=f"{self.chunk_id(index)}/submit:{seq}",
            parent_id=self.chunk_id(index),
            chunk=index,
            submission=seq,
            **args,
        )

    def complete(self, index: int, end: float, **args) -> None:
        if self.emitter is None:
            return
        start = self.first_submit.get(index, end)
        self.emitter.emit(
            "chunk",
            start,
            end,
            span_id=self.chunk_id(index),
            parent_id=self.emitter.span_id("execute"),
            chunk=index,
            **args,
        )

    def now(self) -> float:
        return self.emitter.now() if self.emitter is not None else 0.0


def supervise_serial(
    entries: Sequence[Entry],
    *,
    execute: Callable,
    policy: RetryPolicy,
    faults=None,
    nchunks: int = 1,
    on_complete: Optional[Callable[[int, object], None]] = None,
    profile=None,
) -> Tuple[Dict[int, object], SuperviseStats]:
    """Run chunks inline with the same retry semantics as the pool.

    Deadlines cannot be enforced in-process (there is no worker to
    kill), so ``timeout_s`` is ignored here; crash and corruption
    recovery behave exactly like the pool path.  ``profile`` is an
    optional :class:`~repro.observe.profile.ProfileEmitter`: inline
    execution emits the same ``chunk``/``submit`` span structure as the
    pool (submissions are instantaneous hand-offs, so their spans are
    zero-width), keeping serial and sharded trees comparable.
    """
    outcomes: Dict[int, object] = {}
    stats = SuperviseStats(scope=profile.scope if profile is not None else None)
    spans = ChunkSpans(profile)
    for index, payload in entries:
        op = payload[0]
        attempt = 0
        while True:
            delay = policy.backoff_delay(attempt)
            if delay:
                time.sleep(delay)
            start = spans.now()
            spans.submit(index, start, start, attempt=attempt, op=op)
            failure = None
            try:
                outcome = execute(
                    *payload,
                    chunk_index=index,
                    attempt=attempt,
                    nchunks=nchunks,
                    faults=faults,
                )
            except Exception as exc:  # noqa: BLE001 -- every failure retries
                failure = ("crash", exc)
            else:
                if not _verified(outcome):
                    failure = ("corrupt", None)
            if failure is None:
                outcomes[index] = outcome
                spans.complete(index, spans.now(), op=op, attempts=attempt + 1)
                if on_complete is not None:
                    on_complete(index, outcome)
                break
            reason, exc = failure
            if attempt >= policy.max_retries:
                raise ChunkFailedError(index, op, reason) from exc
            attempt += 1
            stats.note("retry", chunk=index, attempt=attempt, reason=reason, op=op)
    return outcomes, stats


def supervise_pool(
    entries: Sequence[Entry],
    *,
    execute: Callable,
    mp_context,
    max_workers: int,
    policy: RetryPolicy,
    faults=None,
    nchunks: int = 1,
    on_complete: Optional[Callable[[int, object], None]] = None,
    profile=None,
) -> Tuple[Dict[int, object], SuperviseStats]:
    """Run chunks on a supervised process pool; see the module docstring.

    Returns ``(outcomes by chunk index, stats)``.  Raises
    :class:`ChunkFailedError` only when a chunk fails its retries *and*
    its inline last resort.  ``profile`` is an optional
    :class:`~repro.observe.profile.ProfileEmitter`; when set, every
    submission (including retries and forgiven resubmissions) and every
    chunk completion lands in the batch span tree.
    """
    outcomes: Dict[int, object] = {}
    stats = SuperviseStats(scope=profile.scope if profile is not None else None)
    if not entries:
        return outcomes, stats
    spans = ChunkSpans(profile)
    payloads = dict(entries)
    attempts = {index: 0 for index, _ in entries}
    ready: deque[int] = deque(index for index, _ in entries)
    #: future -> (index, submitted_ts, deadline, pool generation)
    inflight: Dict[
        concurrent.futures.Future, Tuple[int, float, Optional[float], int]
    ] = {}
    done_at: Dict[int, float] = {}
    #: chunks whose pool was torn down under them through no fault of
    #: their own -- resubmitted without consuming a retry.
    forgiven: set[int] = set()
    pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
    generation = 0

    def build_pool() -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(max_workers, len(entries)), mp_context=mp_context
        )

    def kill_pool(dead: concurrent.futures.ProcessPoolExecutor) -> None:
        # ``shutdown`` alone would wait on (or leak) a hung worker; a
        # deadline is only real if the worker actually dies.  The
        # executor keeps its workers in ``_processes`` (stable CPython
        # internal); terminate them first, then release the queues.
        for proc in list(getattr(dead, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 -- already-dead workers
                pass
        dead.shutdown(wait=False, cancel_futures=True)

    def run_inline(index: int, reason: str) -> None:
        op = payloads[index][0]
        stats.note("inline", chunk=index, reason=reason, op=op)
        # The rescue is a fresh attempt, not a replay of the last failed
        # one -- fault plans count attempts, so a fault scoped to the
        # pool attempts (count = max_retries + 1) leaves this run clean.
        attempts[index] += 1
        start = spans.now()
        spans.submit(index, start, start, attempt=attempts[index], op=op, inline=True)
        try:
            outcome = execute(
                *payloads[index],
                chunk_index=index,
                attempt=attempts[index],
                nchunks=nchunks,
                faults=faults,
            )
        except Exception as exc:  # noqa: BLE001 -- terminal path
            raise ChunkFailedError(index, op, reason) from exc
        outcomes[index] = outcome
        spans.complete(index, spans.now(), op=op, attempts=attempts[index] + 1)
        if on_complete is not None:
            on_complete(index, outcome)

    def fail(index: int, reason: str) -> None:
        """One attempt of ``index`` failed: retry, or rescue inline."""
        if index in forgiven and reason in ("broken-pool", "cancelled"):
            forgiven.discard(index)
            ready.append(index)  # same attempt: the chunk did nothing wrong
            return
        if reason == "timeout":
            stats.note("timeout", chunk=index, op=payloads[index][0])
        if attempts[index] >= policy.max_retries:
            run_inline(index, reason)
            return
        attempts[index] += 1
        stats.note(
            "retry",
            chunk=index,
            attempt=attempts[index],
            reason=reason,
            op=payloads[index][0],
        )
        ready.append(index)

    try:
        while ready or inflight:
            if pool is None:
                pool = build_pool()
            while ready:
                index = ready.popleft()
                delay = policy.backoff_delay(attempts[index])
                if delay:
                    time.sleep(delay)
                submit_start = spans.now()
                future = pool.submit(
                    execute,
                    *payloads[index],
                    chunk_index=index,
                    attempt=attempts[index],
                    nchunks=nchunks,
                    faults=faults,
                )
                submitted = time.perf_counter()
                spans.submit(
                    index,
                    submit_start,
                    spans.now(),
                    attempt=attempts[index],
                    op=payloads[index][0],
                )
                deadline = (
                    None
                    if policy.timeout_s is None
                    else submitted + policy.timeout_s
                )
                future.add_done_callback(
                    lambda f: done_at.setdefault(id(f), time.perf_counter())
                )
                inflight[future] = (index, submitted, deadline, generation)

            deadlines = [d for _, _, d, _ in inflight.values() if d is not None]
            wait_s = (
                None
                if not deadlines
                else max(0.0, min(deadlines) - time.perf_counter())
            )
            done, _ = concurrent.futures.wait(
                set(inflight),
                timeout=wait_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )

            broken = False
            for future in done:
                index, submitted, _, gen = inflight.pop(future)
                try:
                    outcome = future.result()
                except concurrent.futures.CancelledError:
                    fail(index, "cancelled")
                except BrokenProcessPool:
                    broken = broken or gen == generation
                    fail(index, "broken-pool")
                except Exception:  # noqa: BLE001 -- worker-side failure
                    fail(index, "crash")
                else:
                    if not _verified(outcome):
                        fail(index, "corrupt")
                        continue
                    turnaround = done_at.get(id(future), submitted) - submitted
                    outcome.queue_wait_s = max(0.0, turnaround - outcome.wall_s)
                    outcomes[index] = outcome
                    spans.complete(
                        index,
                        spans.now(),
                        op=payloads[index][0],
                        attempts=attempts[index] + 1,
                        worker=getattr(outcome, "pid", 0),
                    )
                    if on_complete is not None:
                        on_complete(index, outcome)

            if broken and pool is not None:
                # Sibling in-flight chunks will surface as broken/
                # cancelled; they were not at fault.
                forgiven.update(index for index, _, _, _ in inflight.values())
                kill_pool(pool)
                pool = None
                generation += 1
                stats.note("rebuild", reason="broken-pool")
                continue

            now = time.perf_counter()
            expired = [
                future
                for future, (_, _, deadline, _) in inflight.items()
                if deadline is not None and now >= deadline and not future.done()
            ]
            if expired:
                for future in expired:
                    index, _, _, _ = inflight.pop(future)
                    fail(index, "timeout")
                if pool is not None:
                    forgiven.update(
                        index for index, _, _, _ in inflight.values()
                    )
                    kill_pool(pool)
                    pool = None
                    generation += 1
                    stats.note("rebuild", reason="timeout")
    finally:
        if pool is not None:
            if len(outcomes) == len(entries):
                pool.shutdown(wait=True)
            else:
                # Error exit with attempts possibly still hung: kill, do
                # not wait (a hung worker would block shutdown forever).
                kill_pool(pool)

    return outcomes, stats
