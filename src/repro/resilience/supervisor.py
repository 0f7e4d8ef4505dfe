"""Per-chunk supervision: one loop for pooled, in-process and degraded runs.

:func:`supervise` owns every way a chunk runs and recovers.  Chunks go to
an executor -- a process pool, or an in-process executor whose
``submit`` runs the call before it returns -- and one loop handles what
comes back, whichever executor ran the attempt:

* with a **deadline** (``RetryPolicy.timeout_s``; ``None`` disables) at
  most ``max_workers`` chunks are in flight, so an attempt's clock starts
  when a worker is free for it, not while it waits in the pool's queue.
  An overdue attempt's pool is killed and rebuilt and the chunk retried;
  the siblings that kill took down are resubmitted without burning a
  retry.  In-process there is no worker to kill, so no deadline fires;
* a failed attempt (worker exception, checksum mismatch, broken pool) is
  **retried** with capped exponential backoff up to
  ``RetryPolicy.max_retries`` times;
* a **broken pool** (a worker died hard) is torn down and rebuilt.  The
  supervisor cannot tell which in-flight chunk killed the worker, so
  every chunk the broken pool takes down is charged one ``broken-pool``
  retry, whichever ``wait()`` batch reports it;
* a chunk that exhausts its retries runs **in-process** once more as a
  last resort, pooled or not; only a failure of that rescue surfaces,
  as :class:`ChunkFailedError` -- and by then every other completed
  chunk's outcome is already safe (and journaled, when checkpointing is
  on);
* if the pool cannot be built or rebuilt, the launch **degrades**: a
  ``RuntimeWarning``, a ``runtime.serial_fallback`` event, and the
  remaining chunks run in-process with their attempt counts kept.

In-process, at most one chunk is in flight, so each chunk completes
(``on_complete``: journal write, trace replay) before the next starts.
Completed chunks are never re-executed, and outcomes are keyed by chunk
index, so the submission-order merge -- and therefore bitwise output
determinism -- is untouched by any amount of retrying.
"""

from __future__ import annotations

import concurrent.futures
import time
import warnings
import zlib
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..observe.events import emit
from .policy import RetryPolicy

__all__ = [
    "ChunkFailedError",
    "ChunkSpans",
    "outcome_checksum",
    "supervise",
]


class ChunkFailedError(RuntimeError):
    """A chunk failed its retries *and* the in-process last resort.

    Nothing re-runs the batch after it: re-running cannot fix a chunk
    that already failed in-process, and would re-execute completed ones.
    """

    def __init__(self, index: int, op: str, reason: str) -> None:
        super().__init__(
            f"chunk {index} ({op}) failed permanently after retries: {reason}"
        )
        self.index = index
        self.op = op
        self.reason = reason


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
    """Per-chunk profile bookkeeping for the supervisor.

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


class _InProcess(concurrent.futures.Executor):
    """Runs each call inside :meth:`submit`; the future is done on return."""

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 -- read off the future, as a worker's
            future.set_exception(exc)
        return future


def _kill(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    # ``shutdown`` alone would wait on (or leak) a hung worker; a deadline
    # is only real if the worker actually dies.  The executor keeps its
    # workers in ``_processes`` (stable CPython internal); terminate them
    # first, then release the queues.
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 -- already-dead workers
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def supervise(
    entries: Sequence[Entry],
    *,
    execute: Callable,
    policy: RetryPolicy,
    max_workers: int = 1,
    mp_context=None,
    faults=None,
    nchunks: int = 1,
    on_complete: Optional[Callable[[int, object], None]] = None,
    profile=None,
) -> Tuple[Dict[int, object], str]:
    """Run ``(index, payload)`` chunks; see the module docstring.

    Chunks run on a process pool of ``max_workers`` (``mp_context``)
    when more than one worker and more than one chunk are asked for, and
    in-process otherwise.  Returns ``(outcomes by chunk index, mode)``,
    mode being ``"process"``, ``"serial"`` or ``"serial-fallback"`` (the
    pool could not be built or rebuilt).  Raises
    :class:`ChunkFailedError` only when a chunk fails its retries *and*
    its in-process rescue.  ``profile`` is an optional
    :class:`~repro.observe.profile.ProfileEmitter`; when set, every
    submission (retries, forgiven resubmissions and the rescue included)
    and every chunk completion lands in the batch span tree.  An
    in-process ``submit`` span covers the attempt it ran.
    """
    pooled = max_workers > 1 and len(entries) > 1
    mode = "process" if pooled else "serial"
    width = min(max_workers, len(entries))
    # A deadline runs from submission, so with one it must also be the
    # moment a worker is free: one chunk per worker.  Without one, every
    # ready chunk is queued at once.
    pool_limit = width if policy.timeout_s is not None else len(entries)
    scope = profile.scope if profile is not None else None
    spans = ChunkSpans(profile)
    outcomes: Dict[int, object] = {}
    payloads = dict(entries)
    attempts = {index: 0 for index in payloads}
    ready: deque[int] = deque(payloads)
    #: chunks whose next attempt is the in-process last resort.
    rescue: set[int] = set()
    #: future -> (index, submitted_ts, deadline, pool generation)
    inflight: Dict[
        concurrent.futures.Future, Tuple[int, float, Optional[float], int]
    ] = {}
    done_at: Dict[int, float] = {}
    #: pool generations this loop killed (deadline, degradation): the
    #: chunks they took down did nothing wrong and keep their attempt.
    killed: set[int] = set()
    in_process = _InProcess()
    pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
    generation = 0

    def note(kind: str, **args) -> None:
        chunk = args.get("chunk")
        span_id = scope
        if scope is not None and chunk is not None:
            span_id = f"{scope}/chunk:{chunk}"
        emit(f"resilience.{kind}", span_id=span_id, parent_id=scope, **args)

    def drop_pool(forgive: bool) -> None:
        nonlocal pool, generation
        if forgive:
            killed.add(generation)
        _kill(pool)
        pool = None
        generation += 1

    def degrade(exc: Exception) -> None:
        nonlocal pooled, mode
        warnings.warn(
            f"process pool unavailable ({exc!r}); "
            "degrading to serial in-process execution",
            RuntimeWarning,
            stacklevel=4,
        )
        emit("runtime.serial_fallback")
        if pool is not None:
            drop_pool(forgive=True)
        pooled, mode = False, "serial-fallback"

    def fail(index: int, reason: str, exc: Optional[BaseException] = None) -> None:
        """One attempt of ``index`` failed: retry, or rescue in-process."""
        op = payloads[index][0]
        if reason == "timeout":
            note("timeout", chunk=index, op=op)
        if index in rescue:
            raise ChunkFailedError(index, op, reason) from exc
        # The rescue is a fresh attempt, not a replay of the last failed
        # one -- fault plans count attempts, so a fault scoped to the
        # retried attempts (count = max_retries + 1) leaves it clean.
        attempts[index] += 1
        if attempts[index] > policy.max_retries:
            rescue.add(index)
            note("inline", chunk=index, reason=reason, op=op)
        else:
            note("retry", chunk=index, attempt=attempts[index], reason=reason, op=op)
        ready.append(index)

    try:
        while ready or inflight:
            if pooled and pool is None:
                try:
                    pool = concurrent.futures.ProcessPoolExecutor(
                        max_workers=width, mp_context=mp_context
                    )
                except Exception as exc:  # noqa: BLE001 -- any build failure degrades
                    degrade(exc)
            limit = pool_limit if pooled else 1
            while ready and len(inflight) < limit:
                index = ready.popleft()
                runner = pool if pooled and index not in rescue else in_process
                delay = policy.backoff_delay(attempts[index])
                if delay:
                    time.sleep(delay)
                submit_start = spans.now()
                try:
                    future = runner.submit(
                        execute,
                        *payloads[index],
                        chunk_index=index,
                        attempt=attempts[index],
                        nchunks=nchunks,
                        faults=faults,
                    )
                except BrokenProcessPool as exc:
                    # The pool broke before taking the chunk: it is taken
                    # down like the chunks already in flight.
                    future = concurrent.futures.Future()
                    future.set_exception(exc)
                except Exception as exc:  # noqa: BLE001 -- no worker could start
                    ready.appendleft(index)
                    degrade(exc)
                    break
                submitted = time.perf_counter()
                spans.submit(
                    index,
                    submit_start,
                    spans.now(),
                    attempt=attempts[index],
                    op=payloads[index][0],
                )
                deadline = (
                    None if policy.timeout_s is None else submitted + policy.timeout_s
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
                except (BrokenProcessPool, concurrent.futures.CancelledError) as exc:
                    if gen in killed:
                        ready.append(index)  # same attempt: not its fault
                        continue
                    broken = broken or gen == generation
                    fail(index, "broken-pool", exc)
                except Exception as exc:  # noqa: BLE001 -- the attempt failed
                    fail(index, "crash", exc)
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
                drop_pool(forgive=False)
                note("rebuild", reason="broken-pool")
                continue

            now = time.perf_counter()
            expired = [
                future
                for future, (_, _, deadline, _) in inflight.items()
                if deadline is not None and now >= deadline and not future.done()
            ]
            for future in expired:
                fail(inflight.pop(future)[0], "timeout")
            if expired and pool is not None:
                drop_pool(forgive=True)
                note("rebuild", reason="timeout")
    finally:
        if pool is not None:
            if len(outcomes) == len(entries):
                pool.shutdown(wait=True)
            else:
                # Error exit with attempts possibly still hung: kill, do
                # not wait (a hung worker would block shutdown forever).
                _kill(pool)

    return outcomes, mode
