"""Sharded multi-process batch execution.

:class:`BatchRuntime` turns the serial one-launch-per-batch story into a
real execution runtime: a :class:`~repro.runtime.sharding.ProblemBatch`
is split into size-aware chunks, the chunks run on a
:class:`concurrent.futures.ProcessPoolExecutor`, and the per-chunk
outputs, hardware counters, and trace events merge back -- in submission
order -- into a single :class:`~repro.runtime.merge.BatchReport`.

Guarantees the tests pin down:

* **bitwise determinism** -- chunk boundaries never depend on the worker
  count, every kernel is element-wise independent along the batch axis,
  and the merge is submission-ordered, so ``workers=4`` returns exactly
  the bytes ``workers=1`` does;
* **exact counters** -- merged registries equal the serial path's, by
  construction (same launches, same fold order);
* **graceful degradation** -- if the pool cannot be built or a worker
  dies, the launch falls back to in-process execution with a
  ``RuntimeWarning`` instead of crashing;
* **warm caches** -- the runtime's :class:`CalibrationCache` makes
  :func:`~repro.microbench.calibrate.calibrate` a once-per-device cost
  and its :class:`DispatchCache` memoizes approach rankings.

The convenience entry point :func:`run_batched` (re-exported from
:mod:`repro.kernels.batched`) covers the common one-op case::

    report = run_batched("lu", matrices, workers=4)
    report.output          # (batch, n, n) packed LU, identical to serial
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import warnings
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ..gpu.device import QUADRO_6000, DeviceSpec
from ..model.parameters import ModelParameters
from ..observe import metrics as _metrics
from ..observe import profile as _profile
from ..observe.events import emit
from ..observe.history import RunHistory, run_record
from ..observe.tracer import current_tracer, tracing
from ..resilience.checkpoint import CheckpointStore, batch_fingerprint
from ..resilience.faults import resolve_faults
from ..resilience.policy import DEFAULT_RETRY_POLICY, RetryPolicy
from ..resilience.quarantine import quarantine_outcomes
from ..resilience.supervisor import (
    ChunkFailedError,
    outcome_checksum,
    supervise_pool,
    supervise_serial,
)
from .cache import CalibrationCache, DispatchCache, cache_dir
from .merge import BatchReport, ChunkOutcome, merge_outcomes
from .sharding import DEFAULT_CHUNK_COST, ProblemBatch, plan_chunks

__all__ = ["BatchRuntime", "default_workers", "run_batched", "supported_ops"]


def supported_ops() -> list[str]:
    """Kernel names :func:`run_batched` accepts."""
    # Deferred: the kernel table pulls in the whole kernel stack.
    from ..kernels.infos import runtime_kernels

    return sorted(runtime_kernels())


def default_workers() -> int:
    """Pool size when none is requested: the smaller of 4 and the CPUs."""
    return max(1, min(4, os.cpu_count() or 1))


#: Monotone batch sequence: every traced launch in this process gets a
#: unique profile scope (``batch:N``), so span ids never collide when
#: several launches fold into one tracer.
_BATCH_SEQ = itertools.count()


def _execute_chunk(
    op: str,
    data: np.ndarray,
    kwargs: dict,
    traced: Union[bool, str],
    chunk_index: int = 0,
    attempt: int = 0,
    nchunks: int = 1,
    faults=None,
) -> ChunkOutcome:
    """Run one chunk (in a worker or inline) and package the outcome.

    When fleet metrics are enabled, the chunk runs against a private
    :class:`~repro.observe.metrics.MetricsRegistry` that ships back with
    the outcome -- inline execution takes the same detour, so the
    launch-level fold (and therefore every metric total) is identical
    between the serial and sharded paths.

    ``traced`` is falsy (untraced), ``True`` (trace, no profile spans),
    or the batch's profile scope string: the worker then emits its side
    of the span tree -- a ``deserialize`` setup span and the ``attempt``
    span around the kernel -- stamped on the worker tracer's own clock,
    and ships the tracer's :class:`~repro.observe.tracer.ClockOrigin`
    back so the launch process can align the timelines at ingest.

    ``chunk_index``/``attempt`` identify this execution to the optional
    :class:`~repro.resilience.faults.FaultPlan`, which fires its seeded
    crash/hang/corrupt injectors here -- in the worker, where the real
    failure would happen.  The outcome carries a content hash of the
    numerical payload so the supervisor can detect transport corruption.
    """
    entry = time.perf_counter()
    from ..kernels.infos import runtime_kernels

    info = runtime_kernels().get(op)
    if info is None:
        raise ValueError(f"unknown batched op {op!r}; supported: {supported_ops()}")
    if faults is not None:
        faults.apply_pre(chunk_index, attempt, nchunks)
    scope = traced if isinstance(traced, str) else None
    local_metrics = previous_metrics = None
    if _metrics.metrics_enabled():
        local_metrics = _metrics.MetricsRegistry()
        previous_metrics = _metrics.set_default_registry(local_metrics)
    start = time.perf_counter()
    dropped = 0
    clock = None
    try:
        if traced:
            with tracing() as tracer:
                kernel_start = tracer.now()
                result = info.launch(data, **kwargs)
                if scope is not None:
                    _emit_worker_spans(
                        tracer,
                        scope,
                        chunk_index,
                        attempt,
                        op,
                        entry=entry,
                        start=start,
                        kernel_start=kernel_start,
                    )
            events = list(tracer.events)
            registry = tracer.counters
            dropped = tracer.dropped
            clock = tracer.origin
        else:
            result = info.launch(data, **kwargs)
            events = []
            registry = None
    finally:
        if local_metrics is not None:
            _metrics.set_default_registry(previous_metrics)
    digest = outcome_checksum(result.output, result.extra)
    wall_s = time.perf_counter() - start
    # One record per attempt, stamped with the same span ids the profile
    # spans carry, so a log line joins its flamegraph span.
    chunk_id = f"{scope}/chunk:{chunk_index}" if scope else None
    emit(
        "worker.attempt",
        span_id=f"{chunk_id}/attempt:{attempt}" if chunk_id else None,
        parent_id=chunk_id,
        op=op,
        chunk=chunk_index,
        attempt=attempt,
        wall_s=wall_s,
        dropped=dropped,
    )
    output = result.output
    if faults is not None:
        # Corruption is injected *after* the checksum, simulating a
        # payload mangled in transit; the supervisor must catch it.
        output = faults.apply_corrupt(chunk_index, attempt, nchunks, output)
    return ChunkOutcome(
        output=output,
        extra=result.extra,
        launch=result.launch,
        wall_s=wall_s,
        events=events,
        registry=registry,
        pid=os.getpid(),
        dropped=dropped,
        metrics=local_metrics,
        checksum=digest,
        clock=clock,
    )


def _emit_worker_spans(
    tracer,
    scope: str,
    chunk_index: int,
    attempt: int,
    op: str,
    *,
    entry: float,
    start: float,
    kernel_start: float,
) -> None:
    """The worker's side of the batch span tree, on its own clock.

    ``deserialize`` covers chunk setup (fault hooks, metrics registry
    swap) from function entry to the traced block; ``attempt`` covers
    the kernel proper.  Both carry explicit ids under the chunk span, so
    retries land as sibling ``attempt:{k}`` spans.
    """
    pid = os.getpid()
    chunk_id = f"{scope}/chunk:{chunk_index}"
    attempt_id = f"{chunk_id}/attempt:{attempt}"
    origin = tracer.origin.perf
    tracer.complete(
        "deserialize",
        _profile.PROFILE_CATEGORY,
        ts=entry - origin,
        dur=max(0.0, start - entry),
        span_id=f"{chunk_id}/deserialize:{attempt}",
        parent_id=chunk_id,
        chunk=chunk_index,
        attempt=attempt,
        worker=pid,
    )
    tracer.complete(
        "attempt",
        _profile.PROFILE_CATEGORY,
        ts=kernel_start,
        dur=max(0.0, tracer.now() - kernel_start),
        span_id=attempt_id,
        parent_id=chunk_id,
        chunk=chunk_index,
        attempt=attempt,
        op=op,
        worker=pid,
    )


class BatchRuntime:
    """Sharded executor with persistent calibration/dispatch caches.

    Parameters
    ----------
    workers:
        Process-pool size; ``None`` means :func:`default_workers`, and
        ``1`` executes the identical chunk plan in-process (the "serial
        path" every parallel guarantee is defined against).
    chunk_cost:
        Per-chunk FLOP budget handed to
        :func:`~repro.runtime.sharding.plan_chunks`.
    device:
        Simulated device kernels run against (also the cache key).
    use_caches:
        When ``False``, no cache files are read or written (calibration
        runs every time and dispatch rankings are not memoized).
    history:
        Run-history destination.  The default (``None``) co-locates a
        ``history.jsonl`` with the caches when ``use_caches`` is on and
        records nothing otherwise; pass ``False`` to disable, ``True``
        for the default location, a path, or a ready
        :class:`~repro.observe.history.RunHistory`.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` for
        its negligible startup cost, falling back to the platform
        default where unavailable.
    retry_policy:
        Per-chunk :class:`~repro.resilience.policy.RetryPolicy`
        (deadline, retry count, backoff); the default retries twice with
        no deadline.
    faults:
        Deterministic fault injection: a
        :class:`~repro.resilience.faults.FaultPlan`, a single
        :class:`~repro.resilience.faults.FaultSpec`, or a spec string
        (``"crash@0;hang@2:sleep=30"``).  ``None`` reads
        ``REPRO_FAULTS`` from the environment; no faults otherwise.
    checkpoint:
        Opt-in chunk journal for resumable runs: ``True`` (under the
        cache root), a directory path, or a ready
        :class:`~repro.resilience.checkpoint.CheckpointStore`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_cost: float = DEFAULT_CHUNK_COST,
        device: DeviceSpec = QUADRO_6000,
        use_caches: bool = True,
        cache_directory=None,
        history=None,
        start_method: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        faults=None,
        checkpoint=None,
    ) -> None:
        self.workers = default_workers() if workers is None else max(1, int(workers))
        self.chunk_cost = float(chunk_cost)
        self.device = device
        self.calibration_cache = (
            CalibrationCache(cache_directory) if use_caches else None
        )
        self.dispatch_cache = (
            DispatchCache(device, directory=cache_directory) if use_caches else None
        )
        self.history = self._resolve_history(history, use_caches, cache_directory)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.retry_policy = (
            DEFAULT_RETRY_POLICY if retry_policy is None else retry_policy
        )
        self.faults = resolve_faults(faults)
        self.checkpoint = self._resolve_checkpoint(
            checkpoint, cache_directory, self.faults
        )
        self._params: Optional[ModelParameters] = None

    @staticmethod
    def _resolve_checkpoint(
        checkpoint, cache_directory, faults
    ) -> Optional[CheckpointStore]:
        if checkpoint in (None, False):
            return None
        if isinstance(checkpoint, CheckpointStore):
            return checkpoint
        if checkpoint is True:
            root = Path(cache_directory) if cache_directory else cache_dir()
            return CheckpointStore(root / "checkpoints", faults=faults)
        return CheckpointStore(Path(checkpoint), faults=faults)

    @staticmethod
    def _resolve_history(
        history, use_caches: bool, cache_directory
    ) -> Optional[RunHistory]:
        if history is False:
            return None
        if isinstance(history, RunHistory):
            return history
        if history is True:
            return RunHistory()
        if history is not None:  # a path
            return RunHistory(history)
        # Default: ride with the caches (hermetic cache dir -> hermetic
        # history), and stay silent when caching is off entirely.
        if not use_caches:
            return None
        if cache_directory is not None:
            return RunHistory(Path(cache_directory) / "history.jsonl")
        return RunHistory()

    # ------------------------------------------------------------------
    # Cached decision products
    # ------------------------------------------------------------------
    def parameters(self) -> ModelParameters:
        """Table-IV parameters for this device, calibrating at most once.

        A warm :class:`CalibrationCache` skips the microbenchmark sweep
        entirely (no ``calibrate`` span is emitted); the result is also
        memoized on the runtime instance.
        """
        if self._params is None:
            from ..microbench.calibrate import calibrate

            self._params = calibrate(self.device, cache=self.calibration_cache)
        return self._params

    def rank(self, work):
        """Approach ranking for ``work`` through the dispatch cache.

        The cache is first scoped to this runtime's calibrated
        parameters, so a recalibration (new device spec, hand-edited
        latencies) invalidates memos ranked under the old numbers.
        """
        from ..approaches.dispatch import rank_approaches

        if self.dispatch_cache is not None:
            self.dispatch_cache.bind_params(self.parameters())
        return rank_approaches(work, cache=self.dispatch_cache)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, batch: ProblemBatch, **kernel_kwargs) -> BatchReport:
        """Execute ``batch`` and merge everything into one report.

        ``kernel_kwargs`` (e.g. ``fast_math=False``) pass through to
        every kernel launch.  When a tracer is active in the calling
        thread, worker-side events and counters are folded back into it
        with per-chunk ``shard``/``worker`` tags.

        Failure handling (see :mod:`repro.resilience`): chunk attempts
        are supervised (deadline + retries + pool rebuild), numerical
        breakdowns quarantine their problem slot onto
        ``report.failures``, and an attached checkpoint store lets a
        killed run resume from its last journaled chunk.
        """
        known = supported_ops()
        for group in batch.groups:
            # Validate before submission: an unknown op must fail the
            # caller with a clean ValueError, not surface as a pickled
            # worker exception (and a spurious serial-fallback warning).
            if group.op not in known:
                raise ValueError(
                    f"unknown batched op {group.op!r}; supported: {known}"
                )
        kwargs = dict(kernel_kwargs)
        kwargs.setdefault("device", self.device)
        tracer = current_tracer()
        traced = tracer is not None
        emitter = None
        if traced and _profile.profiling_enabled():
            emitter = _profile.ProfileEmitter(tracer, f"batch:{next(_BATCH_SEQ)}")
        batch_start = emitter.now() if emitter is not None else 0.0
        chunks = plan_chunks(batch, self.chunk_cost)
        # Workers receive the profile scope (a string) so their attempt
        # spans carry fully-scoped ids; plain ``True`` traces without
        # profile spans, ``False`` is the untraced hot path.
        trace_token: Union[bool, str] = (
            emitter.scope if emitter is not None else traced
        )
        payloads = [
            (
                batch.groups[chunk.group].op,
                batch.groups[chunk.group].data[chunk.start : chunk.stop],
                kwargs,
                trace_token,
            )
            for chunk in chunks
        ]
        if emitter is not None:
            emitter.emit(
                "plan",
                batch_start,
                span_id=emitter.span_id("plan"),
                parent_id=emitter.scope,
                chunks=len(chunks),
                problems=batch.total_problems,
            )
        scope = emitter.scope if emitter is not None else None
        emit(
            "runtime.plan",
            span_id=emitter.span_id("plan") if emitter is not None else None,
            parent_id=scope,
            chunks=len(chunks),
            problems=batch.total_problems,
            workers=self.workers,
        )

        resumed: dict[int, ChunkOutcome] = {}
        record = None
        if self.checkpoint is not None:
            fingerprint = batch_fingerprint(batch, self.chunk_cost, kwargs)
            resumed = self._resume(fingerprint, len(chunks), scope, resumed)

            def record(index: int, outcome: ChunkOutcome) -> None:
                self.checkpoint.record(fingerprint, index, outcome)
                emit(
                    "checkpoint.record",
                    span_id=f"{scope}/chunk:{index}" if scope else None,
                    parent_id=scope,
                    chunk=index,
                )

        # Each worker trace is replayed onto the launch clock as its chunk
        # lands, while the rest of the pool still computes; the merge then
        # only splices the copies in chunk order.
        replayed: dict[int, tuple] = {}

        def replay(index: int, outcome: ChunkOutcome) -> list:
            return tracer.replay(
                outcome.events,
                outcome.clock,
                shard=chunks[index].index,
                worker=outcome.pid,
            )

        def completed(index: int, outcome: ChunkOutcome) -> None:
            if traced and outcome.clock is not None:
                replayed[index] = (outcome, replay(index, outcome))
            if record is not None:
                record(index, outcome)

        entries = [
            (index, payloads[index])
            for index in range(len(chunks))
            if index not in resumed
        ]

        execute_start = emitter.now() if emitter is not None else 0.0
        start = time.perf_counter()
        by_index: Optional[dict[int, ChunkOutcome]] = None
        mode = "serial"
        if not entries:
            by_index = {}
            mode = "resumed"
        elif self.workers > 1 and len(entries) > 1:
            try:
                by_index = self._run_pool(
                    entries, completed, nchunks=len(chunks), profile=emitter
                )
                mode = "process"
            except ChunkFailedError:
                # Retries and the inline rescue are already spent; a
                # serial re-run cannot fix this chunk and would re-execute
                # completed ones.
                raise
            except Exception as exc:
                warnings.warn(
                    f"sharded execution failed ({exc!r}); "
                    "degrading to serial in-process execution",
                    RuntimeWarning,
                    stacklevel=2,
                )
                emit("runtime.serial_fallback")
                mode = "serial-fallback"
                if record is not None:
                    # The failed pool pass may have journaled chunks.
                    resumed.update(
                        self._resume(fingerprint, len(chunks), scope, resumed)
                    )
                    entries = [e for e in entries if e[0] not in resumed]
        if by_index is None:
            by_index, _ = supervise_serial(
                entries,
                execute=_execute_chunk,
                policy=self.retry_policy,
                faults=self.faults,
                nchunks=len(chunks),
                on_complete=completed,
                profile=emitter,
            )
        by_index.update(resumed)
        outcomes = [by_index[index] for index in range(len(chunks))]
        if emitter is not None:
            emitter.emit(
                "execute",
                execute_start,
                span_id=emitter.span_id("execute"),
                parent_id=emitter.scope,
                chunks=len(chunks),
                mode=mode,
            )
        merge_start = emitter.now() if emitter is not None else 0.0
        failures = quarantine_outcomes(batch, chunks, outcomes)
        wall_s = time.perf_counter() - start
        if self.checkpoint is not None:
            # The merge below is pure; once every outcome is in hand the
            # journal has served its purpose.
            self.checkpoint.clear()

        if traced:
            for index, outcome in enumerate(outcomes):
                if outcome.registry is not None:
                    tracer.counters.merge(outcome.registry)
                done, events = replayed.get(index, (None, None))
                if done is not outcome:
                    # Resumed from the journal, or re-run after the copy
                    # was made: replay the outcome that was kept.
                    events = replay(index, outcome)
                tracer.splice(events, outcome.dropped)
        if failures:
            emit(
                "resilience.quarantine",
                span_id=scope,
                problems=len(failures),
                ops=sorted({f.op for f in failures}),
            )
            for failure in failures:
                emit(
                    "resilience.problem_failure",
                    op=failure.op,
                    reason=failure.reason,
                )
        emit(
            "runtime.launch",
            span_id=scope,
            mode=mode,
            chunks=len(chunks),
            workers=self.workers,
            problems=batch.total_problems,
            failures=len(failures),
            wall_s=wall_s,
        )

        report = merge_outcomes(
            batch, chunks, outcomes, workers=self.workers, mode=mode, wall_s=wall_s
        )
        if emitter is not None:
            merge_end = emitter.now()
            emitter.emit(
                "merge",
                merge_start,
                merge_end,
                span_id=emitter.span_id("merge"),
                parent_id=emitter.scope,
                chunks=len(chunks),
            )
            emitter.emit(
                "batch",
                batch_start,
                merge_end,
                span_id=emitter.scope,
                parent_id=None,
                problems=batch.total_problems,
                chunks=len(chunks),
                workers=self.workers,
                mode=mode,
            )
            roots = _profile.build_span_trees(tracer.events, scope=emitter.scope)
            batch_root = next((r for r in roots if r.name == "batch"), None)
            if batch_root is not None:
                report.profile = _profile.compute_profile(batch_root)
        report.failures = failures
        report.params = self.parameters()
        self._observe_run(batch, chunks, outcomes, report)
        return report

    def _resume(
        self, fingerprint: str, nchunks: int, scope, known: dict
    ) -> dict[int, ChunkOutcome]:
        """Journaled outcomes of this plan not in ``known``; emits the resume."""
        restored = {
            index: outcome
            for index, outcome in self.checkpoint.resume(fingerprint).items()
            if index < nchunks and index not in known
        }
        if restored:
            emit(
                "resilience.resume",
                span_id=scope,
                skipped=len(restored),
                chunks=nchunks,
            )
        return restored

    def _observe_run(
        self,
        batch,
        chunks,
        outcomes,
        report: BatchReport,
    ) -> None:
        """Fold chunk telemetry into the fleet registry + run history.

        Regime classification always lands on the report (it is part of
        the result); registry writes honor the global metrics flag, and
        the history append happens whenever this runtime carries a
        :class:`RunHistory`.  Telemetry failures never fail the launch.
        """
        from ..observe.regime import classify_regime, record_regime

        attributions = []
        try:
            from ..observe.attribution import attribute_launch

            for group_result in report.results:
                attributions.append(
                    attribute_launch(
                        report.params, group_result.launch, label=group_result.op
                    )
                )
            report.regimes = [classify_regime(a) for a in attributions]
        except (ValueError, KeyError, AttributeError) as exc:
            # Attribution is best-effort decoration, but a launch losing
            # its regimes must be *visible*, not silently blank.
            attributions = []
            emit(
                "observe.attribution_error",
                error=type(exc).__name__,
                detail=str(exc)[:200],
            )

        if _metrics.metrics_enabled():
            registry = _metrics.default_registry()
            # Worker registries fold in submission order -- the same
            # fold the inline path takes, so serial == sharded totals.
            for outcome in outcomes:
                if outcome.metrics is not None:
                    registry.merge(outcome.metrics)
            dropped = sum(o.dropped for o in outcomes)
            if dropped:
                registry.inc(
                    "repro_trace_dropped_events_total",
                    dropped,
                    help="Worker trace events lost to ring-buffer overflow.",
                )
            registry.set(
                "repro_runtime_workers",
                report.workers,
                help="Pool size of the most recent launch.",
            )
            registry.set(
                "repro_runtime_wall_seconds",
                report.wall_s,
                help="Wall time of the most recent launch.",
            )
            for chunk, outcome in zip(chunks, outcomes):
                op = batch.groups[chunk.group].op
                registry.inc(
                    "repro_runtime_chunks_total",
                    help="Chunks executed, by op/mode/worker pid.",
                    op=op,
                    mode=report.mode,
                    worker=outcome.pid,
                )
                registry.observe(
                    "repro_chunk_wall_seconds",
                    outcome.wall_s,
                    help="Per-chunk kernel wall time.",
                    op=op,
                )
                registry.observe(
                    "repro_chunk_queue_wait_seconds",
                    outcome.queue_wait_s,
                    help="Per-chunk time between submission and execution.",
                    op=op,
                )
                registry.inc(
                    "repro_chunk_problems_total",
                    chunk.problems,
                    help="Problems executed per chunk, by op and shard.",
                    op=op,
                    shard=chunk.index,
                )
            for group_result, group in zip(report.results, batch.groups):
                registry.inc(
                    "repro_runtime_problems_total",
                    group_result.problems,
                    help="Problems factored, by op.",
                    op=group_result.op,
                )
                registry.inc(
                    "repro_runtime_flops_total",
                    group.cost,
                    help="Useful FLOPs executed, by op.",
                    op=group_result.op,
                )
                registry.inc(
                    "repro_runtime_bytes_total",
                    float(group.data.nbytes) * 2.0,
                    help="Operand bytes moved (read + write), by op.",
                    op=group_result.op,
                )
                registry.set(
                    "repro_runtime_gflops",
                    group_result.gflops,
                    help="Simulated throughput of the latest launch, by op.",
                    op=group_result.op,
                )
            for classification in report.regimes:
                record_regime(
                    classification, registry=registry, op=classification.label
                )
            if report.profile is not None:
                for phase, seconds in report.profile.phases.items():
                    registry.observe(
                        "repro_batch_phase_seconds",
                        max(0.0, seconds),
                        help="Batch latency decomposition, by phase.",
                        phase=phase,
                    )
                registry.set(
                    "repro_batch_straggler_index",
                    report.profile.straggler_index,
                    help="Max/median chunk compute time of the latest launch.",
                )
                registry.set(
                    "repro_batch_queue_share",
                    report.profile.queue_share,
                    help="Share of chunk time spent queued, latest launch.",
                )

        if self.history is not None:
            try:
                self.history.append(
                    run_record(
                        report.summary(),
                        regimes=report.regimes,
                        attribution=[
                            {
                                "label": a.label,
                                "residual_total": a.residual_total,
                                "measured_total": a.measured_total,
                                "eq_total": a.eq_total,
                            }
                            for a in attributions
                        ],
                        device=self.device.name,
                        # The profiler scope joins this record to its
                        # trace tree, log lines, and any alert raised
                        # over it -- one id across all three.
                        span_id=(
                            report.profile.scope
                            if report.profile is not None
                            else None
                        ),
                        profile=(
                            report.profile.summary()
                            if report.profile is not None
                            else None
                        ),
                    )
                )
            except OSError:
                pass

    def _run_pool(
        self, entries: list, on_complete, nchunks: int, profile=None
    ) -> dict[int, ChunkOutcome]:
        """Supervised pool execution of ``(index, payload)`` entries."""
        outcomes, _ = supervise_pool(
            entries,
            execute=_execute_chunk,
            mp_context=multiprocessing.get_context(self.start_method),
            max_workers=self.workers,
            policy=self.retry_policy,
            faults=self.faults,
            nchunks=nchunks,
            on_complete=on_complete,
            profile=profile,
        )
        return outcomes


def run_batched(
    op: str,
    problems: Union[np.ndarray, Sequence[np.ndarray]],
    runtime: Optional[BatchRuntime] = None,
    workers: Optional[int] = None,
    **kernel_kwargs,
) -> BatchReport:
    """Factor ``problems`` under kernel ``op`` on a sharded runtime.

    ``problems`` is one ``(batch, m, n)`` array or a sequence of them
    (mixed sizes -> one group each).  Supply a configured ``runtime`` to
    reuse its pool settings and caches, or just a ``workers`` count for
    a throwaway runtime.
    """
    if runtime is None:
        runtime = BatchRuntime(workers=workers)
    elif workers is not None:
        raise ValueError("pass either runtime or workers, not both")
    if isinstance(problems, np.ndarray):
        batch = ProblemBatch.single(op, problems)
    else:
        batch = ProblemBatch.mixed(op, list(problems))
    return runtime.run(batch, **kernel_kwargs)
