"""Channel parity: one recovering launch, pinned on trace, log and metrics.

A 2-worker launch with every telemetry channel on walks the recovery
paths that emit events: a ``kill`` fault (retry + pool rebuild),
singular slots (quarantine), and a checkpointed rerun (resume).  The
test pins what each channel records -- trace instant names and
categories, log event/level/span ids, event metric series and values --
so a refactor of how events are emitted cannot silently drop, rename or
split any of them.  Field sets are checked one way only: the keys pinned
here must still be present, new ones may appear.
"""

import collections
import concurrent.futures
import time

import numpy as np
import pytest

from repro.kernels.batched import diagonally_dominant_batch
from repro.kernels.device import per_block_lu
from repro.model.flops import lu_flops
from repro.observe import log as obslog
from repro.observe import metrics as metrics_mod
from repro.observe import tracing
from repro.observe.profile import set_profiling_enabled
from repro.resilience import FaultSpec, RetryPolicy, batch_fingerprint
from repro.runtime import BatchRuntime, ProblemBatch, plan_chunks
from repro.runtime import executor as executor_mod

N = 6
BATCH = 40
CHUNK_COST = lu_flops(N) * 8  # 5 chunks of 8 problems
SINGULAR = (3, 20)  # slots in chunks 0 and 2
JOURNALED = (4,)  # chunk restored from the checkpoint journal
VICTIM = 1  # chunk whose first attempt kills its worker
#: The victim's first attempt waits this long before dying, so its
#: siblings finish first and only the victim's future sees the broken
#: pool -- otherwise which siblings retry would depend on timing.
VICTIM_DELAY_S = 1.5

_real_execute = executor_mod._execute_chunk


def _slow_victim(*payload, chunk_index=0, attempt=0, **kwargs):
    if chunk_index == VICTIM and attempt == 0:
        time.sleep(VICTIM_DELAY_S)
    return _real_execute(*payload, chunk_index=chunk_index, attempt=attempt, **kwargs)


SCOPE = "<batch>"

#: (name, category) of every trace instant the launch records.
INSTANTS = {
    ("calibrate.parameters", "microbench"),
    ("launch.result", "engine"),
    ("memory.stream_bandwidth", "memory"),
    ("resilience.quarantine", "resilience"),
    ("resilience.rebuild", "resilience"),
    ("resilience.resume", "resilience"),
    ("resilience.retry", "resilience"),
    ("runtime.launch", "runtime"),
}

#: Argument keys each runtime/resilience instant must carry.
INSTANT_KEYS = {
    "resilience.quarantine": {"problems"},
    "resilience.rebuild": {"reason"},
    "resilience.resume": {"skipped", "chunks"},
    "resilience.retry": {"chunk", "attempt", "reason", "op"},
    "runtime.launch": {"chunks", "workers", "mode", "problems"},
}

#: (event, level, span_id, parent_id) -> number of log records.
LOG_RECORDS = {
    ("calibrate.sweep", "info", None, None): 1,
    ("runtime.plan", "info", f"{SCOPE}/plan", SCOPE): 1,
    ("resilience.retry", "warning", f"{SCOPE}/chunk:{VICTIM}", SCOPE): 1,
    ("resilience.rebuild", "warning", SCOPE, SCOPE): 1,
    ("resilience.resume", "info", SCOPE, None): 1,
    ("runtime.quarantine", "warning", SCOPE, None): 1,
    ("runtime.launch", "info", SCOPE, None): 1,
    **{
        ("checkpoint.record", "debug", f"{SCOPE}/chunk:{i}", SCOPE): 1
        for i in (0, 1, 2, 3)
    },
    **{
        (
            "worker.attempt",
            "info",
            f"{SCOPE}/chunk:{i}/attempt:{int(i == VICTIM)}",
            f"{SCOPE}/chunk:{i}",
        ): 1
        for i in (0, 1, 2, 3)
    },
}

#: Field keys each log event must carry.
LOG_KEYS = {
    "runtime.plan": {"chunks", "problems", "workers"},
    "resilience.retry": {"chunk", "attempt", "reason", "op"},
    "resilience.rebuild": {"reason"},
    "resilience.resume": {"skipped", "chunks"},
    "runtime.quarantine": {"problems", "ops"},
    "runtime.launch": {"mode", "chunks", "workers", "problems", "failures", "wall_s"},
    "checkpoint.record": {"chunk"},
    "worker.attempt": {"op", "chunk", "attempt", "wall_s", "dropped"},
}

#: Every counter a runtime or resilience *event* writes.
EVENT_METRICS = (
    "repro_attribution_errors_total",
    "repro_chunk_inline_total",
    "repro_chunk_retries_total",
    "repro_chunk_timeouts_total",
    "repro_pool_rebuilds_total",
    "repro_problem_failures_total",
    "repro_resume_chunks_skipped_total",
    "repro_runtime_launches_total",
    "repro_runtime_serial_fallback_total",
)

#: (metric, sorted label items) -> value after the launch.
METRIC_SERIES = {
    ("repro_chunk_retries_total", (("op", "lu"), ("reason", "broken-pool"))): 1.0,
    ("repro_pool_rebuilds_total", (("reason", "broken-pool"),)): 1.0,
    ("repro_problem_failures_total", (("op", "lu"), ("reason", "zero-pivot"))): 2.0,
    ("repro_resume_chunks_skipped_total", ()): 1.0,
    ("repro_runtime_launches_total", (("mode", "process"),)): 1.0,
}

#: (metric, help text) for every family the launch touches.
METRIC_HELP = {
    "repro_chunk_retries_total": "Chunk attempts retried, by op and reason.",
    "repro_pool_rebuilds_total": "Worker pools torn down and rebuilt.",
    "repro_problem_failures_total": "Problems quarantined for numerical breakdown.",
    "repro_resume_chunks_skipped_total": "Chunks restored from a checkpoint journal.",
    "repro_runtime_launches_total": "Batch launches by execution mode.",
}


def _scoped(value, scope):
    return value.replace(scope, SCOPE) if isinstance(value, str) else value


@pytest.fixture
def all_channels(tmp_path):
    """Trace, metrics and logs all on; yields (registry, log sink)."""
    registry = metrics_mod.MetricsRegistry()
    sink = tmp_path / "events.jsonl"
    previous_registry = metrics_mod.set_default_registry(registry)
    previous_metrics = metrics_mod.set_metrics_enabled(True)
    previous_log = obslog.set_log_enabled(True)
    previous_sink = obslog.set_default_logger(obslog.StructuredLogger(sink))
    previous_profile = set_profiling_enabled(True)
    try:
        yield registry, sink
    finally:
        set_profiling_enabled(previous_profile)
        obslog.set_default_logger(previous_sink)
        obslog.set_log_enabled(previous_log)
        metrics_mod.set_metrics_enabled(previous_metrics)
        metrics_mod.set_default_registry(previous_registry)


def test_recovering_launch_channels_are_pinned(tmp_path, monkeypatch, all_channels):
    registry, sink = all_channels
    monkeypatch.setattr(executor_mod, "_execute_chunk", _slow_victim)
    matrices = diagonally_dominant_batch(BATCH, N, seed=11)
    for slot in SINGULAR:
        matrices[slot] = 0.0
    batch = ProblemBatch.single("lu", matrices)
    runtime = BatchRuntime(
        workers=2,
        chunk_cost=CHUNK_COST,
        use_caches=False,
        history=False,
        checkpoint=tmp_path / "ck",
        retry_policy=RetryPolicy(max_retries=2, backoff_s=0.0),
        faults=FaultSpec(kind="kill", chunks=(VICTIM,), count=1),
    )
    chunks = plan_chunks(batch, CHUNK_COST)
    assert len(chunks) == 5
    fingerprint = batch_fingerprint(batch, CHUNK_COST, {"device": runtime.device})
    for index in JOURNALED:
        chunk = chunks[index]
        outcome = _real_execute(
            "lu", matrices[chunk.start : chunk.stop], {"device": runtime.device}, False
        )
        runtime.checkpoint.record(fingerprint, index, outcome)
    # Journaling the seed chunk is not part of the launch under test.
    registry.clear()
    sink.unlink(missing_ok=True)

    with tracing() as tracer:
        report = runtime.run(batch)

    assert report.mode == "process"
    assert [f.index for f in report.failures] == list(SINGULAR)
    survivors = [i for i in range(BATCH) if i not in SINGULAR]
    expected = per_block_lu(matrices[survivors]).output
    assert np.array_equal(report.output[survivors], expected)
    scope = report.profile.scope

    # Trace: instant names and categories, and their argument keys.
    instants = [e for e in tracer.events if e.ph == "i"]
    assert {(e.name, e.category) for e in instants} == INSTANTS
    for event in instants:
        keys = INSTANT_KEYS.get(event.name)
        if keys is not None:
            assert keys <= set(event.args or {}), event.name

    # Log: every record's event, level and span ids, and its field keys.
    records = obslog.read_log(sink)
    seen = collections.Counter(
        (
            r["event"],
            r["level"],
            _scoped(r["span_id"], scope),
            _scoped(r["parent_id"], scope),
        )
        for r in records
    )
    assert dict(seen) == LOG_RECORDS
    for record in records:
        keys = LOG_KEYS.get(record["event"])
        if keys is not None:
            assert keys <= set(record["fields"]), record["event"]

    # Metrics: every event counter series, its value and help text.
    series = {}
    for name in EVENT_METRICS:
        entry = registry.snapshot().get(name)
        if entry is None:
            continue
        assert entry["help"] == METRIC_HELP[name]
        for sample in entry["series"]:
            labels = tuple(sorted(sample["labels"].items()))
            series[(name, labels)] = sample["value"]
    assert series == METRIC_SERIES


def test_recovery_events_survive_a_pool_that_cannot_be_rebuilt(
    tmp_path, monkeypatch, all_channels
):
    """A retry and rebuild recorded before the pool fails for good.

    The killed worker breaks the pool; rebuilding it raises, so the
    launch degrades to serial: the chunks not yet complete run
    in-process at their next attempt, where the kill no longer fires,
    and nothing is replayed from attempt 0.  The recovery events that
    happened before the failure must still reach every channel, and each
    channel must count them alike.
    """
    registry, sink = all_channels
    matrices = diagonally_dominant_batch(BATCH, N, seed=12)
    runtime = BatchRuntime(
        workers=2,
        chunk_cost=CHUNK_COST,
        use_caches=False,
        history=False,
        retry_policy=RetryPolicy(max_retries=2, backoff_s=0.0),
        faults=FaultSpec(kind="kill", chunks=(0,), count=1),
    )
    real_pool = concurrent.futures.ProcessPoolExecutor
    builds = []

    def pool_that_cannot_rebuild(*args, **kwargs):
        builds.append(None)
        if len(builds) > 1:
            raise OSError("cannot rebuild the worker pool")
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", pool_that_cannot_rebuild
    )
    with tracing() as tracer:
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            report = runtime.run(ProblemBatch.single("lu", matrices))

    assert report.mode == "serial-fallback"
    assert np.array_equal(report.output, per_block_lu(matrices).output)
    instants = collections.Counter(e.name for e in tracer.events if e.ph == "i")
    logged = collections.Counter(r["event"] for r in obslog.read_log(sink))
    retries = registry.sum_series("repro_chunk_retries_total")
    assert retries >= 1
    assert instants["resilience.retry"] == logged["resilience.retry"] == retries
    assert instants["resilience.rebuild"] == logged["resilience.rebuild"] == 1
    assert registry.value("repro_pool_rebuilds_total", reason="broken-pool") == 1
    assert registry.value("repro_runtime_serial_fallback_total") == 1
