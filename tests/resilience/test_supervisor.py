"""The chunk supervisor: retries, deadlines, rebuilds, rescue, degradation.

End-to-end scenarios drive a real :class:`BatchRuntime` with injected
faults; the fine-grained re-execution accounting drives
:func:`supervise` directly with a marker-file execute stub.
"""

import collections
import concurrent.futures
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.batched import diagonally_dominant_batch
from repro.kernels.device import per_block_lu
from repro.model.flops import lu_flops
from repro.observe import metrics as metrics_mod
from repro.resilience import ChunkFailedError, FaultSpec, RetryPolicy, supervise
from repro.runtime import BatchRuntime, ProblemBatch
from repro.runtime import executor as executor_mod


@pytest.fixture
def metrics_registry():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_default_registry(registry)
    previous_flag = metrics_mod.set_metrics_enabled(True)
    yield registry
    metrics_mod.set_default_registry(previous)
    metrics_mod.set_metrics_enabled(previous_flag)


def _runtime(**kwargs):
    kwargs.setdefault("use_caches", False)
    kwargs.setdefault("chunk_cost", lu_flops(6) * 8)
    return BatchRuntime(**kwargs)


def _reference(matrices):
    return _runtime(workers=1).run(ProblemBatch.single("lu", matrices))


class TestCrashRecovery:
    def test_crashed_chunk_retried_bitwise_identical(self, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=0)
        ref = _reference(matrices)
        report = _runtime(
            workers=2, faults=FaultSpec(kind="crash", chunks=(0,), count=1)
        ).run(ProblemBatch.single("lu", matrices))
        assert report.mode == "process"
        assert np.array_equal(report.output, ref.output)
        assert report.counters.snapshot() == ref.counters.snapshot()
        assert (
            metrics_registry.value(
                "repro_chunk_retries_total", op="lu", reason="crash"
            )
            == 1
        )

    def test_serial_path_retries_too(self):
        matrices = diagonally_dominant_batch(16, 6, seed=1)
        ref = _reference(matrices)
        report = _runtime(
            workers=1, faults=FaultSpec(kind="crash", chunks=(1,), count=1)
        ).run(ProblemBatch.single("lu", matrices))
        assert np.array_equal(report.output, ref.output)

    def test_exhausted_retries_raise_chunk_failed(self):
        matrices = diagonally_dominant_batch(16, 6, seed=2)
        runtime = _runtime(
            workers=1,
            retry_policy=RetryPolicy(max_retries=1, backoff_s=0.0),
            faults=FaultSpec(kind="crash", chunks=(0,), count=float("inf")),
        )
        with pytest.raises(ChunkFailedError, match="chunk 0"):
            runtime.run(ProblemBatch.single("lu", matrices))


class TestCorruptionRecovery:
    def test_checksum_mismatch_detected_and_retried(self, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=3)
        ref = _reference(matrices)
        report = _runtime(
            workers=2, faults=FaultSpec(kind="corrupt", chunks=(1,), count=1)
        ).run(ProblemBatch.single("lu", matrices))
        assert np.array_equal(report.output, ref.output)
        assert (
            metrics_registry.value(
                "repro_chunk_retries_total", op="lu", reason="corrupt"
            )
            == 1
        )


class TestBrokenPoolRecovery:
    def test_killed_worker_rebuilds_pool(self, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=4)
        ref = _reference(matrices)
        report = _runtime(
            workers=2, faults=FaultSpec(kind="kill", chunks=(0,), count=1)
        ).run(ProblemBatch.single("lu", matrices))
        assert report.mode == "process"
        assert np.array_equal(report.output, ref.output)
        assert (
            metrics_registry.value(
                "repro_pool_rebuilds_total", reason="broken-pool"
            )
            >= 1
        )


class TestHangRecovery:
    def test_hung_chunk_cancelled_at_deadline(self, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=5)
        ref = _reference(matrices)
        report = _runtime(
            workers=2,
            retry_policy=RetryPolicy(timeout_s=1.5, backoff_s=0.0),
            faults=FaultSpec(kind="hang", chunks=(0,), count=1, sleep=60.0),
        ).run(ProblemBatch.single("lu", matrices))
        assert np.array_equal(report.output, ref.output)
        assert metrics_registry.value("repro_chunk_timeouts_total", op="lu") == 1
        assert (
            metrics_registry.value("repro_pool_rebuilds_total", reason="timeout")
            >= 1
        )


class TestInlineRescue:
    def test_pool_exhaustion_falls_back_inline(self, metrics_registry):
        # count == max_retries + 1 makes every pool attempt crash while
        # the in-process rescue (the next attempt number) stays clean.
        matrices = diagonally_dominant_batch(32, 6, seed=6)
        ref = _reference(matrices)
        policy = RetryPolicy(max_retries=1, backoff_s=0.0)
        report = _runtime(
            workers=2,
            retry_policy=policy,
            faults=FaultSpec(kind="crash", chunks=(0,), count=policy.max_retries + 1),
        ).run(ProblemBatch.single("lu", matrices))
        assert np.array_equal(report.output, ref.output)
        assert metrics_registry.value("repro_chunk_inline_total", op="lu") == 1


# ----------------------------------------------------------------------
# A launch whose pool cannot be rebuilt keeps its completed chunks.
# ----------------------------------------------------------------------
_real_execute = executor_mod._execute_chunk
_LAUNCH_PID = os.getpid()
#: Marker directory of the running test, inherited by forked workers.
_MARKERS = {"dir": None}


def _marking_execute(*payload, chunk_index=0, attempt=0, **kwargs):
    """Records each execution; chunk 0's first attempt kills its worker.

    The kill waits long enough for the other chunks to finish first, and
    never fires in the launch process.
    """
    Path(_MARKERS["dir"], f"exec-{chunk_index}-{attempt}-{os.getpid()}").touch()
    if chunk_index == 0 and attempt == 0 and os.getpid() != _LAUNCH_PID:
        time.sleep(1.0)
        os._exit(86)
    return _real_execute(*payload, chunk_index=chunk_index, attempt=attempt, **kwargs)


class TestDegradedLaunch:
    def test_completed_chunks_survive_a_pool_that_cannot_be_rebuilt(
        self, tmp_path, monkeypatch, metrics_registry
    ):
        monkeypatch.setitem(_MARKERS, "dir", str(tmp_path))
        monkeypatch.setattr(executor_mod, "_execute_chunk", _marking_execute)
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
        matrices = diagonally_dominant_batch(40, 6, seed=7)  # 5 chunks
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            report = _runtime(workers=2).run(ProblemBatch.single("lu", matrices))

        assert report.mode == "serial-fallback"
        assert np.array_equal(report.output, per_block_lu(matrices).output)
        assert metrics_registry.value("repro_runtime_serial_fallback_total") == 1
        runs = collections.Counter(
            tuple(name.split("-")[1:3]) for name in os.listdir(tmp_path)
        )
        # No attempt of any chunk ran twice: the chunks that completed on
        # the pool ran once, and the victim resumed at its next attempt.
        assert set(runs.values()) == {1}
        assert {attempt for chunk, attempt in runs if chunk == "0"} == {"0", "1"}


# ----------------------------------------------------------------------
# Direct supervisor accounting with a marker-file execute stub.
# ----------------------------------------------------------------------
class _StubOutcome:
    def __init__(self, value):
        self.value = value
        self.checksum = None
        self.wall_s = 0.0
        self.queue_wait_s = 0.0
        self.output = np.asarray([value])
        self.extra = None


def _stub_execute(
    value,
    marker_dir,
    fail_chunks,
    fail_below,
    sleeps,
    exit_chunk,
    chunk_index=0,
    attempt=0,
    nchunks=1,
    faults=None,
):
    """Sleeps ``sleeps[chunk]`` on attempt 0, then exits or fails as told."""
    Path(marker_dir, f"exec-{chunk_index}-{attempt}-{os.getpid()}").touch()
    if attempt == 0:
        time.sleep(sleeps[chunk_index] if chunk_index < len(sleeps) else 0.0)
        if chunk_index == exit_chunk:
            os._exit(86)
    if chunk_index in fail_chunks and attempt < fail_below:
        raise RuntimeError(f"stub failure on chunk {chunk_index}")
    return _StubOutcome(value)


def _entries(tmp_path, n, fail_chunks=(), fail_below=1, sleeps=(), exit_chunk=None):
    return [
        (i, (i * 10, str(tmp_path), tuple(fail_chunks), fail_below, sleeps, exit_chunk))
        for i in range(n)
    ]


def _executions(tmp_path):
    """chunk index -> attempts executed, parsed from marker files."""
    seen = {}
    for name in os.listdir(tmp_path):
        if name.startswith("exec-"):
            _, chunk, attempt, _ = name.split("-")
            seen.setdefault(int(chunk), set()).add(int(attempt))
    return seen


def _supervise(entries, **kwargs):
    kwargs.setdefault("policy", TestSuperviseAccounting.POLICY)
    if kwargs.get("max_workers", 1) > 1:
        kwargs.setdefault("mp_context", multiprocessing.get_context("fork"))
    return supervise(entries, execute=_stub_execute, nchunks=len(entries), **kwargs)


class TestSuperviseAccounting:
    POLICY = RetryPolicy(max_retries=2, backoff_s=0.0)

    def test_completed_chunks_never_reexecuted(self, tmp_path, metrics_registry):
        outcomes, mode = _supervise(
            _entries(tmp_path, 4, fail_chunks=(2,), fail_below=1), max_workers=2
        )
        assert mode == "process"
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert [outcomes[i].value for i in range(4)] == [0, 10, 20, 30]
        executions = _executions(tmp_path)
        # The victim ran twice (attempts 0 and 1); everyone else once.
        assert executions[2] == {0, 1}
        for chunk in (0, 1, 3):
            assert executions[chunk] == {0}
        assert metrics_registry.sum_series("repro_chunk_retries_total") == 1

    def test_serial_supervisor_same_accounting(self, tmp_path, metrics_registry):
        outcomes, mode = _supervise(
            _entries(tmp_path, 3, fail_chunks=(0,), fail_below=2)
        )
        assert mode == "serial"
        assert [outcomes[i].value for i in range(3)] == [0, 10, 20]
        executions = _executions(tmp_path)
        assert executions[0] == {0, 1, 2}
        assert executions[1] == {0} and executions[2] == {0}
        assert metrics_registry.sum_series("repro_chunk_retries_total") == 2

    def test_on_complete_called_once_per_chunk(self, tmp_path):
        journal = []
        _supervise(
            _entries(tmp_path, 3, fail_chunks=(1,), fail_below=1),
            on_complete=lambda index, outcome: journal.append(index),
        )
        assert sorted(journal) == [0, 1, 2]
        assert len(journal) == len(set(journal))

    def test_in_process_chunk_completes_before_the_next_executes(self, tmp_path):
        executed_at_completion = {}

        def on_complete(index, outcome):
            executed_at_completion[index] = set(_executions(tmp_path))

        _supervise(_entries(tmp_path, 4), on_complete=on_complete)
        for index in range(4):
            assert executed_at_completion[index] == set(range(index + 1))

    def test_permanent_failure_identifies_chunk(self, tmp_path, metrics_registry):
        with pytest.raises(ChunkFailedError) as excinfo:
            _supervise(
                _entries(tmp_path, 2, fail_chunks=(1,), fail_below=99),
                policy=RetryPolicy(max_retries=1, backoff_s=0.0),
            )
        assert excinfo.value.index == 1
        assert excinfo.value.reason == "crash"
        # Two attempts, then the in-process rescue -- in-process too.
        assert _executions(tmp_path)[1] == {0, 1, 2}
        assert metrics_registry.sum_series("repro_chunk_inline_total") == 1

    def test_deadline_measures_the_attempt_not_the_queue(
        self, tmp_path, metrics_registry
    ):
        # Six 0.8 s chunks on two workers take 2.4 s in all; a 2 s
        # deadline counted from submission would expire the last two.
        outcomes, mode = _supervise(
            _entries(tmp_path, 6, sleeps=(0.8,) * 6),
            max_workers=2,
            policy=RetryPolicy(max_retries=2, backoff_s=0.0, timeout_s=2.0),
        )
        assert mode == "process" and sorted(outcomes) == list(range(6))
        assert metrics_registry.sum_series("repro_chunk_timeouts_total") == 0
        assert metrics_registry.sum_series("repro_pool_rebuilds_total") == 0
        assert _executions(tmp_path) == {i: {0} for i in range(6)}

    def test_broken_pool_charges_every_chunk_it_takes_down(
        self, tmp_path, metrics_registry
    ):
        # Chunk 0 kills its worker while chunk 1 is still running and
        # chunks 2-4 are queued: all five go down with the pool.
        outcomes, mode = _supervise(
            _entries(tmp_path, 5, sleeps=(0.3,) + (1.5,) * 4, exit_chunk=0),
            max_workers=2,
        )
        assert mode == "process" and sorted(outcomes) == list(range(5))
        retries = metrics_registry.sum_series("repro_chunk_retries_total")
        assert retries == 5
        assert retries == metrics_registry.sum_series(
            "repro_chunk_retries_total", reason="broken-pool"
        )
        assert metrics_registry.sum_series("repro_pool_rebuilds_total") == 1
        # Each chunk was charged exactly one retry: its next run is attempt 1.
        assert {chunk: max(a) for chunk, a in _executions(tmp_path).items()} == {
            i: 1 for i in range(5)
        }
