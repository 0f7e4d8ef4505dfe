"""Chaos suite: every recovery path, demonstrated under injected faults.

CI's ``chaos`` job runs this module across a seed x fault-kind matrix::

    REPRO_CHAOS_SEED=7 REPRO_CHAOS_KIND=crash REPRO_CHAOS_REPORT=out.json \\
        pytest tests/resilience/test_chaos.py

``REPRO_CHAOS_KIND`` selects one scenario family (``crash`` / ``kill`` /
``hang`` / ``corrupt`` / ``truncate`` / ``all``, the default); the JSON
report written to ``REPRO_CHAOS_REPORT`` records, per scenario, the
recovery events observed and whether the output was bitwise-identical to
the unsharded launch (and the counters equal to the unfaulted serial
run's).
"""

import json
import os

import numpy as np
import pytest

from repro.kernels.batched import diagonally_dominant_batch
from repro.kernels.device import per_block_lu
from repro.model.flops import lu_flops
from repro.observe import metrics as metrics_mod
from repro.resilience import FaultSpec, RetryPolicy
from repro.runtime import BatchRuntime, ProblemBatch

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
KIND = os.environ.get("REPRO_CHAOS_KIND", "all")
REPORT = os.environ.get("REPRO_CHAOS_REPORT", "")

N = 6
BATCH = 40
CHUNK_COST = lu_flops(N) * 8  # 5 chunks

#: scenario name -> (fault spec under test, retry policy)
SCENARIOS = {
    "crash": (
        FaultSpec(kind="crash", rate=0.5, seed=SEED, count=1),
        RetryPolicy(max_retries=2, backoff_s=0.0),
    ),
    "kill": (
        FaultSpec(kind="kill", chunks=(SEED % 5,), count=1),
        RetryPolicy(max_retries=2, backoff_s=0.0),
    ),
    "hang": (
        FaultSpec(kind="hang", chunks=(SEED % 5,), count=1, sleep=120.0),
        RetryPolicy(max_retries=2, backoff_s=0.0, timeout_s=2.0),
    ),
    "corrupt": (
        FaultSpec(kind="corrupt", rate=0.5, seed=SEED, count=1),
        RetryPolicy(max_retries=2, backoff_s=0.0),
    ),
}

_results = []


def _selected(name):
    return KIND in ("all", name)


def _record(name, **payload):
    _results.append({"scenario": name, "seed": SEED, **payload})


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    yield
    if REPORT:
        with open(REPORT, "w") as handle:
            json.dump(
                {"seed": SEED, "kind": KIND, "results": _results},
                handle,
                indent=2,
            )
            handle.write("\n")


@pytest.fixture
def metrics_registry():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_default_registry(registry)
    previous_flag = metrics_mod.set_metrics_enabled(True)
    yield registry
    metrics_mod.set_default_registry(previous)
    metrics_mod.set_metrics_enabled(previous_flag)


def _reference(matrices):
    """The unsharded launch: chunked output equals it bitwise."""
    return per_block_lu(matrices)


def _clean_counters(matrices):
    """Merged counters of the same chunk plan, unfaulted and in-process."""
    report = BatchRuntime(workers=1, chunk_cost=CHUNK_COST, use_caches=False).run(
        ProblemBatch.single("lu", matrices)
    )
    return report.counters.snapshot()


def _resilience_events(registry):
    names = (
        "repro_chunk_retries_total",
        "repro_chunk_timeouts_total",
        "repro_chunk_inline_total",
        "repro_pool_rebuilds_total",
        "repro_resume_chunks_skipped_total",
    )
    return {name: registry.sum_series(name) for name in names}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fault_recovery_is_bitwise(name, metrics_registry):
    if not _selected(name):
        pytest.skip(f"REPRO_CHAOS_KIND={KIND} excludes {name}")
    spec, policy = SCENARIOS[name]
    matrices = diagonally_dominant_batch(BATCH, N, seed=SEED)
    ref = _reference(matrices)
    report = BatchRuntime(
        workers=2,
        chunk_cost=CHUNK_COST,
        use_caches=False,
        faults=spec,
        retry_policy=policy,
    ).run(ProblemBatch.single("lu", matrices))
    identical = bool(np.array_equal(report.output, ref.output))
    counters_equal = report.counters.snapshot() == _clean_counters(matrices)
    _record(
        name,
        identical=identical,
        counters_equal=counters_equal,
        mode=report.mode,
        events=_resilience_events(metrics_registry),
        passed=identical and counters_equal,
    )
    assert identical and counters_equal


def test_truncated_checkpoint_recovers(tmp_path, metrics_registry):
    if not _selected("truncate"):
        pytest.skip(f"REPRO_CHAOS_KIND={KIND} excludes truncate")
    matrices = diagonally_dominant_batch(BATCH, N, seed=SEED)
    ref = _reference(matrices)
    # Every journal write for chunk 0 is truncated at the disk.
    runtime = BatchRuntime(
        workers=1,
        chunk_cost=CHUNK_COST,
        use_caches=False,
        checkpoint=tmp_path / "ck",
        faults=FaultSpec(kind="truncate", chunks=(0,), count=float("inf")),
    )
    report = runtime.run(ProblemBatch.single("lu", matrices))
    identical = bool(np.array_equal(report.output, ref.output))
    _record(
        "truncate",
        identical=identical,
        mode=report.mode,
        events=_resilience_events(metrics_registry),
        passed=identical,
    )
    assert identical
