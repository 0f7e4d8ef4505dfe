"""Sharded execution: parity with serial, merged observability, fallback."""

import numpy as np
import pytest

from repro.kernels.batched import diagonally_dominant_batch, random_batch, run_batched
from repro.kernels.device import per_block_lu, per_block_qr
from repro.model.flops import lu_flops
from repro.observe import metrics as metrics_mod
from repro.observe import tracing
from repro.observe.history import RunHistory
from repro.observe.regime import REGIMES
from repro.runtime import BatchRuntime, ProblemBatch, supported_ops


def _runtime(tmp_path, **kwargs):
    kwargs.setdefault("cache_directory", tmp_path / "cache")
    return BatchRuntime(**kwargs)


@pytest.fixture
def metrics_registry():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_default_registry(registry)
    previous_flag = metrics_mod.set_metrics_enabled(True)
    yield registry
    metrics_mod.set_default_registry(previous)
    metrics_mod.set_metrics_enabled(previous_flag)


class TestParity:
    def test_single_chunk_counters_match_unsharded_launch(self, tmp_path):
        # One chunk == one launch: the merged registry must equal the
        # plain kernel's launch counters exactly, not approximately.
        matrices = diagonally_dominant_batch(24, 12, seed=0)
        direct = per_block_lu(matrices)
        runtime = _runtime(tmp_path, workers=1, chunk_cost=1e12)
        report = runtime.run(ProblemBatch.single("lu", matrices))
        assert report.chunks == 1
        assert report.counters.snapshot() == direct.launch.counters.snapshot()
        assert np.array_equal(report.output, direct.output)

    def test_sharded_output_bitwise_equals_serial(self, tmp_path):
        matrices = diagonally_dominant_batch(40, 12, seed=1)
        chunk_cost = lu_flops(12) * 7  # uneven: 7+7+...+5
        direct = per_block_lu(matrices)
        serial = _runtime(tmp_path, workers=1, chunk_cost=chunk_cost).run(
            ProblemBatch.single("lu", matrices)
        )
        sharded = _runtime(tmp_path, workers=2, chunk_cost=chunk_cost).run(
            ProblemBatch.single("lu", matrices)
        )
        assert sharded.mode == "process"
        assert serial.mode == "serial"
        assert np.array_equal(sharded.output, serial.output)
        assert np.array_equal(sharded.output, direct.output)
        assert np.array_equal(sharded.extra, serial.extra)
        assert sharded.counters.snapshot() == serial.counters.snapshot()

    def test_mixed_size_groups(self, tmp_path):
        small = diagonally_dominant_batch(12, 6, seed=2)
        large = diagonally_dominant_batch(9, 20, seed=3)
        runtime = _runtime(tmp_path, workers=2, chunk_cost=lu_flops(20) * 3)
        report = runtime.run(ProblemBatch.mixed("lu", [small, large]))
        assert len(report.results) == 2
        assert np.array_equal(report.results[0].output, per_block_lu(small).output)
        assert np.array_equal(report.results[1].output, per_block_lu(large).output)
        assert report.problems == 21

    def test_qr_parity(self, tmp_path):
        matrices = random_batch(18, 10, 10, seed=4)
        direct = per_block_qr(matrices)
        report = run_batched(
            "qr",
            matrices,
            runtime=_runtime(tmp_path, workers=2, chunk_cost=1e4),
        )
        assert np.array_equal(report.output, direct.output)
        assert np.array_equal(report.extra, direct.extra)

    def test_kernel_kwargs_pass_through(self, tmp_path):
        matrices = diagonally_dominant_batch(8, 8, seed=5)
        direct = per_block_lu(matrices, fast_math=False)
        report = _runtime(tmp_path, workers=1).run(
            ProblemBatch.single("lu", matrices), fast_math=False
        )
        assert np.array_equal(report.output, direct.output)


class TestObservability:
    def test_traced_launch_merges_events_and_counters(self, tmp_path):
        matrices = diagonally_dominant_batch(30, 10, seed=6)
        chunk_cost = lu_flops(10) * 10
        serial_rt = _runtime(tmp_path, workers=1, chunk_cost=chunk_cost)
        sharded_rt = _runtime(tmp_path, workers=2, chunk_cost=chunk_cost)
        # Calibrate outside the traced regions so both tracers see the
        # kernel launches only, not one cold + one warm calibration.
        serial_rt.parameters()
        sharded_rt.parameters()
        with tracing() as serial_tracer:
            serial_rt.run(ProblemBatch.single("lu", matrices))
        with tracing() as sharded_tracer:
            report = sharded_rt.run(ProblemBatch.single("lu", matrices))
        assert report.mode == "process"
        shard_tags = {
            e.args["shard"]
            for e in sharded_tracer.events
            if e.args and "shard" in e.args
        }
        assert shard_tags == set(range(report.chunks))
        assert report.chunks > 1
        assert any(e.name == "runtime.launch" for e in sharded_tracer.events)
        # Worker registries fold into the launch tracer exactly as the
        # serial path's do (calibration counters ride along identically).
        assert sharded_tracer.counters.snapshot() == serial_tracer.counters.snapshot()

    def test_worker_events_keep_tags_and_per_shard_order(self, tmp_path):
        # Satellite of the ingest re-stamping fix: every folded event must
        # carry shard+worker tags, and the per-shard event-name sequence
        # (span nesting included) must survive the trip through the pool.
        matrices = diagonally_dominant_batch(30, 10, seed=12)
        chunk_cost = lu_flops(10) * 10
        serial_rt = _runtime(tmp_path, workers=1, chunk_cost=chunk_cost)
        sharded_rt = _runtime(tmp_path, workers=2, chunk_cost=chunk_cost)
        serial_rt.parameters()
        sharded_rt.parameters()

        def shard_sequences(runtime):
            with tracing() as tracer:
                report = runtime.run(ProblemBatch.single("lu", matrices))
            sequences = {}
            for event in tracer.events:
                if event.args and "shard" in event.args:
                    assert "worker" in event.args
                    sequences.setdefault(event.args["shard"], []).append(
                        event.name
                    )
            return report, sequences

        serial_report, serial_seq = shard_sequences(serial_rt)
        sharded_report, sharded_seq = shard_sequences(sharded_rt)
        assert sharded_report.mode == "process"
        assert serial_report.mode == "serial"
        assert set(sharded_seq) == set(range(sharded_report.chunks))
        assert sharded_seq == serial_seq

    def test_untraced_launch_emits_nothing(self, tmp_path):
        matrices = diagonally_dominant_batch(8, 8, seed=7)
        report = _runtime(tmp_path, workers=1).run(ProblemBatch.single("lu", matrices))
        assert report.counters.value("flops.groups") > 0

    def test_report_summary_is_flat(self, tmp_path):
        matrices = diagonally_dominant_batch(8, 8, seed=8)
        report = _runtime(tmp_path, workers=1).run(ProblemBatch.single("lu", matrices))
        summary = report.summary()
        assert summary["problems"] == 8
        assert summary["groups"][0]["op"] == "lu"
        assert summary["groups"][0]["gflops"] > 0


class TestDegradation:
    def test_worker_failure_degrades_to_serial_with_warning(
        self, tmp_path, monkeypatch
    ):
        def broken_pool(self, *args, **kwargs):
            raise OSError("simulated pool failure")

        monkeypatch.setattr(BatchRuntime, "_run_pool", broken_pool)
        matrices = diagonally_dominant_batch(20, 10, seed=9)
        runtime = _runtime(tmp_path, workers=4, chunk_cost=lu_flops(10) * 5)
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            report = runtime.run(ProblemBatch.single("lu", matrices))
        assert report.mode == "serial-fallback"
        assert np.array_equal(report.output, per_block_lu(matrices).output)

    def test_unknown_op_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown batched op"):
            _runtime(tmp_path, workers=1).run(
                ProblemBatch.single("svd", np.eye(4, dtype=np.float32))
            )

    def test_runtime_and_workers_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="either runtime or workers"):
            run_batched(
                "lu",
                np.eye(4, dtype=np.float32),
                runtime=_runtime(tmp_path),
                workers=2,
            )

    def test_supported_ops_listed(self):
        assert {"lu", "qr", "cholesky", "lu_pivot"} <= set(supported_ops())


class TestRuntimeCaches:
    def test_run_calibrates_once_per_device(self, tmp_path):
        matrices = diagonally_dominant_batch(8, 8, seed=10)
        batch = ProblemBatch.single("lu", matrices)
        with tracing() as cold:
            _runtime(tmp_path, workers=1).run(batch)
        with tracing() as warm:
            report = _runtime(tmp_path, workers=1).run(batch)
        cold_spans = [e for e in cold.events if e.name == "calibrate" and e.ph == "X"]
        warm_spans = [e for e in warm.events if e.name == "calibrate" and e.ph == "X"]
        assert len(cold_spans) == 1
        assert len(warm_spans) == 0
        assert report.params is not None

    def test_caches_disabled(self, tmp_path):
        runtime = BatchRuntime(workers=1, use_caches=False)
        assert runtime.calibration_cache is None
        assert runtime.dispatch_cache is None
        assert runtime.parameters() is runtime.parameters()


class TestFleetTelemetry:
    def _run_with_registry(self, tmp_path, workers, chunk_cost, matrices):
        registry = metrics_mod.MetricsRegistry()
        previous = metrics_mod.set_default_registry(registry)
        previous_flag = metrics_mod.set_metrics_enabled(True)
        try:
            report = _runtime(tmp_path, workers=workers, chunk_cost=chunk_cost).run(
                ProblemBatch.single("lu", matrices)
            )
        finally:
            metrics_mod.set_default_registry(previous)
            metrics_mod.set_metrics_enabled(previous_flag)
        return report, registry

    def test_run_emits_fleet_metrics(self, tmp_path, metrics_registry):
        matrices = diagonally_dominant_batch(40, 12, seed=13)
        runtime = _runtime(tmp_path, workers=2, chunk_cost=lu_flops(12) * 10)
        report = runtime.run(ProblemBatch.single("lu", matrices))
        assert report.mode == "process"
        reg = metrics_registry
        assert reg.value("repro_runtime_launches_total", mode="process") == 1
        assert reg.value("repro_runtime_problems_total", op="lu") == 40
        assert reg.sum_series("repro_chunk_problems_total", op="lu") == 40
        assert reg.sum_series("repro_runtime_chunks_total") == report.chunks
        wall = reg.histogram_value("repro_chunk_wall_seconds", op="lu")
        wait = reg.histogram_value("repro_chunk_queue_wait_seconds", op="lu")
        assert wall.count == report.chunks and wall.total > 0
        assert wait.count == report.chunks and wait.total >= 0
        assert reg.value("repro_runtime_workers") == report.workers
        assert reg.value("repro_runtime_gflops", op="lu") > 0
        # Kernel-level counters recorded inside worker processes folded
        # back into the launch registry.
        assert reg.sum_series("repro_kernel_launches_total") == report.chunks
        assert reg.sum_series("repro_kernel_problems_total") == 40
        # One launch classified into exactly one regime.
        assert reg.sum_series("repro_launch_regime_total") == 1

    def test_serial_and_sharded_deterministic_totals_match(self, tmp_path):
        matrices = diagonally_dominant_batch(40, 12, seed=14)
        chunk_cost = lu_flops(12) * 7
        # Warm the calibration cache so both measured runs see identical
        # cache traffic, not one cold sweep and one hit.
        self._run_with_registry(tmp_path, 1, chunk_cost, matrices)

        serial_report, serial_reg = self._run_with_registry(
            tmp_path, 1, chunk_cost, matrices
        )
        sharded_report, sharded_reg = self._run_with_registry(
            tmp_path, 2, chunk_cost, matrices
        )
        assert serial_report.mode == "serial"
        assert sharded_report.mode == "process"
        deterministic = [
            "repro_kernel_launches_total",
            "repro_kernel_problems_total",
            "repro_kernel_flops_total",
            "repro_runtime_problems_total",
            "repro_runtime_flops_total",
            "repro_runtime_bytes_total",
            "repro_chunk_problems_total",
            "repro_cache_requests_total",
            "repro_launch_regime_total",
        ]
        for name in deterministic:
            assert sharded_reg.sum_series(name) == serial_reg.sum_series(name), name
        # Not just the totals: the per-shard series line up one to one.
        for shard in range(sharded_report.chunks):
            assert sharded_reg.value(
                "repro_chunk_problems_total", op="lu", shard=shard
            ) == serial_reg.value(
                "repro_chunk_problems_total", op="lu", shard=shard
            )

    def test_regimes_classified_on_report(self, tmp_path):
        matrices = diagonally_dominant_batch(12, 8, seed=15)
        report = _runtime(tmp_path, workers=1).run(
            ProblemBatch.single("lu", matrices)
        )
        (classification,) = report.regimes
        assert classification.label == "lu"
        assert classification.regime in REGIMES
        assert sum(classification.shares.values()) == pytest.approx(1.0)

    def test_metrics_disabled_emits_nothing(self, tmp_path, metrics_registry):
        metrics_mod.set_metrics_enabled(False)
        matrices = diagonally_dominant_batch(12, 8, seed=16)
        report = _runtime(tmp_path, workers=1).run(
            ProblemBatch.single("lu", matrices)
        )
        assert len(metrics_registry) == 0
        # Regime classification is part of the result, not telemetry.
        assert report.regimes


class TestRunHistoryIntegration:
    def test_run_appends_history_record(self, tmp_path):
        runtime = _runtime(tmp_path, workers=1)
        assert runtime.history is not None
        assert runtime.history.path == tmp_path / "cache" / "history.jsonl"
        matrices = diagonally_dominant_batch(12, 8, seed=17)
        runtime.run(ProblemBatch.single("lu", matrices))
        (record,) = runtime.history.load()
        assert record["summary"]["problems"] == 12
        assert record["device"] == runtime.device.name
        assert record["regimes"][0]["regime"] in REGIMES
        assert record["attribution"][0]["label"] == "lu"
        assert "residual_total" in record["attribution"][0]

    def test_history_rides_with_use_caches(self, tmp_path):
        assert BatchRuntime(workers=1, use_caches=False).history is None
        assert _runtime(tmp_path, history=False).history is None

    def test_history_accepts_path_and_instance(self, tmp_path):
        path = tmp_path / "elsewhere.jsonl"
        runtime = _runtime(tmp_path, workers=1, history=path)
        runtime.run(
            ProblemBatch.single(
                "lu", diagonally_dominant_batch(8, 8, seed=18)
            )
        )
        assert len(RunHistory(path)) == 1

        ready = RunHistory(tmp_path / "ready.jsonl")
        assert _runtime(tmp_path, history=ready).history is ready


class TestObservableDegradation:
    def test_unknown_op_rejected_before_submission(self, tmp_path, recwarn):
        # Validation happens in the caller, so a bad op never reaches the
        # pool -- no spurious serial-fallback warning rides along.
        runtime = _runtime(tmp_path, workers=4)
        with pytest.raises(ValueError, match="unknown batched op"):
            runtime.run(
                ProblemBatch.mixed("svd", [np.eye(4, dtype=np.float32)] * 8)
            )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_attribution_failure_is_counted_not_silent(
        self, tmp_path, metrics_registry, monkeypatch
    ):
        from repro.observe import attribution as attribution_mod

        def broken_attribution(*args, **kwargs):
            raise ValueError("simulated attribution breakage")

        monkeypatch.setattr(attribution_mod, "attribute_launch", broken_attribution)
        matrices = diagonally_dominant_batch(12, 8, seed=21)
        report = _runtime(tmp_path, workers=1).run(
            ProblemBatch.single("lu", matrices)
        )
        # The launch still succeeds (attribution is decoration)...
        assert np.array_equal(report.output, per_block_lu(matrices).output)
        assert report.regimes == []
        # ...but the loss is visible in the fleet registry.
        assert (
            metrics_registry.value(
                "repro_attribution_errors_total", error="ValueError"
            )
            == 1
        )
