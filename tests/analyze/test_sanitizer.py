"""Dynamic race-sanitizer tests: toy hazards, clean kernels, invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.registry import kernel_cases, run_sweep
from repro.analyze.sanitizer import (
    SharedSanitizer,
    sanitize_enabled,
    sanitizing,
)
from repro.gpu.device import QUADRO_6000
from repro.gpu.simt import BlockEngine
from repro.kernels.device.per_block_lu import per_block_lu
from repro.observe.metrics import (
    MetricsRegistry,
    set_default_registry,
)


def _toy_engine(batch=2, sanitize=True):
    return BlockEngine(
        QUADRO_6000,
        threads_per_block=4,
        registers_per_thread=16,
        batch=batch,
        sanitize=sanitize,
    )


def _race(eng, phase="toy:update"):
    """Write lane 0 / read lane 1 on one word, no barrier between."""
    sh = eng.allocate_shared(8, name="sh_toy")
    with eng.phase(phase):
        sh.write(0, 1.0, lane=0)
        sh.read(0, lane=1)
    eng.sync()
    return eng.result().sanitizer


def _dominant(batch, n=6, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((batch, n, n)).astype(np.float32)
    return a + n * np.eye(n, dtype=np.float32)


class TestToyHazards:
    def test_write_read_race_is_exactly_one_hazard(self):
        report = _race(_toy_engine())
        assert [h.kind for h in report.hazards] == ["write-read"]
        hazard = report.hazards[0]
        assert hazard.phase == "toy:update"
        assert hazard.array == "sh_toy"
        assert hazard.epoch == 0
        assert hazard.words == (0,)
        assert hazard.lanes == (0, 1)
        assert not report.ok
        assert report.races == (hazard,)

    def test_sync_between_accesses_clears_the_race(self):
        eng = _toy_engine()
        sh = eng.allocate_shared(8, name="sh_toy")
        sh.write(0, 1.0, lane=0)
        eng.sync()
        sh.read(0, lane=1)
        eng.sync()
        assert eng.result().sanitizer.ok

    def test_write_write_and_read_write_kinds(self):
        eng = _toy_engine()
        sh = eng.allocate_shared(8, name="sh_toy")
        sh.write(0, 1.0, lane=0)
        sh.write(0, 2.0, lane=1)  # write-write
        eng.sync()
        sh.read(1, lane=0)
        sh.write(1, 3.0, lane=1)  # read-write
        eng.sync()
        kinds = sorted(h.kind for h in eng.result().sanitizer.hazards)
        assert kinds == ["read-write", "write-write"]

    def test_same_lane_sequence_is_not_a_race(self):
        eng = _toy_engine()
        sh = eng.allocate_shared(8, name="sh_toy")
        sh.write(0, 1.0, lane=2)
        sh.read(0, lane=2)
        eng.sync()
        assert eng.result().sanitizer.ok

    def test_disjoint_words_do_not_conflict(self):
        eng = _toy_engine()
        sh = eng.allocate_shared(8, name="sh_toy")
        sh.write(np.arange(4), np.ones(4), lane=0)
        sh.read(np.arange(4, 8), lane=1)
        eng.sync()
        assert eng.result().sanitizer.ok

    def test_never_synced_write_is_flagged(self):
        eng = _toy_engine()
        sh = eng.allocate_shared(8, name="sh_toy")
        with eng.phase("init"):
            sh.write(0, 1.0)
        report = eng.result().sanitizer
        assert [h.kind for h in report.hazards] == ["never-synced"]
        assert report.hazards[0].phase == "init"
        assert report.races == ()

    def test_redundant_sync_diagnostic_and_metric(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            eng = _toy_engine()
            sh = eng.allocate_shared(8, name="sh_toy")
            sh.write(0, 1.0)
            eng.sync()  # useful: traffic since start
            with eng.phase("spin"):
                eng.sync()  # wasted: nothing moved
            report = eng.result().sanitizer
        finally:
            set_default_registry(previous)
        assert report.syncs == 2
        assert report.redundant_syncs == 1
        kinds = [h.kind for h in report.hazards]
        assert kinds == ["redundant-sync"]
        assert report.hazards[0].phase == "spin"
        assert registry.value("repro_sync_redundant", phase="spin") == 1.0

    def test_charged_traffic_satisfies_the_sync_audit(self):
        # Cost-sketch kernels charge shared traffic without functional
        # accesses; their barriers are not "wasted".
        eng = _toy_engine()
        eng.charge_shared(4)
        eng.sync()
        report = eng.result().sanitizer
        assert report.redundant_syncs == 0
        assert report.ok

    def test_hazard_metric_counts_races(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            _race(_toy_engine())
        finally:
            set_default_registry(previous)
        assert (
            registry.value(
                "repro_sanitizer_hazards", kind="write-read", phase="toy:update"
            )
            == 1.0
        )


class TestCleanKernels:
    def test_full_sweep_is_clean(self):
        results = run_sweep()
        assert len(results) == len(kernel_cases())
        bad = [r for r in results if not r["ok"]]
        assert bad == []
        # The per-block cases genuinely exercised shared memory...
        block = [r for r in results if r["report"] is not None]
        assert block and all(r["report"]["syncs"] > 0 for r in block)
        # ...and none of their barriers were wasted.
        assert all(r["report"]["redundant_syncs"] == 0 for r in block)

    @settings(max_examples=10, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=16))
    def test_hazard_detection_is_batch_size_invariant(self, batch):
        # Racy engine: the same single hazard at every batch size.
        racy = _race(_toy_engine(batch=batch))
        assert [h.kind for h in racy.hazards] == ["write-read"]
        # Clean kernel: zero hazards at every batch size.
        with sanitizing(True):
            clean = per_block_lu(_dominant(batch)).launch.sanitizer
        assert clean.ok
        assert clean.redundant_syncs == 0


class TestOffMode:
    def test_default_engine_has_no_sanitizer(self):
        assert not sanitize_enabled()
        result = per_block_lu(_dominant(2))
        assert result.launch.sanitizer is None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        result = per_block_lu(_dominant(2))
        assert result.launch.sanitizer is not None

    def test_off_run_is_bitwise_identical(self):
        a = _dominant(3)
        off = per_block_lu(a)
        with sanitizing(True):
            on = per_block_lu(a)
        assert np.array_equal(off.output, on.output)
        assert off.cycles == on.cycles
        assert off.launch.phase_totals == on.launch.phase_totals

    def test_sanitizing_context_restores(self):
        assert not sanitize_enabled()
        with sanitizing(True):
            assert sanitize_enabled()
            with sanitizing(False):
                assert not sanitize_enabled()
            assert sanitize_enabled()
        assert not sanitize_enabled()


class TestNormalize:
    @pytest.mark.parametrize(
        "index, expected",
        [
            (3, [3]),
            ([4, 2, 2], [2, 4]),
            (slice(1, 4), [1, 2, 3]),
            (np.array([True, False, True, False] * 2), [0, 2, 4, 6]),
        ],
    )
    def test_index_forms(self, index, expected):
        words = SharedSanitizer._normalize(index, 8)
        assert words.tolist() == expected
