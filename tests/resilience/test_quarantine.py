"""Numerical quarantine: singular problems fail their slot, not the batch."""

import numpy as np
import pytest

from repro.kernels.batched import diagonally_dominant_batch
from repro.kernels.device import per_block_lu
from repro.runtime import BatchRuntime, ProblemBatch
from repro.resilience import ProblemFailure, scan_output


def _runtime(tmp_path, **kwargs):
    kwargs.setdefault("use_caches", False)
    kwargs.setdefault("workers", 1)
    return BatchRuntime(**kwargs)


def _spd_batch(batch, n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((batch, n, n))
    return a @ a.transpose(0, 2, 1) + n * np.eye(n)


class TestLuQuarantine:
    def test_singular_problems_complete_with_failures(self, tmp_path):
        matrices = diagonally_dominant_batch(20, 6, seed=0)
        matrices[4] = 0.0
        matrices[17] = 0.0
        clean = diagonally_dominant_batch(20, 6, seed=0)

        report = _runtime(tmp_path).run(ProblemBatch.single("lu", matrices))

        assert [(f.index, f.reason) for f in report.failures] == [
            (4, "zero-pivot"),
            (17, "zero-pivot"),
        ]
        assert report.summary()["failures"] == 2
        assert np.isnan(report.output[4]).all()
        assert np.isnan(report.output[17]).all()
        # Surviving slots are bitwise what a clean batch produces.
        survivors = [i for i in range(20) if i not in (4, 17)]
        clean_out = _runtime(tmp_path).run(ProblemBatch.single("lu", clean)).output
        assert np.array_equal(report.output[survivors], clean_out[survivors])

    def test_failures_span_chunk_boundaries(self, tmp_path):
        from repro.model.flops import lu_flops

        matrices = diagonally_dominant_batch(24, 6, seed=1)
        for index in (0, 9, 23):
            matrices[index] = 0.0
        report = _runtime(tmp_path, chunk_cost=lu_flops(6) * 5).run(
            ProblemBatch.single("lu", matrices)
        )
        assert report.chunks > 1
        assert [f.index for f in report.failures] == [0, 9, 23]

    def test_failure_record_shape(self, tmp_path):
        matrices = diagonally_dominant_batch(4, 5, seed=2)
        matrices[1] = 0.0
        report = _runtime(tmp_path).run(ProblemBatch.single("lu", matrices))
        (failure,) = report.failures
        assert isinstance(failure, ProblemFailure)
        assert failure.to_dict() == {
            "op": "lu",
            "group": 0,
            "index": 1,
            "reason": "zero-pivot",
        }
        assert "lu" in str(failure)


class TestCholeskyQuarantine:
    def test_non_psd_input_quarantined(self, tmp_path):
        matrices = _spd_batch(10, 5, seed=3)
        matrices[6] = -np.eye(5)  # decisively not PSD
        report = _runtime(tmp_path).run(ProblemBatch.single("cholesky", matrices))
        assert [(f.index, f.reason) for f in report.failures] == [
            (6, "not-positive-definite")
        ]
        assert np.isnan(report.output[6]).all()
        assert np.isfinite(report.output[5]).all()


class TestScanOutput:
    def test_unknown_op_falls_back_to_nonfinite_scan(self):
        output = np.ones((3, 2, 2))
        output[1, 0, 0] = np.inf
        assert scan_output("mystery-op", output, None) == {1: "non-finite"}

    def test_clean_output_reports_nothing(self):
        assert scan_output("lu", np.ones((4, 3, 3)), None) == {}


class TestBitwiseNeutrality:
    def test_clean_batch_untouched(self, tmp_path):
        matrices = diagonally_dominant_batch(12, 6, seed=5)
        report = _runtime(tmp_path).run(ProblemBatch.single("lu", matrices))
        assert report.failures == []
        assert np.array_equal(report.output, per_block_lu(matrices).output)
