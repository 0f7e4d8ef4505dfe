"""Device kernels: numerics identical to the batched layer, plus the
cycle accounting that regenerates Table V / Figure 8."""

import numpy as np
import pytest

from repro.kernels.batched import (
    diagonally_dominant_batch,
    gauss_jordan_solve,
    lu_factor,
    qr_factor,
    random_batch,
    rhs_batch,
    solve_residual,
)
from repro.kernels.device import (
    per_block_gauss_jordan,
    per_block_lu,
    per_block_qr,
    per_block_qr_solve,
    per_thread_factor,
)
from repro.kernels.device.base import batch_dot
from repro.kernels.device.per_block_qr import _conj_dot_columns
from repro.model import ModelParameters, predict_per_block, predict_per_thread


@pytest.fixture(scope="module")
def params():
    return ModelParameters.paper_table_iv()


class TestPerBlockLuNumerics:
    def test_matches_batched_bitwise(self):
        a = diagonally_dominant_batch(6, 24, dtype=np.float32, seed=1)
        dev = per_block_lu(a)
        ref = lu_factor(a.copy())
        np.testing.assert_array_equal(dev.output, ref.lu)
        np.testing.assert_array_equal(dev.extra, ref.not_solved)

    def test_complex_matches_batched(self):
        a = diagonally_dominant_batch(4, 16, dtype=np.complex64, seed=2)
        dev = per_block_lu(a)
        ref = lu_factor(a.copy())
        np.testing.assert_allclose(dev.output, ref.lu, atol=1e-5)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            per_block_lu(random_batch(2, 8, 6, dtype=np.float32))


class TestPerBlockQrNumerics:
    def test_matches_batched(self):
        a = random_batch(4, 24, 24, dtype=np.float32, seed=3)
        dev = per_block_qr(a)
        ref = qr_factor(a.copy())
        np.testing.assert_allclose(dev.output, ref.packed, atol=2e-4)
        np.testing.assert_allclose(dev.extra, ref.taus, atol=2e-4)

    def test_non_square_tall(self):
        a = random_batch(3, 80, 16, dtype=np.complex64, seed=4)
        dev = per_block_qr(a)
        ref = qr_factor(a.copy())
        np.testing.assert_allclose(dev.output, ref.packed, atol=2e-4)

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            per_block_qr(random_batch(2, 6, 8, dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    @pytest.mark.parametrize("shape", [(256, 32, 32), (128, 80, 16), (7, 56, 56)])
    def test_matvec_equals_per_column_batch_dot(self, shape, dtype):
        """The one-shot ``v^H A`` reduction is the per-column loop, bitwise,
        and stays batch-size invariant."""
        batch, m, n = shape
        block = random_batch(batch, m, n, dtype=dtype, seed=6)
        # Shared-memory reads come back batch-fastest; so does this v.
        v = np.asfortranarray(random_batch(batch, m, 1, dtype=dtype, seed=7)[..., 0])
        got = _conj_dot_columns(v, block)
        for k in range(n):
            want = batch_dot(v.conj(), block[:, :, k].copy())
            np.testing.assert_array_equal(got[:, k], want)
        np.testing.assert_array_equal(_conj_dot_columns(v[:3], block[:3]), got[:3])

    def test_solve_residual_small(self):
        a = diagonally_dominant_batch(5, 24, dtype=np.float32, seed=5)
        b = rhs_batch(5, 24, dtype=np.float32)[:, :, 0]
        res = per_block_qr_solve(a, b)
        assert solve_residual(a, res.output, b) < 5e-5

    def test_solve_shape_validation(self):
        a = diagonally_dominant_batch(2, 8, dtype=np.float32)
        with pytest.raises(ValueError):
            per_block_qr_solve(a, np.zeros((2, 7), dtype=np.float32))


class TestPerBlockGaussJordan:
    def test_matches_batched_bitwise(self):
        a = diagonally_dominant_batch(5, 16, dtype=np.float32, seed=6)
        b = rhs_batch(5, 16, dtype=np.float32)[:, :, 0]
        dev = per_block_gauss_jordan(a, b)
        ref = gauss_jordan_solve(a, b)
        np.testing.assert_array_equal(dev.output, ref.x)

    def test_flags_singular(self):
        a = diagonally_dominant_batch(3, 8, dtype=np.float32)
        a[1] = 0
        b = rhs_batch(3, 8, dtype=np.float32)[:, :, 0]
        dev = per_block_gauss_jordan(a, b)
        assert dev.extra.tolist() == [False, True, False]
        assert np.isnan(dev.output[1]).all()


class TestTableV:
    """Cycle counts for the 56x56 flagship size."""

    @pytest.fixture(scope="class")
    def lu56(self):
        return per_block_lu(diagonally_dominant_batch(2, 56, dtype=np.float32))

    @pytest.fixture(scope="class")
    def qr56(self):
        return per_block_qr(random_batch(2, 56, 56, dtype=np.float32))

    def test_lu_compute_cycles_band(self, lu56):
        # Table V: LU compute 68250 cycles; accept +-20%.
        compute = (
            lu56.cycles
            - lu56.phase_cycles("load")["load"]
            - lu56.phase_cycles("store")["store"]
        )
        assert 0.8 * 68250 < compute < 1.2 * 68250

    def test_qr_compute_cycles_band(self, qr56):
        # Table V: QR compute 150203 cycles; accept +-20%.
        compute = (
            qr56.cycles
            - qr56.phase_cycles("load")["load"]
            - qr56.phase_cycles("store")["store"]
        )
        assert 0.8 * 150203 < compute < 1.2 * 150203

    def test_load_store_cycles_band(self, qr56):
        # Table V: QR load 9120 / store 9762 cycles.
        load = qr56.phase_cycles("load")["load"]
        store = qr56.phase_cycles("store")["store"]
        assert 7000 < load < 11000
        assert 7000 < store < 11000

    def test_qr_slower_than_lu(self, lu56, qr56):
        assert qr56.cycles > lu56.cycles

    def test_112_problems_resident(self, qr56):
        # Section V-C: 14 x 8 = 112 problems simultaneously.
        assert qr56.launch.occupancy.blocks_per_chip == 112

    def test_gflops_band(self, qr56, lu56):
        assert 150 < qr56.launch.throughput_gflops(8000) < 230
        assert 140 < lu56.launch.throughput_gflops(8000) < 220


class TestFigure8Breakdown:
    @pytest.fixture(scope="class")
    def qr56(self):
        return per_block_qr(random_batch(2, 56, 56, dtype=np.float32))

    def test_seven_panels(self, qr56):
        assert len(qr56.panel_breakdown()) == 7

    def test_three_ops_per_panel(self, qr56):
        first = qr56.panel_breakdown()[0]
        assert set(first) == {
            "Form HH Vector",
            "Matrix-Vector Multiply",
            "Rank-1 Update",
        }

    def test_panels_shrink(self, qr56):
        totals = [sum(p.values()) for p in qr56.panel_breakdown()]
        assert totals == sorted(totals, reverse=True)

    def test_measured_exceeds_model_per_panel(self, qr56, params):
        # The engine includes bookkeeping overhead the analytic model
        # omits -- Figure 8's measured bars top the modeled ones.
        from repro.model import panel_breakdown as model_panels

        pred = predict_per_block(params, "qr", 56)
        measured = [sum(p.values()) for p in qr56.panel_breakdown()]
        modeled = [sum(p.values()) for p in model_panels(pred)]
        assert sum(measured) > sum(modeled)
        # ... but by less than 35%: the model is supposed to be accurate.
        assert sum(measured) < 1.35 * sum(modeled)


class TestFigure9Shapes:
    def test_measured_tracks_model_at_56(self, params):
        a = random_batch(2, 56, 56, dtype=np.float32)
        measured = per_block_qr(a).launch.throughput_gflops()
        predicted = predict_per_block(params, "qr", 56).gflops
        assert measured == pytest.approx(predicted, rel=0.25)

    def test_spill_hurts_measured_but_not_model_at_64(self, params):
        a = random_batch(2, 64, 64, dtype=np.float32)
        measured = per_block_qr(a).launch.throughput_gflops()
        predicted = predict_per_block(params, "qr", 64).gflops
        # Figure 9: "false predictions at 64 ... due to register
        # spilling, which our model does not consider".
        assert measured < predicted * 0.9

    def test_thread_switch_drop_at_80(self):
        a64 = random_batch(2, 64, 64, dtype=np.float32)
        a80 = random_batch(2, 80, 80, dtype=np.float32)
        g64 = per_block_qr(a64).launch.throughput_gflops()
        g80 = per_block_qr(a80).launch.throughput_gflops()
        assert g80 < g64


class TestPerThread:
    def test_numerics_match_batched(self):
        a = random_batch(32, 6, 6, dtype=np.float32, seed=7)
        res = per_thread_factor(a, "qr")
        ref = qr_factor(a.copy())
        np.testing.assert_array_equal(res.output, ref.packed)

    def test_figure4_tracks_roofline_below_spill(self, params):
        for n in (3, 5, 7):
            a = random_batch(512, n, n, dtype=np.float32, seed=n)
            res = per_thread_factor(a, "qr")
            pred = predict_per_thread(params, "qr", n)
            assert res.gflops == pytest.approx(pred.gflops, rel=0.1)
            assert not res.spilled

    def test_figure4_collapse_past_8(self, params):
        a = random_batch(512, 10, 10, dtype=np.float32)
        res = per_thread_factor(a, "qr")
        pred = predict_per_thread(params, "qr", 10)
        assert res.spilled
        assert res.gflops < 0.6 * pred.gflops

    def test_lu_below_qr_gflops(self):
        a = random_batch(512, 6, 6, dtype=np.float32)
        qr = per_thread_factor(a, "qr")
        lu = per_thread_factor(a, "lu")
        assert lu.gflops < qr.gflops

    def test_unknown_kind_rejected(self):
        a = random_batch(4, 4, 4, dtype=np.float32)
        with pytest.raises(ValueError):
            per_thread_factor(a, "cholesky")


class TestFastMathCostEffect:
    def test_precise_math_slows_per_block_qr(self):
        a = random_batch(2, 32, 32, dtype=np.float32)
        fast = per_block_qr(a, fast_math=True)
        precise = per_block_qr(a, fast_math=False)
        # Section V-C: ~30% median penalty without hardware functions.
        assert precise.cycles > fast.cycles

    def test_overhead_accounting_toggle(self):
        a = random_batch(2, 16, 16, dtype=np.float32)
        with_oh = per_block_qr(a, account_overhead=True)
        without = per_block_qr(a, account_overhead=False)
        assert with_oh.cycles > without.cycles
        assert without.breakdown.get("overhead", 0) == 0


class TestPivotedPerBlockLu:
    def test_numerics_match_batched_pivoted(self):
        from repro.kernels.batched import lu_factor_pivot
        from repro.kernels.device import per_block_lu_pivot

        a = random_batch(3, 12, 12, dtype=np.float64, seed=21)
        dev = per_block_lu_pivot(a)
        ref = lu_factor_pivot(a.copy())
        np.testing.assert_array_equal(dev.output, ref.lu)
        np.testing.assert_array_equal(dev.extra, ref.perm)

    def test_handles_zero_leading_pivot(self):
        from repro.kernels.device import per_block_lu_pivot

        a = random_batch(2, 8, 8, dtype=np.float64, seed=22)
        a[:, 0, 0] = 0.0
        dev = per_block_lu_pivot(a)
        assert np.isfinite(dev.output).all()

    def test_costs_more_than_unpivoted(self):
        from repro.kernels.device import per_block_lu_pivot

        a = diagonally_dominant_batch(2, 32, dtype=np.float32)
        plain = per_block_lu(a).cycles
        pivoted = per_block_lu_pivot(a).cycles
        assert pivoted > 1.5 * plain  # the price of stability

    def test_pivot_phases_present(self):
        from repro.kernels.device import per_block_lu_pivot

        a = diagonally_dominant_batch(2, 16, dtype=np.float32)
        dev = per_block_lu_pivot(a)
        panels = dev.panel_breakdown()
        assert "Pivot Search" in panels[0]
        assert "Row Swap" in panels[0]

    def test_non_square_rejected(self):
        from repro.kernels.device import per_block_lu_pivot

        with pytest.raises(ValueError):
            per_block_lu_pivot(random_batch(2, 8, 6, dtype=np.float32))


class TestTinyAndSkinnyShapes:
    """Problems smaller than the thread grid still execute correctly
    (zero-padded tiles; padding is invariant under the updates)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tiny_qr(self, n):
        a = random_batch(2, n, n, dtype=np.float32, seed=n)
        dev = per_block_qr(a)
        ref = qr_factor(a.copy())
        np.testing.assert_allclose(dev.output, ref.packed, atol=1e-5)

    def test_single_column_qr(self):
        a = random_batch(2, 10, 1, dtype=np.float32)
        dev = per_block_qr(a)
        ref = qr_factor(a.copy())
        np.testing.assert_allclose(dev.output, ref.packed, atol=1e-5)

    def test_tiny_lu(self):
        a = diagonally_dominant_batch(2, 3, dtype=np.float32)
        dev = per_block_lu(a)
        ref = lu_factor(a.copy())
        np.testing.assert_array_equal(dev.output, ref.lu)

    def test_tiny_gauss_jordan(self):
        a = diagonally_dominant_batch(2, 3, dtype=np.float32)
        b = rhs_batch(2, 3, dtype=np.float32)[:, :, 0]
        dev = per_block_gauss_jordan(a, b)
        assert solve_residual(a, dev.output, b) < 1e-5

    def test_1x1_everything(self):
        a = np.full((2, 1, 1), 4.0, dtype=np.float32)
        qr = per_block_qr(a)
        lu = per_block_lu(a)
        np.testing.assert_array_equal(qr.output, a)
        np.testing.assert_array_equal(lu.output, a)


class TestPerBlockCholesky:
    def _spd(self, n, dtype, seed=1):
        from repro.kernels.batched import hermitian_batch

        h = hermitian_batch(3, n, dtype=dtype, seed=seed)
        return (h @ np.swapaxes(h.conj(), 1, 2) + n * np.eye(n)).astype(dtype)

    def test_matches_batched_cholesky(self):
        from repro.kernels.batched import cholesky_factor
        from repro.kernels.device import per_block_cholesky

        spd = self._spd(16, np.float32)
        dev = per_block_cholesky(spd)
        ref = cholesky_factor(spd.copy())
        np.testing.assert_allclose(dev.output, ref, atol=1e-4)

    def test_complex_hpd(self):
        from repro.kernels.device import per_block_cholesky

        spd = self._spd(12, np.complex64)
        dev = per_block_cholesky(spd)
        recon = dev.output @ np.swapaxes(dev.output.conj(), 1, 2)
        np.testing.assert_allclose(recon, spd, rtol=1e-3, atol=1e-3)

    def test_cheaper_than_lu(self):
        from repro.kernels.device import per_block_cholesky

        spd = self._spd(32, np.float32)
        chol = per_block_cholesky(spd).cycles
        lu = per_block_lu(spd.copy()).cycles
        assert chol < lu  # half the trailing work, cheaper column op

    def test_non_spd_flagged(self):
        from repro.kernels.device import per_block_cholesky

        bad = -np.eye(8, dtype=np.float32)[None].repeat(2, 0)
        dev = per_block_cholesky(bad)
        assert dev.extra.all()
        assert np.isnan(dev.output).all()

    def test_non_square_rejected(self):
        from repro.kernels.device import per_block_cholesky

        with pytest.raises(ValueError):
            per_block_cholesky(random_batch(2, 8, 6, dtype=np.float32))
