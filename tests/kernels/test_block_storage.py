"""BlockKernel storage: the distributed primitives against a dense
NumPy reference, and the non-finite contract of the rank-1 update."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.batched import diagonally_dominant_batch
from repro.kernels.device import per_block_lu
from repro.kernels.device.base import BlockKernel
from repro.kernels.infos import runtime_kernels
from repro.model.block_config import BlockConfig


def bits(x):
    """Raw bit pattern, so -0.0 != +0.0 and NaN payloads compare."""
    x = np.ascontiguousarray(x)
    return x.view(np.uint64 if x.dtype.itemsize == 8 else np.uint32)


def sample(rng, shape, dtype):
    """Normal entries with a sprinkling of +0.0 and -0.0."""
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    x = x.astype(dtype)
    pick = rng.random(shape)
    x[pick < 0.1] = 0.0
    x[pick > 0.9] = -0.0
    return x


def textbook_outer(v, w):
    """``v[i] * w[j]`` added onto a zero accumulator.

    Complex products use ``(ar*br - ai*bi) + i(ar*bi + ai*br)`` with
    every operation rounded in the working precision -- the formula the
    rank-1 update must reproduce bit for bit.
    """
    zero = np.zeros((), dtype=v.real.dtype)
    ar, br = v.real[:, :, None], w.real[:, None, :]
    if v.dtype.kind != "c":
        return zero + ar * br
    ai, bi = v.imag[:, :, None], w.imag[:, None, :]
    out = np.empty(ar.shape[:2] + br.shape[2:], dtype=v.dtype)
    out.real = zero + (ar * br - ai * bi)
    out.imag = zero + (ar * bi + ai * br)
    return out


@st.composite
def kernel_cases(draw):
    m = draw(st.integers(1, 13))
    n = draw(st.integers(1, 13))
    return dict(
        m=m,
        n=n,
        threads=draw(st.sampled_from([1, 4, 16, 64])),
        row_start=draw(st.integers(0, m)),
        col_start=draw(st.integers(0, n)),
        dtype=draw(st.sampled_from([np.float32, np.complex64])),
        seed=draw(st.integers(0, 2**16)),
    )


def build(case, batch=3):
    rng = np.random.default_rng(case["seed"])
    m, n, dtype = case["m"], case["n"], case["dtype"]
    a = sample(rng, (batch, m, n), dtype)
    config = BlockConfig(m, n, case["threads"], complex_dtype=a.dtype.kind == "c")
    return rng, a, BlockKernel(a, config=config)


def padding(kernel):
    """Stored entries that lie outside the m x n matrix."""
    outside = np.ones(kernel._padded.shape, dtype=bool)
    outside[:, : kernel.m, : kernel.n] = False
    return kernel._padded[outside]


class TestPrimitivesAgainstDense:
    @settings(max_examples=120, deadline=None)
    @given(kernel_cases())
    def test_rank1_update_writes_only_the_trailing_block(self, case):
        rng, a, kernel = build(case)
        rs, cs = case["row_start"], case["col_start"]
        v = sample(rng, (kernel.batch, kernel.m), a.dtype)
        w = sample(rng, (kernel.batch, kernel.n), a.dtype)

        kernel.rank1_update(v, w, row_start=rs, col_start=cs)

        want = a.copy()
        want[:, rs:, cs:] -= textbook_outer(v[:, rs:], w[:, cs:])
        np.testing.assert_array_equal(bits(kernel.matrix), bits(want))
        assert not bits(padding(kernel)).any(), "padding must stay +0.0"

    @settings(max_examples=80, deadline=None)
    @given(kernel_cases())
    def test_extract_returns_copies_and_deposit_hits_one_slice(self, case):
        rng, a, kernel = build(case)
        rs, cs = case["row_start"], case["col_start"]
        j, i = rng.integers(kernel.n), rng.integers(kernel.m)

        col = kernel.extract_column(j, rs)
        row = kernel.extract_row(i, cs)
        np.testing.assert_array_equal(bits(col), bits(a[:, rs:, j]))
        np.testing.assert_array_equal(bits(row), bits(a[:, i, cs:]))
        col += 1
        row += 1
        np.testing.assert_array_equal(bits(kernel.matrix), bits(a))

        want = a.copy()
        new_col = sample(rng, col.shape, a.dtype)
        kernel.deposit_column(j, rs, new_col)
        want[:, rs:, j] = new_col
        new_row = sample(rng, row.shape, a.dtype)
        kernel.deposit_row(i, cs, new_row)
        want[:, i, cs:] = new_row
        np.testing.assert_array_equal(bits(kernel.matrix), bits(want))
        assert not bits(padding(kernel)).any()

    def test_store_copies_the_matrix(self):
        case = dict(m=5, n=3, threads=4, dtype=np.float32, seed=1)
        _, a, kernel = build(case)
        out = kernel.store()
        out[...] = 7
        np.testing.assert_array_equal(bits(kernel.matrix), bits(a))


class TestNonFiniteContract:
    def test_inf_in_l_leaves_finished_entries_alone(self):
        """An Inf multiplier must not leak NaN into finished factors.

        Step 0 of LU scales column 0 into ``l``; an Inf there may only
        spread through the trailing block.  Row 0 (U's first row) and
        the rest of column 0 (L's first column) are already final.
        """
        a = diagonally_dominant_batch(2, 6, dtype=np.float32, seed=3)
        a[1, 2, 0] = np.inf
        finite = a.copy()
        finite[1, 2, 0] = 1.0

        with np.errstate(invalid="ignore"):
            got = per_block_lu(a)
        ref = per_block_lu(finite)

        np.testing.assert_array_equal(bits(got.output[0]), bits(ref.output[0]))
        lu, lu_ref = got.output[1], ref.output[1]
        assert np.isinf(lu[2, 0])
        rows = [0, 1, 3, 4, 5]
        np.testing.assert_array_equal(bits(lu[rows, 0]), bits(lu_ref[rows, 0]))
        np.testing.assert_array_equal(bits(lu[0]), bits(lu_ref[0]))
        detector = runtime_kernels()["lu"].breakdowns
        assert detector(got.output, got.extra) == {1: "non-finite"}
