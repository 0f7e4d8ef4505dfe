"""Golden digests: every ``BlockKernel`` kernel's bits, pinned.

Each case runs one device kernel on a fixed seeded input and compares a
blake2b digest of its ``output``/``extra`` arrays, plus the exact
``launch.cycles``, against values recorded before the kernels' storage
was last reorganised.  A change to how the tiles are held (layout,
temporaries, update order) must leave all of them alone.

The cases cover real and complex inputs, shapes that are not a multiple
of the tile edge ``r`` (so the zero padding is exercised) and 1x1.
Output digests depend on NumPy's rounding, so they are only compared
under the NumPy minor release they were recorded with; cycle counts are
pure engine arithmetic and are compared everywhere.
"""

import hashlib

import numpy as np
import pytest

from repro.kernels.batched import diagonally_dominant_batch, random_batch
from repro.kernels.batched.problems import hermitian_batch
from repro.kernels.device import (
    per_block_cholesky,
    per_block_gauss_jordan,
    per_block_least_squares,
    per_block_lu,
    per_block_lu_pivot,
    per_block_qr,
    per_block_qr_solve,
)

#: NumPy minor release the output digests below were recorded with.
RECORDED_NUMPY = "2.4"

F32, C64 = np.float32, np.complex64


def _hpd(batch, n, dtype, seed):
    """Hermitian, strictly diagonally dominant, positive diagonal: HPD."""
    a = hermitian_batch(batch, n, dtype=dtype, seed=seed)
    idx = np.arange(n)
    bump = (np.abs(a).sum(axis=2) + 1.0).astype(a.real.dtype)
    a[:, idx, idx] = (a[:, idx, idx].real + bump).astype(a.dtype)
    return a


def _square(batch, n, dtype, seed):
    return diagonally_dominant_batch(batch, n, dtype=dtype, seed=seed)


def _rhs(batch, n, dtype, seed):
    return random_batch(batch, n, 1, dtype=dtype, seed=seed + 100)[..., 0]


#: name -> zero-argument run of one kernel on a fixed input.
CASES = {
    "lu_f32_13": lambda: per_block_lu(_square(3, 13, F32, 1)),
    "lu_c64_9": lambda: per_block_lu(_square(2, 9, C64, 2)),
    "lu_f32_1": lambda: per_block_lu(_square(2, 1, F32, 3)),
    "lu_f32_16": lambda: per_block_lu(_square(2, 16, F32, 4)),
    "lu_f32_56": lambda: per_block_lu(_square(2, 56, F32, 24)),
    "lu_pivot_f32_13": lambda: per_block_lu_pivot(random_batch(3, 13, 13, F32, 5)),
    "lu_pivot_c64_7": lambda: per_block_lu_pivot(random_batch(2, 7, 7, C64, 6)),
    "lu_pivot_f32_1": lambda: per_block_lu_pivot(random_batch(2, 1, 1, F32, 7)),
    "qr_f32_13x9": lambda: per_block_qr(random_batch(3, 13, 9, F32, 8)),
    "qr_c64_80x16": lambda: per_block_qr(random_batch(2, 80, 16, C64, 9)),
    "qr_c64_11x11": lambda: per_block_qr(random_batch(2, 11, 11, C64, 10)),
    "qr_f32_1": lambda: per_block_qr(random_batch(2, 1, 1, F32, 11)),
    "qr_solve_f32_10": lambda: per_block_qr_solve(
        random_batch(3, 10, 10, F32, 12), _rhs(3, 10, F32, 12)
    ),
    "qr_solve_c64_6": lambda: per_block_qr_solve(
        random_batch(2, 6, 6, C64, 13), _rhs(2, 6, C64, 13)
    ),
    "qr_solve_f32_1": lambda: per_block_qr_solve(
        _square(2, 1, F32, 14), _rhs(2, 1, F32, 14)
    ),
    "cholesky_f32_11": lambda: per_block_cholesky(_hpd(3, 11, F32, 15)),
    "cholesky_c64_9": lambda: per_block_cholesky(_hpd(2, 9, C64, 16)),
    "cholesky_f32_1": lambda: per_block_cholesky(_hpd(2, 1, F32, 17)),
    "gj_f32_10": lambda: per_block_gauss_jordan(
        _square(3, 10, F32, 18), _rhs(3, 10, F32, 18)
    ),
    "gj_c64_7": lambda: per_block_gauss_jordan(
        _square(2, 7, C64, 19), _rhs(2, 7, C64, 19)
    ),
    "gj_f32_1": lambda: per_block_gauss_jordan(
        _square(2, 1, F32, 20), _rhs(2, 1, F32, 20)
    ),
    "lstsq_f32_14x5": lambda: per_block_least_squares(
        random_batch(3, 14, 5, F32, 21), _rhs(3, 14, F32, 21)
    ),
    "lstsq_c64_9x4": lambda: per_block_least_squares(
        random_batch(2, 9, 4, C64, 22), _rhs(2, 9, C64, 22)
    ),
    "lstsq_f32_1": lambda: per_block_least_squares(
        _square(2, 1, F32, 23), _rhs(2, 1, F32, 23)
    ),
}


def digest(result) -> str:
    """blake2b of ``output`` and ``extra``: dtype, shape and raw bytes."""
    h = hashlib.blake2b(digest_size=16)
    for array in (result.output, result.extra):
        if array is None:
            h.update(b"none")
            continue
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


#: name -> (output/extra digest, launch cycles as float.hex).
GOLDEN = {
    "cholesky_c64_9": ("345b583e92d8e7e4adfac248e428a473", "0x1.74c5f16872b02p+12"),
    "cholesky_f32_1": ("f79ec318d8f64076271833528a87ba88", "0x1.9ab4bc303de52p+8"),
    "cholesky_f32_11": ("b6e34bdb13af30495642d1b96725b7a0", "0x1.7316cf2cd414fp+12"),
    "gj_c64_7": ("1c91f8c120fe483f8aa88ce65aaec08d", "0x1.b16f49fbe76c8p+11"),
    "gj_f32_1": ("afea0f91fbee60945bbac92c7f698733", "0x1.a08f1a485cd7cp+8"),
    "gj_f32_10": ("546f48f39848cdbf15e85b2f27a018a3", "0x1.84e5c1b4e81b5p+12"),
    "lstsq_c64_9x4": ("fd160ed793cd4452fd952510b0efed4b", "0x1.3a3a660b60b60p+13"),
    "lstsq_f32_1": ("1ba6bc9e730b70bca52c44dc7812b103", "0x1.6ed2f0c0f794ap+7"),
    "lstsq_f32_14x5": ("b7695c7f2b72300baa51b94e3c746d3d", "0x1.297628a3d70a4p+13"),
    "lu_c64_9": ("b9b1b3cc1d0a6fab8862c1c5b0f8289b", "0x1.95c5f16872b02p+12"),
    "lu_f32_1": ("f2bc4d151eaaa122849e7e6b6ffa7ee4", "0x1.6d2f0c0f79497p+2"),
    "lu_f32_13": ("139b292e7ed1207fa43edd20266646af", "0x1.c84503bd8dc46p+12"),
    "lu_f32_16": ("4e97fc7ef90c225186dc0b1774773c65", "0x1.19e5e181ef293p+13"),
    "lu_f32_56": ("ff4d3d69de25f4333cfe4014c506a979", "0x1.3b0e014ef6371p+16"),
    "lu_pivot_c64_7": ("781b26a64277ec84d2c6cf83f640d7e7", "0x1.2a298053bd8dcp+13"),
    "lu_pivot_f32_1": ("87b8ee218c5d68c12ffb5ed05bff56ea", "0x1.6d2f0c0f79497p+2"),
    "lu_pivot_f32_13": ("d210d01f4103d4bd8c9ef63941a86692", "0x1.2fa140ef63712p+14"),
    "qr_c64_11x11": ("271d93769d97902331779fb0ca88c140", "0x1.5efb67966a0a8p+14"),
    "qr_c64_80x16": ("38b3776af86508193fe1354c60b5adcd", "0x1.4733acf13579cp+17"),
    "qr_f32_1": ("445f2955b0e8705213fd03eab7fdbbb8", "0x1.6d2f0c0f79497p+2"),
    "qr_f32_13x9": ("b1c7b7f326ab0aadb4a9c15d8f4e337e", "0x1.dba4d010624ddp+13"),
    "qr_solve_c64_6": ("8e50b36ea4f561c37ad2c0c72741f1f4", "0x1.47771a485cd7cp+13"),
    "qr_solve_f32_1": ("c54cf3e981cb4ebf3f1fc657affc0368", "0x1.691e3490b9af7p+7"),
    "qr_solve_f32_10": ("cd116a2b098dd1aeba2991222e0a14ee", "0x1.05dd706d3a06dp+14"),
}


@pytest.fixture(scope="module")
def runs():
    return {name: run() for name, run in CASES.items()}


def test_every_case_is_recorded():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cycles_unchanged(runs, name):
    assert float(runs[name].launch.cycles).hex() == GOLDEN[name][1]


@pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != RECORDED_NUMPY,
    reason=f"output digests are recorded under NumPy {RECORDED_NUMPY}",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bits_unchanged(runs, name):
    assert digest(runs[name]) == GOLDEN[name][0]
