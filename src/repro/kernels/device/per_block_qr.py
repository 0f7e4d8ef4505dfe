"""One-problem-per-block Householder QR on the SIMT engine.

The Section V QR: per column, the owning threads compute the column norm
with per-thread partials and a serial sqrt(p)-thread reduction (done by
thread 0), the diagonal thread forms the scale factor (one sqrt, two
divides), the scaled Householder vector is published through shared
memory, and the trailing update runs as matrix-vector multiply (with its
own reduction) followed by a rank-1 update -- the three operations of
Figure 8.  Costs are charged per Table VI's rows, plus the engine's
bookkeeping overhead (the "Meas. Overhead" wedge).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ...model.flops import qr_flops, qr_flops_complex
from ..batched._arith import arithmetic_mode
from .base import (
    BlockKernel,
    DeviceKernelResult,
    batch_dot,
    nonfinite_breakdowns,
)

__all__ = ["per_block_qr", "per_block_qr_solve"]


def _qr_breakdowns(output: np.ndarray, extra) -> dict:
    """Quarantine hook: non-finite factors *or* taus fail the slot.

    Householder QR has no pivot to hit zero -- a breakdown surfaces as
    Inf/NaN from an overflowed norm or a degenerate reflector.
    """
    found = nonfinite_breakdowns(output)
    if extra is not None:
        taus = np.asarray(extra).reshape(extra.shape[0], -1)
        for i in np.nonzero(~np.isfinite(taus).all(axis=1))[0]:
            found.setdefault(int(i), "non-finite")
    return found


def _conj_dot_columns(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``v^H block[:, :, k]`` for every column ``k``: shape (batch, cols).

    One reduction for all columns, bitwise equal to :func:`batch_dot`
    per column: the reduced axis is the contiguous last one, so each
    problem rounds the same however the batch is sliced.
    """
    vh = np.ascontiguousarray(v).conj()
    columns = np.ascontiguousarray(block.transpose(0, 2, 1))
    return (vh[:, None, :] * columns).sum(axis=-1)


def _factor_columns(kernel: BlockKernel, ncols: int) -> np.ndarray:
    """Householder-sweep the first ``ncols`` columns of the matrix.

    Trailing updates span the full matrix width, so right-hand-side columns
    appended past ``ncols`` accumulate ``Q^H b`` for free (Section III-D).
    Returns the taus; the packed factors replace the matrix.
    """
    eng = kernel.engine
    mode = arithmetic_mode(kernel.fast_math)
    m, n, r = kernel.m, kernel.n, kernel.r
    # A complex MAC is 4 FMAs on 2 independent chains: with the
    # dual-issue pipeline its dependent cost is ~2 gamma, while the
    # algorithmic credit is 8 real FLOPs (4x the real MAC's 2).
    cost = 2 if kernel.complex else 1
    credit = 8.0 if kernel.complex else 2.0
    real_dtype = np.zeros(1, dtype=kernel.dtype).real.dtype
    taus = np.zeros((kernel.batch, ncols), dtype=kernel.dtype)

    steps = ncols if m > ncols else ncols - 1  # no reflector for a 1-row tail
    for j in range(steps):
        panel = j // r
        N = kernel.column_tile_rows(j)
        with eng.phase(f"panel{panel}:Form HH Vector"):
            # Column norm: per-thread partials (N gamma) + serial
            # reduction across the sqrt(p) threads of the column.
            x = kernel.extract_column(j, j)
            sq = (x.real * x.real + x.imag * x.imag) if kernel.complex else x * x
            eng.charge_flops(N * cost, useful_flops=credit / 2 * (m - j))
            partial_count = min(r, x.shape[1])
            partials = np.stack(
                [sq[:, t::r].sum(axis=1) for t in range(partial_count)], axis=1
            ).astype(real_dtype)
            norm = mode.sqrt(kernel.serial_reduction(partials))

            # Diagonal thread: beta, tau, 1/(alpha - beta) -- one sqrt,
            # two divides, two flops, scale factor through shared memory.
            alpha = x[:, 0].copy()
            live = norm != 0
            sign = np.where(alpha.real >= 0, 1.0, -1.0).astype(real_dtype)
            beta = (-sign * norm).astype(real_dtype)
            denom = np.where(
                live, (alpha - beta).astype(kernel.dtype), np.asarray(1, kernel.dtype)
            )
            tau = np.where(
                live,
                mode.divide(
                    (beta - alpha).astype(kernel.dtype), beta.astype(kernel.dtype)
                ),
                0,
            )
            taus[:, j] = tau
            inv_denom = mode.divide(np.asarray(1.0, dtype=kernel.dtype), denom)
            eng.charge_sqrt(1, useful_flops=0)
            eng.charge_div(2, useful_flops=0)
            eng.charge_flops(2 * cost, useful_flops=0)
            eng.charge_shared(2)  # write + read the scale factor

            # Scale the column into v (v0 = 1) and publish it.
            v = (x * inv_denom[:, None]).astype(kernel.dtype)
            v[:, 0] = 1
            v = np.where(live[:, None], v, x)
            vfull = np.zeros((kernel.batch, m), dtype=kernel.dtype)
            vfull[:, j:] = v
            kernel.sh_col.write(np.arange(m), vfull)
            eng.charge_flops(N * cost, useful_flops=credit / 2 * (m - j))
            eng.charge_shared(N, writes=True)
            eng.sync()

            # Store the packed factor (beta on the diagonal, v below).
            packed = v.copy()
            packed[:, 0] = np.where(live, beta.astype(kernel.dtype), alpha)
            kernel.deposit_column(j, j, packed)

        with eng.phase(f"panel{panel}:Matrix-Vector Multiply"):
            # w = conj(tau) (v^H A[j:, j+1:]): read v (N beta), N^2 FMAs,
            # then the cross-thread reduction bracketed by two syncs.
            vread = kernel.sh_col.read(np.arange(m))
            wfull = np.zeros((kernel.batch, n), dtype=kernel.dtype)
            wfull[:, j + 1 :] = _conj_dot_columns(
                vread[:, j:], kernel.matrix[:, j:m, j + 1 :]
            )
            eng.charge_shared(N)
            eng.charge_flops(N * N * cost, useful_flops=credit * (m - j) * (n - 1 - j))
            eng.sync()
            kernel.serial_reduction(np.zeros((kernel.batch, r), dtype=real_dtype))
            # w must be published before the closing barrier: the rank-1
            # phase reads it from shared, and a write->read in one sync
            # epoch is a race (the sanitizer flags it).  Same charges,
            # same cycle totals -- only the barrier placement moves.
            wfull *= taus[:, j][:, None].conj()
            kernel.sh_row.write(np.arange(n), wfull)
            eng.sync()

        with eng.phase(f"panel{panel}:Rank-1 Update"):
            # A[j:, j+1:] -= v w: read w (N beta), N^2 FMAs, one sync.
            # wread is zero at and left of column j, so the packed column
            # is not disturbed.
            wread = kernel.sh_row.read(np.arange(n))
            kernel.rank1_update(vread, wread, row_start=j, col_start=j + 1)
            eng.charge_shared(N)
            eng.charge_flops(N * N * cost, useful_flops=credit * (m - j) * (n - 1 - j))
            eng.sync()
    return taus


def per_block_qr(
    a: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Householder-QR a batch, one problem per block.

    ``output`` is the packed factorization (R upper, reflectors below),
    ``extra`` the taus -- the same packing as
    :func:`repro.kernels.batched.qr.qr_factor`.
    """
    kernel = BlockKernel(
        a,
        device=device,
        config=config,
        fast_math=fast_math,
        account_overhead=account_overhead,
    )
    if kernel.m < kernel.n:
        raise ValueError("QR expects m >= n")
    taus = _factor_columns(kernel, kernel.n)
    out = kernel.store()
    flops = (
        qr_flops_complex(kernel.m, kernel.n)
        if kernel.complex
        else qr_flops(kernel.m, kernel.n)
    )
    return kernel.result(out, flops_per_problem=flops, extra=taus)


def per_block_qr_solve(
    a: np.ndarray,
    b: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
) -> DeviceKernelResult:
    """Solve square systems with QR + back substitution, per block.

    This is the Figure 7 / Figure 12 workload: the right-hand side rides
    along as an appended matrix column, and the resulting triangular
    system is solved with row operations inside the block.  ``output`` is
    the solution batch ``(batch, n)``; ``extra`` the taus.
    """
    a_arr = np.asarray(a)
    if a_arr.ndim == 2:
        a_arr = a_arr[None]
    if a_arr.ndim != 3 or a_arr.shape[1] != a_arr.shape[2]:
        raise ValueError("QR solve expects square systems")
    b_arr = np.asarray(b, dtype=a_arr.dtype)
    if b_arr.ndim == 1:
        b_arr = b_arr[None]
    if b_arr.ndim == 2:
        b_arr = b_arr[..., None]
    if b_arr.shape[:2] != a_arr.shape[:2]:
        raise ValueError(
            f"rhs shape {np.asarray(b).shape} does not match systems {a_arr.shape}"
        )
    n = a_arr.shape[2]
    aug = np.concatenate([a_arr, b_arr], axis=2)

    kernel = BlockKernel(
        aug, device=device, fast_math=fast_math, account_overhead=account_overhead
    )
    eng = kernel.engine
    mode = arithmetic_mode(fast_math)
    # A complex MAC is 4 FMAs on 2 independent chains: with the
    # dual-issue pipeline its dependent cost is ~2 gamma, while the
    # algorithmic credit is 8 real FLOPs (4x the real MAC's 2).
    cost = 2 if kernel.complex else 1
    credit = 8.0 if kernel.complex else 2.0
    taus = _factor_columns(kernel, n)

    # Back substitution on R x = Q^H b: one divide by the diagonal plus a
    # broadcast axpy per row, innermost rows first.
    with eng.phase("back-substitution"):
        packed = kernel.matrix
        r_mat = np.triu(packed[:, :n, :n])
        y = packed[:, :n, n].copy()
        x = np.empty_like(y)
        for i in range(n - 1, -1, -1):
            acc = y[:, i]
            if i + 1 < n:
                acc = acc - batch_dot(r_mat[:, i, i + 1 :], x[:, i + 1 :])
            x[:, i] = mode.divide(acc, r_mat[:, i, i])
            N = kernel.column_tile_rows(i)
            eng.charge_div(1, useful_flops=credit / 2)
            eng.charge_shared(2)
            eng.charge_flops(N * cost, useful_flops=credit * (n - 1 - i))
            eng.sync()
    with eng.phase("store"):
        eng.charge_global(n * (8 if kernel.complex else 4), kind="copy")

    flops = (
        qr_flops_complex(n, n) + 4 * n * n
        if kernel.complex
        else qr_flops(n, n) + n * n
    )
    return kernel.result(x, flops_per_problem=flops, extra=taus)
