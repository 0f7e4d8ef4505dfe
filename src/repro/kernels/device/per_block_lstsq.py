"""One-problem-per-block least squares (Section III-D on the engine).

Tall ``min ||Ax - b||`` problems solved the paper's way: append ``b`` to
the right of the matrix, run the Householder sweep over the first ``n``
columns (the RHS column collects ``Q^H b`` for free), then back-
substitute the top ``n x n`` triangle.  The block also extracts the
residual norm from the tail of ``Q^H b`` -- the least-squares freebie.
"""

from __future__ import annotations

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.flops import least_squares_flops
from ..batched._arith import arithmetic_mode
from .base import BlockKernel, DeviceKernelResult, batch_dot
from .per_block_qr import _factor_columns

__all__ = ["per_block_least_squares"]


def per_block_least_squares(
    a: np.ndarray,
    b: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
) -> DeviceKernelResult:
    """Solve tall least-squares problems, one per thread block.

    ``a``: ``(batch, m, n)`` with ``m >= n``; ``b``: ``(batch, m)``.
    ``output`` is the solution batch ``(batch, n)``; ``extra`` the
    per-problem residual 2-norms.
    """
    a_arr = np.asarray(a)
    if a_arr.ndim == 2:
        a_arr = a_arr[None]
    if a_arr.ndim != 3 or a_arr.shape[1] < a_arr.shape[2]:
        raise ValueError(
            f"least squares expects tall (batch, m, n) input, got {a_arr.shape}"
        )
    b_arr = np.asarray(b, dtype=a_arr.dtype)
    if b_arr.ndim == 1:
        b_arr = b_arr[None]
    if b_arr.ndim == 2:
        b_arr = b_arr[..., None]
    if b_arr.shape[:2] != a_arr.shape[:2]:
        raise ValueError(
            f"rhs shape {np.asarray(b).shape} does not match problems {a_arr.shape}"
        )
    batch, m, n = a_arr.shape
    aug = np.concatenate([a_arr, b_arr], axis=2)

    kernel = BlockKernel(
        aug, device=device, fast_math=fast_math, account_overhead=account_overhead
    )
    eng = kernel.engine
    mode = arithmetic_mode(fast_math)
    cost = 2 if kernel.complex else 1
    credit = 8.0 if kernel.complex else 2.0
    _factor_columns(kernel, n)

    with eng.phase("back-substitution"):
        packed = kernel.matrix
        r_mat = np.triu(packed[:, :n, :n])
        qtb = packed[:, :, n]
        x = np.empty((batch, n), dtype=kernel.dtype)
        for i in range(n - 1, -1, -1):
            acc = qtb[:, i]
            if i + 1 < n:
                acc = acc - batch_dot(r_mat[:, i, i + 1 :], x[:, i + 1 :])
            x[:, i] = mode.divide(acc, r_mat[:, i, i])
            N = kernel.column_tile_rows(i)
            eng.charge_div(1, useful_flops=credit / 2)
            eng.charge_shared(2)
            eng.charge_flops(N * cost, useful_flops=credit * (n - 1 - i))
            eng.sync()

        # Residual norm from the tail of Q^H b (free in the factored basis).
        if m > n:
            tail = qtb[:, n:]
            sq = (
                (tail.real**2 + tail.imag**2) if kernel.complex else tail * tail
            ).sum(axis=1)
            residual = mode.sqrt(sq.astype(packed.real.dtype))
            eng.charge_flops(
                kernel.column_tile_rows(n - 1) * cost, useful_flops=credit / 2 * (m - n)
            )
            eng.charge_sqrt(1, useful_flops=0)
        else:
            residual = np.zeros(batch, dtype=packed.real.dtype)

    with eng.phase("store"):
        eng.charge_global((n + 1) * (8 if kernel.complex else 4), kind="copy")

    factor = 4 if kernel.complex else 1
    flops = factor * least_squares_flops(m, n)
    return kernel.result(x, flops_per_problem=flops, extra=residual)
