"""One-problem-per-block Cholesky factorization.

Not in the paper's evaluation, but the natural fourth member of the
family: Hermitian positive-definite systems (e.g. STAP covariance
matrices, normal equations) factor with half LU's flops and no pivoting
concerns at all.  The mapping mirrors the LU kernel: the diagonal thread
computes ``1/sqrt(pivot)`` (one rsqrt -- cheaper than LU's divide plus
QR's sqrt+divides), the scaled column is published through shared memory,
and the trailing Hermitian update touches only the lower triangle, which
is why its per-column estimate is about half of LU's rank-1 cost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ..batched._arith import arithmetic_mode
from .base import (
    BlockKernel,
    DeviceKernelResult,
    nonfinite_breakdowns,
)

__all__ = ["per_block_cholesky", "cholesky_flops"]


def _cholesky_breakdowns(output: np.ndarray, extra) -> dict:
    """Quarantine hook: ``extra`` flags problems that were not HPD."""
    found = nonfinite_breakdowns(output)
    if extra is not None:
        for i in np.nonzero(np.asarray(extra, dtype=bool))[0]:
            found[int(i)] = "not-positive-definite"
    return found


def cholesky_flops(n: int) -> float:
    """1/3 n^3, the usual convention (half of LU's 2/3 n^3)."""
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    return float(n) ** 3 / 3.0


def per_block_cholesky(
    a: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Factor an HPD batch: ``A = L L^H``, one problem per block.

    ``output`` holds L in the lower triangle (upper triangle zeroed);
    ``extra`` flags problems that were not positive definite.
    """
    kernel = BlockKernel(
        a,
        device=device,
        config=config,
        fast_math=fast_math,
        account_overhead=account_overhead,
    )
    if kernel.m != kernel.n:
        raise ValueError("Cholesky expects square matrices")
    eng = kernel.engine
    mode = arithmetic_mode(fast_math)
    n = kernel.n
    cost = 2 if kernel.complex else 1
    credit = 8.0 if kernel.complex else 2.0
    not_spd = np.zeros(kernel.batch, dtype=bool)
    real_dtype = np.zeros(1, dtype=kernel.dtype).real.dtype

    for j in range(n):
        panel = j // kernel.r
        N = kernel.column_tile_rows(j)
        with eng.phase(f"panel{panel}:Column Op"):
            # Diagonal thread: pivot = A[j][j] (real for HPD), rsqrt,
            # publish the inverse square root.
            pivot = kernel.extract_column(j, j)[:, 0].real.astype(real_dtype)
            bad = pivot <= 0
            not_spd |= bad
            safe = np.where(bad, np.ones_like(pivot), pivot)
            root = mode.sqrt(safe)
            inv_root = mode.divide(np.ones_like(root), root)
            kernel.sh_scalar.write(0, inv_root.astype(kernel.dtype))
            eng.charge_sqrt(1, useful_flops=0)
            eng.charge_div(1, useful_flops=0)
            eng.charge_shared(2)
            eng.sync()

            # Scale the column: L[j:, j] = A[j:, j] / sqrt(pivot), and
            # publish it for the trailing update.
            scale_rd = kernel.sh_scalar.read(0)
            col = kernel.extract_column(j, j) * scale_rd[:, None]
            kernel.deposit_column(j, j, col)
            lfull = np.zeros((kernel.batch, kernel.m), dtype=kernel.dtype)
            lfull[:, j:] = col
            kernel.sh_col.write(np.arange(kernel.m), lfull)
            eng.charge_flops(N * cost, useful_flops=credit / 2 * (n - j))
            eng.charge_shared(N, writes=True)
            eng.sync()

        with eng.phase(f"panel{panel}:Hermitian Update"):
            # A[j+1:, j+1:] -= l l^H, lower triangle only: each thread
            # reads l once and does ~N^2/2 FMAs.
            lread = kernel.sh_col.read(np.arange(kernel.m))
            row_vec = np.zeros((kernel.batch, kernel.n), dtype=kernel.dtype)
            row_vec[:, j + 1 :] = lread[:, j + 1 :].conj()
            kernel.rank1_update(lread, row_vec, row_start=j + 1, col_start=j + 1)
            eng.charge_shared(N)
            eng.charge_flops(
                N * N * cost / 2.0,
                useful_flops=credit / 2 * (n - 1 - j) * (n - 1 - j),
            )
            eng.sync()

    out = kernel.store()
    out = np.tril(out)
    if not_spd.any():
        out = out.copy()
        out[not_spd] = np.nan
    return kernel.result(
        out,
        flops_per_problem=(4 if kernel.complex else 1) * cholesky_flops(n),
        extra=not_spd,
    )
