"""One-problem-per-block LU (no pivoting) on the SIMT engine.

The Section V implementation: the matrix lives in 2D-cyclic register
tiles; each column step scales ``l`` by the reciprocal of the pivot
(computed by the diagonal thread and published through shared memory,
Listing 5), shares ``l`` and ``u`` through shared memory (Listing 6), and
applies the Listing-7 rank-1 update to the trailing tiles.  Every
hardware event is charged to the block engine, so the run produces both
the factors and the "measured" cycle counts of Table V / Figure 9.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ...model.flops import lu_flops
from ..batched._arith import arithmetic_mode
from .base import (
    BlockKernel,
    DeviceKernelResult,
    nonfinite_breakdowns,
)

__all__ = ["per_block_lu"]


def _lu_breakdowns(output: np.ndarray, extra) -> dict:
    """Quarantine hook: ``extra`` is the kernel's zero-pivot flag array."""
    found = nonfinite_breakdowns(output)
    if extra is not None:
        for i in np.nonzero(np.asarray(extra, dtype=bool))[0]:
            found[int(i)] = "zero-pivot"
    return found


def per_block_lu(
    a: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Factor a batch of square matrices, one problem per thread block.

    Returns the packed LU (L strictly lower, unit-implicit; U upper) in
    ``output`` and the per-problem singularity flags in ``extra``.
    """
    kernel = BlockKernel(
        a,
        device=device,
        config=config,
        fast_math=fast_math,
        account_overhead=account_overhead,
    )
    if kernel.m != kernel.n:
        raise ValueError("LU expects square matrices")
    eng = kernel.engine
    mode = arithmetic_mode(fast_math)
    n = kernel.n
    # A complex MAC is 4 FMAs on 2 independent chains: with the
    # dual-issue pipeline its dependent cost is ~2 gamma, while the
    # algorithmic credit is 8 real FLOPs (4x the real MAC's 2).
    cost = 2 if kernel.complex else 1
    credit = 8.0 if kernel.complex else 2.0
    one = np.asarray(1.0, dtype=kernel.dtype)
    not_solved = np.zeros(kernel.batch, dtype=bool)

    for j in range(n - 1):
        panel = j // kernel.r
        N = kernel.column_tile_rows(j)
        with eng.phase(f"panel{panel}:Column Op"):
            # Diagonal thread computes the scale factor (Listing 5):
            # one division, a shared write, and a synchronization.
            pivot = kernel.extract_column(j, j)[:, 0].copy()
            singular = pivot == 0
            not_solved |= singular
            scale = mode.divide(one, np.where(singular, one, pivot))
            kernel.sh_scalar.write(0, scale)
            eng.charge_div(1, useful_flops=0)
            eng.charge_shared(2)  # write and read the scale factor
            eng.sync()

            # Scale l below the pivot and publish l and u to shared
            # memory (Listing 6): N gamma + 2N beta + a sync.
            scale_rd = kernel.sh_scalar.read(0)
            col = kernel.extract_column(j, j + 1)
            l_vec = col * scale_rd[:, None]
            kernel.deposit_column(j, j + 1, l_vec)
            lfull = np.zeros((kernel.batch, kernel.m), dtype=kernel.dtype)
            lfull[:, j + 1 :] = l_vec
            kernel.sh_col.write(np.arange(kernel.m), lfull)
            ufull = np.zeros((kernel.batch, kernel.n), dtype=kernel.dtype)
            ufull[:, j + 1 :] = kernel.extract_row(j, j + 1)
            kernel.sh_row.write(np.arange(kernel.n), ufull)
            eng.charge_flops(N * cost, useful_flops=credit / 2 * (n - 1 - j))
            eng.charge_shared(2 * N, writes=True)
            eng.sync()

        with eng.phase(f"panel{panel}:Rank-1 Update"):
            # Trailing update: read l & u from shared (2N beta), N^2
            # FMAs per thread, one synchronization (Listing 7).
            lread = kernel.sh_col.read(np.arange(kernel.m))
            uread = kernel.sh_row.read(np.arange(kernel.n))
            kernel.rank1_update(lread, uread, row_start=j + 1, col_start=j + 1)
            eng.charge_shared(2 * N)
            eng.charge_flops(
                N * N * cost, useful_flops=credit * (n - 1 - j) * (n - 1 - j)
            )
            eng.sync()

    not_solved |= kernel.extract_column(n - 1, n - 1)[:, 0] == 0
    out = kernel.store()
    return kernel.result(
        out,
        flops_per_problem=(4 if kernel.complex else 1) * lu_flops(n),
        extra=not_solved,
    )
