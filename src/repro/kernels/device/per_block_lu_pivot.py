"""One-problem-per-block LU *with* partial pivoting: the price of stability.

The paper deliberately does not pivot ("we do not pivot for stability")
and evaluates on diagonally dominant matrices where pivoting is
unnecessary.  This extension quantifies what that choice bought: a
pivoted per-block LU pays, per column,

* a max-magnitude **pivot search** down the column -- per-thread partials
  plus the same serial sqrt(p)-thread reduction as a norm, plus the
  argmax bookkeeping;
* a **row swap** through shared memory -- both rows traverse the
  scratchpad (2 x WREG accesses per owning thread) with a synchronization
  on each side, because the swap is a cross-thread permutation of
  register-resident data.

The ``bench_ablation_pivoting`` benchmark reports the resulting slowdown:
roughly **2x** at the paper's sizes (the pivot search + swap machinery is
comparable to LU's own per-column work when N is this small), shrinking
slowly as the O(N^2) rank-1 update grows.  That factor is the concrete
cost the paper's "we do not pivot" choice avoided -- and the quantitative
justification for it.

Numerics: data-dependent row swaps break the lockstep tile layout, so
the factorization itself runs through the batched pivoted kernel on the
block's matrix (documented substitution: identical arithmetic, same
results); the engine charges the distributed implementation's costs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ...model.flops import lu_flops
from ..batched.lu import lu_factor_pivot
from .base import (
    BlockKernel,
    DeviceKernelResult,
    nonfinite_breakdowns,
)

__all__ = ["per_block_lu_pivot"]


def _lu_pivot_breakdowns(output: np.ndarray, extra) -> dict:
    """Quarantine hook: a zero on U's diagonal means rank deficiency.

    ``extra`` is the permutation (not a flag array), so singularity is
    read off the packed factor itself: partial pivoting only leaves a
    zero pivot when the whole remaining column was zero.
    """
    found = nonfinite_breakdowns(output)
    diag = np.diagonal(np.asarray(output), axis1=-2, axis2=-1)
    for i in np.nonzero((diag == 0).any(axis=-1))[0]:
        found[int(i)] = "zero-pivot"
    return found


def per_block_lu_pivot(
    a: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Partial-pivoting LU, one problem per block.

    ``output`` is the packed pivoted LU; ``extra`` the permutation array
    ``(batch, n)`` (row order, as in
    :func:`repro.kernels.batched.lu.lu_factor_pivot`).
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
    n = kernel.n
    cost = 2 if kernel.complex else 1
    credit = 8.0 if kernel.complex else 2.0

    for j in range(n - 1):
        panel = j // kernel.r
        N = kernel.column_tile_rows(j)
        with eng.phase(f"panel{panel}:Pivot Search"):
            # |A[i][j]| partials per owning thread (N compares ~ N ops),
            # then the serial cross-thread max reduction with its argmax
            # bookkeeping (one extra op per step), published + sync.
            eng.charge_flops(N * cost, useful_flops=0)
            kernel.serial_reduction(
                np.zeros((kernel.batch, kernel.r), dtype=np.float32)
            )
            eng.charge_flops(kernel.r, useful_flops=0)  # argmax bookkeeping
            eng.charge_shared(2)
            eng.sync()

        with eng.phase(f"panel{panel}:Row Swap"):
            # Rows j and piv trade places through shared memory: each
            # owning thread writes its WREG elements of both rows and
            # reads the other's, with syncs separating the two halves.
            wreg = kernel.layout.wreg
            eng.charge_shared(2 * wreg, writes=True)
            eng.sync()
            eng.charge_shared(2 * wreg)
            eng.sync()

        with eng.phase(f"panel{panel}:Column Op"):
            eng.charge_div(1, useful_flops=0)
            eng.charge_shared(2)
            eng.sync()
            eng.charge_flops(N * cost, useful_flops=credit / 2 * (n - 1 - j))
            eng.charge_shared(2 * N, writes=True)
            eng.sync()

        with eng.phase(f"panel{panel}:Rank-1 Update"):
            eng.charge_shared(2 * N)
            eng.charge_flops(
                N * N * cost, useful_flops=credit * (n - 1 - j) * (n - 1 - j)
            )
            eng.sync()

    # Numerics: the batched pivoted kernel on the matrix (see module
    # docstring for why the swaps are not done in tile space).
    result = lu_factor_pivot(kernel.matrix, fast_math=fast_math)
    kernel.matrix[...] = result.lu
    out = kernel.store()
    factor = 4 if kernel.complex else 1
    return kernel.result(
        out, flops_per_problem=factor * lu_flops(n), extra=result.perm
    )
