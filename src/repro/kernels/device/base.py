"""Shared infrastructure for the one-problem-per-block device kernels.

A device kernel holds the matrix batch in *register tiles*: thread
``(ti, tj)`` of the ``r x r`` grid owns the elements ``A[b, ti + ii*r,
tj + jj*r]`` (the 2D cyclic layout of Listing 4).  The simulator stores
the batch zero-padded to ``(hreg*r, wreg*r)`` in global row/column
order, one contiguous array, so thread ``(ti, tj)``'s tile is the
strided slice ``[:, ti::r, tj::r]`` of it.  All blocks execute the same
branch-free instruction stream, so the batch axis is vectorized while
the :class:`~repro.gpu.simt.BlockEngine` accounts cycles once per block.

The helpers here implement the distributed primitives every
factorization uses, as plain slices of the global-order storage:

* extracting/depositing a global column (or row) slice,
* per-thread partial reductions followed by the serial cross-thread
  reduction of Table VI,
* the Listing-7 rank-1 update ``A[i, j] -= v[i] * w[j]``, applied to
  the trailing block only (a broadcast of two shared-memory vectors).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from ...gpu.clock import CycleBreakdown
from ...gpu.device import QUADRO_6000, DeviceSpec
from ...gpu.simt import BlockEngine, LaunchResult
from ...layouts.cyclic2d import Cyclic2D
from ...model.block_config import BlockConfig, block_config

__all__ = [
    "BlockKernel",
    "DeviceKernelResult",
    "batch_dot",
    "block_engine_factory",
    "nonfinite_breakdowns",
]

#: Override for the engine class a :class:`BlockKernel` constructs.
#: ``repro.analyze.costcheck`` swaps in a recording engine here to
#: interpret kernels abstractly without changing their call sites.
_ENGINE_FACTORY: ContextVar[Optional[Callable[..., BlockEngine]]] = ContextVar(
    "repro_block_engine_factory", default=None
)


@contextmanager
def block_engine_factory(factory: Callable[..., BlockEngine]) -> Iterator[None]:
    """Scope within which :class:`BlockKernel` builds engines via ``factory``.

    ``factory`` receives exactly the :class:`~repro.gpu.simt.BlockEngine`
    constructor arguments and must return an engine (typically a
    subclass).  The override is a contextvar, so concurrent kernels in
    other threads/tasks are unaffected.
    """
    token = _ENGINE_FACTORY.set(factory)
    try:
        yield
    finally:
        _ENGINE_FACTORY.reset(token)


def nonfinite_breakdowns(output: np.ndarray, extra=None) -> Dict[int, str]:
    """Default breakdown detector: flag problems whose output holds Inf/NaN.

    A detector takes a kernel's raw ``(output, extra)`` and returns
    ``{batch index: reason}`` for every problem whose factorization broke
    down; :data:`repro.kernels.infos.KERNEL_INFOS` names each kernel's.  A
    factorization that produced a non-finite entry is unusable no matter
    which algorithm ran, so this is the floor every per-op detector
    builds on.
    """
    flat = np.asarray(output).reshape(output.shape[0], -1)
    bad = ~np.isfinite(flat).all(axis=1)
    return {int(i): "non-finite" for i in np.nonzero(bad)[0]}


def batch_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-problem inner product ``sum_i x[b, i] * y[b, i]``.

    The reduction order must not depend on the batch size: ``np.einsum``
    picks stride-dependent inner loops whose accumulation order varies
    with the operands' shapes, so chunking a batch would perturb the
    last bits of the result.  Multiplying elementwise and reducing along
    the trailing axis keeps each problem's rounding identical no matter
    how the batch is sliced.
    """
    return (x * y).sum(axis=1)


@dataclasses.dataclass(frozen=True)
class DeviceKernelResult:
    """Output of a device-kernel run: numerics plus timing."""

    #: Gathered numerical output, shape (batch, m, n).
    output: np.ndarray
    #: Engine timing for one block (identical across the batch).
    launch: LaunchResult
    #: Problems in the batch.
    batch: int
    #: Algorithmic FLOPs per problem (paper conventions).
    flops_per_problem: float
    #: Optional second output (e.g. solution vectors, taus).
    extra: Optional[np.ndarray] = None

    @property
    def cycles(self) -> float:
        return self.launch.cycles

    @property
    def breakdown(self) -> CycleBreakdown:
        return self.launch.breakdown

    @property
    def gflops(self) -> float:
        """Whole-chip throughput over this batch (Section V-D recipe)."""
        return self.launch.throughput_gflops(self.batch)

    def phase_cycles(self, prefix: str = "") -> dict[str, float]:
        """Phase totals, optionally filtered by label prefix."""
        return {
            k: v
            for k, v in self.launch.phase_totals.items()
            if k.startswith(prefix)
        }

    def panel_breakdown(self) -> list[dict[str, float]]:
        """Per-panel cycles per operation (Figure 8 left, 'measured').

        Phase labels are ``panel{p}:{op name}``.
        """
        panels: dict[int, dict[str, float]] = {}
        for label, cycles in self.launch.phase_totals.items():
            if not label.startswith("panel"):
                continue
            head, _, op = label.partition(":")
            index = int(head[len("panel") :])
            panels.setdefault(index, {})[op] = (
                panels.get(index, {}).get(op, 0.0) + cycles
            )
        return [panels[k] for k in sorted(panels)]


class BlockKernel:
    """Execution context binding the matrix storage, shared buffers and engine."""

    def __init__(
        self,
        a: np.ndarray,
        device: DeviceSpec = QUADRO_6000,
        config: Optional[BlockConfig] = None,
        fast_math: bool = True,
        account_overhead: bool = True,
        extra_shared_words: int = 0,
        sanitize: Optional[bool] = None,
    ) -> None:
        a = np.asarray(a)
        if a.ndim == 2:
            a = a[None]
        if a.ndim != 3:
            raise ValueError(f"expected (batch, m, n) input, got shape {a.shape}")
        self.batch, self.m, self.n = a.shape
        self.dtype = a.dtype
        self.complex = np.iscomplexobj(a)
        self.cfg = config or block_config(self.m, self.n, complex_dtype=self.complex)
        self.device = device
        self.fast_math = fast_math
        self.layout = Cyclic2D(self.m, self.n, self.cfg.threads)
        self.r = self.cfg.rdim

        engine_cls = _ENGINE_FACTORY.get() or BlockEngine
        self.engine = engine_cls(
            device,
            threads_per_block=self.cfg.threads,
            registers_per_thread=self.cfg.registers_per_thread,
            batch=self.batch,
            dtype=self.dtype,
            fast_math=fast_math,
            account_overhead=account_overhead,
            sanitize=sanitize,
        )
        # Shared memory: the l (column, length m) and u/w (row, length n)
        # vectors plus a scalar slot, as in Listings 5-7.
        self.sh_col = self.engine.allocate_shared(
            self.layout.hreg * self.r, name="sh_col"
        )
        self.sh_row = self.engine.allocate_shared(
            self.layout.wreg * self.r, name="sh_row"
        )
        self.sh_scalar = self.engine.allocate_shared(4, name="sh_scalar")
        if extra_shared_words:
            self.sh_extra = self.engine.allocate_shared(
                extra_shared_words, name="sh_extra"
            )

        # Load the matrix into the register tiles (Listing 4).
        # Loads and stores both run at the copy-stream rate: the loader's
        # strided pattern (Listing 4) does not reach the pure-read peak.
        with self.engine.phase("load"):
            self._padded = np.zeros(
                (self.batch, self.layout.hreg * self.r, self.layout.wreg * self.r),
                dtype=self.dtype,
            )
            self._padded[:, : self.m, : self.n] = a
            self.engine.charge_global(self._matrix_bytes(), kind="copy")

    @property
    def matrix(self) -> np.ndarray:
        """The (batch, m, n) matrix in global order: a writable view."""
        return self._padded[:, : self.m, : self.n]

    # ------------------------------------------------------------------
    def _matrix_bytes(self) -> int:
        word = 8 if self.complex else 4
        return self.m * self.n * word

    def column_tile_rows(self, j: int) -> int:
        """N: per-thread rows of the active column (Table VI's N)."""
        return max(1, self.layout.hreg - j // self.r)

    # ------------------------------------------------------------------
    # Distributed primitives (functional + cost in one place)
    # ------------------------------------------------------------------
    def extract_column(self, j: int, row_start: int) -> np.ndarray:
        """Column ``j`` entries with global row >= row_start, as a dense
        (batch, m') copy in global row order (m' = m - row_start)."""
        return self._padded[:, row_start : self.m, j].copy()

    def deposit_column(self, j: int, row_start: int, values: np.ndarray) -> None:
        """Write ``values`` back into column ``j`` from ``row_start`` down."""
        self._padded[:, row_start : self.m, j] = values

    def extract_row(self, i: int, col_start: int) -> np.ndarray:
        """Row ``i`` entries with global column >= col_start, as a copy."""
        return self._padded[:, i, col_start : self.n].copy()

    def deposit_row(self, i: int, col_start: int, values: np.ndarray) -> None:
        """Write ``values`` back into row ``i`` from ``col_start`` right."""
        self._padded[:, i, col_start : self.n] = values

    def serial_reduction(self, partials: np.ndarray) -> np.ndarray:
        """Reduce per-thread partials (batch, r) serially, charging
        Table VI's ``(1 + sqrt p) beta + sqrt p gamma``."""
        cost = 2 if self.complex else 1
        self.engine.charge_shared(self.r + 1)
        self.engine.charge_flops(self.r * cost, useful_flops=0)
        acc = partials[:, 0].copy()
        for t in range(1, partials.shape[1]):
            acc = acc + partials[:, t]
        return acc

    def rank1_update(
        self,
        col_vec: np.ndarray,
        row_vec: np.ndarray,
        row_start: int,
        col_start: int,
    ) -> None:
        """A[i, j] -= col_vec[i] * row_vec[j] for i >= row_start,
        j >= col_start -- the Listing-7 update.

        ``col_vec``: (batch, m) in global row order (entries above
        ``row_start`` ignored); ``row_vec``: (batch, n) likewise.  Only
        the trailing block is written, so finished factor entries and
        the zero padding are never touched.
        """
        # The product must come from einsum, not ``v[..., None] * w``:
        # einsum forms complex products by the textbook formula
        # (ar*br - ai*bi) + i(ar*bi + ai*br), which NumPy's complex
        # multiply ufunc does not round identically, and its zero-started
        # accumulator turns a -0.0 product into +0.0, so signed zeros in
        # the factors come out as they always have.
        update = np.einsum(
            "bi,bj->bij",
            col_vec[:, row_start : self.m],
            row_vec[:, col_start : self.n],
        )
        self._padded[:, row_start : self.m, col_start : self.n] -= update

    # ------------------------------------------------------------------
    def store(self) -> np.ndarray:
        """Copy the (batch, m, n) matrix out and charge the store."""
        with self.engine.phase("store"):
            out = self.matrix.copy()
            self.engine.charge_global(self._matrix_bytes(), kind="copy")
        return out

    def result(self, output: np.ndarray, flops_per_problem: float, extra=None
               ) -> DeviceKernelResult:
        from ...observe.metrics import counter_inc

        counter_inc(
            "repro_kernel_launches_total",
            m=self.m,
            n=self.n,
            threads=self.cfg.threads,
        )
        counter_inc("repro_kernel_problems_total", self.batch)
        counter_inc("repro_kernel_flops_total", flops_per_problem * self.batch)
        return DeviceKernelResult(
            output=output,
            launch=self.engine.result(flops_per_block=flops_per_problem),
            batch=self.batch,
            flops_per_problem=flops_per_problem,
            extra=extra,
        )
