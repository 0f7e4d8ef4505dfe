"""The device-kernel table: one :class:`KernelInfo` per kernel.

Every layer that treats kernels one by one reads this table: the
runtime (which ops it executes and how it launches them), its numerical
quarantine (each kernel's breakdown detector), and the analysis sweeps
(the sanitizer race-checks and the cost certifier certifies every
entry on seeded inputs built here).  Adding a kernel means adding one
entry; ``tests/kernels/test_kernel_infos.py`` fails until it is here.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .device.base import nonfinite_breakdowns
from .device.per_block_cholesky import _cholesky_breakdowns
from .device.per_block_lu import _lu_breakdowns
from .device.per_block_lu_pivot import _lu_pivot_breakdowns
from .device.per_block_qr import _qr_breakdowns

__all__ = ["KERNEL_INFOS", "KernelInfo", "runtime_kernels"]

#: ``build(m, n, seed, batch) -> (a, b)``: a seeded ``(batch, m, n)``
#: operand and its right-hand side (``None`` when it has none).
Builder = Callable[[int, int, int, int], Tuple[np.ndarray, Optional[np.ndarray]]]


def _diagonally_dominant(m: int, n: int, seed: int, batch: int):
    """Square systems that factor safely without pivoting."""
    from .batched.problems import diagonally_dominant_batch, rhs_batch

    a = diagonally_dominant_batch(batch, n, seed=seed)
    return a, rhs_batch(batch, n, seed=seed + 1)


def _hpd(m: int, n: int, seed: int, batch: int):
    """Symmetric positive-definite matrices, shifted well away from singular."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((batch, n, n)).astype(np.float32)
    spd = a @ a.transpose(0, 2, 1) + n * np.eye(n, dtype=np.float32)
    return spd.astype(np.float32), None


def _gaussian(m: int, n: int, seed: int, batch: int):
    """Dense standard-normal (possibly tall) systems."""
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((batch, m, n)).astype(np.float32),
        rng.standard_normal((batch, m)).astype(np.float32),
    )


@dataclasses.dataclass(frozen=True)
class KernelInfo:
    """Everything the runtime and the analyses need to know about a kernel."""

    #: Kernel name (``per_block_lu``, ..., ``per_thread_lu``).
    name: str
    #: Analytic-model op: the :func:`repro.model.per_block_counts` key for
    #: the per-block family, the ``predict_per_thread`` kind (and
    #: ``per_thread_factor``'s ``kind``) for the per-thread one.  The
    #: runtime executes a per-block kernel under this name.
    op: str
    #: ``"per_block"`` or ``"per_thread"``.
    family: str
    #: Seeded input builder, see :data:`Builder`.
    build: Builder
    #: Whether the kernel takes the right-hand side as a second operand.
    rhs: bool = False
    #: Rows beyond ``n`` the analysis sweeps give the operand (the tall
    #: QR and least-squares kernels run on ``(n + 4) x n`` systems).
    extra_rows: int = 0
    #: ``detector(output, extra) -> {batch index: reason}``; the runtime
    #: quarantines those problems instead of failing the batch.
    breakdowns: Callable[..., Dict[int, str]] = nonfinite_breakdowns

    @property
    def entry(self) -> str:
        """The :mod:`repro.kernels.device` function that runs this kernel."""
        return "per_thread_factor" if self.family == "per_thread" else self.name

    def inputs(self, m: int, n: int, seed: int, batch: int) -> tuple:
        """Positional launch arguments for a seeded ``(batch, m, n)`` input."""
        a, b = self.build(m, n, seed, batch)
        return (a, b) if self.rhs else (a,)

    def launch(self, *args, **kwargs):
        """Run the kernel.

        The function is looked up on :mod:`repro.kernels.device` at every
        call, never captured at import, so a wrapper installed on that
        module (a profiler's, say) sees every launch.
        """
        from . import device

        if self.family == "per_thread":
            kwargs["kind"] = self.op
        return getattr(device, self.entry)(*args, **kwargs)


#: Every device kernel, in the order the analysis reports list them.
KERNEL_INFOS: Tuple[KernelInfo, ...] = (
    KernelInfo(
        name="per_block_lu",
        op="lu",
        family="per_block",
        build=_diagonally_dominant,
        breakdowns=_lu_breakdowns,
    ),
    KernelInfo(
        name="per_block_lu_pivot",
        op="lu_pivot",
        family="per_block",
        build=_diagonally_dominant,
        breakdowns=_lu_pivot_breakdowns,
    ),
    KernelInfo(
        name="per_block_qr",
        op="qr",
        family="per_block",
        build=_gaussian,
        extra_rows=4,
        breakdowns=_qr_breakdowns,
    ),
    KernelInfo(
        name="per_block_qr_solve",
        op="qr_solve",
        family="per_block",
        build=_diagonally_dominant,
        rhs=True,
    ),
    KernelInfo(
        name="per_block_gauss_jordan",
        op="gauss_jordan",
        family="per_block",
        build=_diagonally_dominant,
        rhs=True,
    ),
    KernelInfo(
        name="per_block_cholesky",
        op="cholesky",
        family="per_block",
        build=_hpd,
        breakdowns=_cholesky_breakdowns,
    ),
    KernelInfo(
        name="per_block_least_squares",
        op="least_squares",
        family="per_block",
        build=_gaussian,
        rhs=True,
        extra_rows=4,
    ),
    KernelInfo(
        name="per_thread_qr",
        op="qr",
        family="per_thread",
        build=_diagonally_dominant,
    ),
    KernelInfo(
        name="per_thread_lu",
        op="lu",
        family="per_thread",
        build=_diagonally_dominant,
    ),
)


def runtime_kernels() -> Dict[str, KernelInfo]:
    """Runtime op -> kernel: the per-block kernels that take one operand.

    A :class:`~repro.runtime.sharding.ProblemBatch` group carries a
    single array, so kernels that also take a right-hand side stay out.
    """
    return {
        info.op: info
        for info in KERNEL_INFOS
        if info.family == "per_block" and not info.rhs
    }
