"""Cell measurement backends: one per value of the ``approach`` axis.

Every backend turns a fully-bound :class:`~repro.experiments.spec.Cell`
into a *deterministic* gauge record -- the simulated engine is
reproducible, so the values in ``matrix.json`` are portable across CI
hosts and reruns.  Wall-clock time is measured too, but returned out of
band (it lands in the ``run.json`` sidecar, never in the canonical
matrix).

Support matrix (unsupported combinations produce a cell with status
``"unsupported"`` and no gauges -- present in the matrix, excluded from
gating):

========== ============================== ==========================
approach   ops                            precisions
========== ============================== ==========================
runtime    lu, lu_pivot, qr, cholesky     float32, float64
per_thread qr, lu                         float32, float64
per_block  qr, lu, gauss_jordan,          float32, complex64
           least_squares
hybrid     qr, lu, gauss_jordan,          float32, complex64
           least_squares
cpu        qr, lu, gauss_jordan,          float32, complex64
           least_squares
========== ============================== ==========================

``runtime`` cells execute real batched kernels through the sharded
:class:`~repro.runtime.BatchRuntime` -- chunk supervision, payload
checksums, quarantine, and (via the ``fault_plan`` axis) deterministic
fault injection all apply, and each launch lands in the shared run
history.  The other approaches reuse the paper's approach layer (the
Figures 4 and 9-12 machinery).  Where the predictive model covers the
cell (``qr``/``lu``), the record carries ``predicted_gflops`` and
``rel_err`` alongside ``measured_gflops`` -- the model-vs-measurement
gauge the drift gates watch.
"""

from __future__ import annotations

import dataclasses
import time
import zlib
from typing import Optional

import numpy as np

from ..kernels.infos import runtime_kernels
from ..model.per_block_model import predict_per_block
from ..model.per_thread_model import predict_per_thread
from .spec import DEVICES, Cell

__all__ = [
    "APPROACHES",
    "RUNTIME_OPS",
    "WORKLOAD_OPS",
    "CellRecord",
    "SweepContext",
    "cell_seed",
    "run_cell",
    "supported",
]

APPROACHES = ("cpu", "hybrid", "per_block", "per_thread", "runtime")

#: Ops the sharded runtime executes as real batched kernels: the same
#: table lookup as :func:`repro.runtime.supported_ops`, without importing
#: the runtime stack into every ``import repro.experiments``.
RUNTIME_OPS = tuple(sorted(runtime_kernels()))

#: Ops the approach layer models as :class:`~repro.approaches.Workload`.
WORKLOAD_OPS = ("gauss_jordan", "least_squares", "lu", "qr")

_DTYPES = {"float32": np.float32, "float64": np.float64, "complex64": np.complex64}

#: Gauges whose model prediction exists for qr/lu cells.
_MODELED_OPS = ("lu", "qr")


@dataclasses.dataclass
class CellRecord:
    """One executed (or skipped) cell: the canonical matrix row."""

    cell: Cell
    #: ``"ok"``, ``"unsupported"``, or ``"failed"``.
    status: str
    #: Deterministic numeric gauges (empty unless status is ``"ok"``).
    gauges: dict
    #: Human-readable reason for non-ok statuses.
    note: str = ""
    #: Wall seconds (min over policy repeats); sidecar-only.
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        """Canonical JSON form -- deterministic fields only, no wall."""
        doc = {
            "id": self.cell.id,
            **self.cell.point(),
            "batch": self.cell.policy.batch,
            "repeats": self.cell.policy.repeats,
            "status": self.status,
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
        }
        if self.note:
            doc["note"] = self.note
        return doc


@dataclasses.dataclass
class SweepContext:
    """Shared per-sweep state the backends draw on.

    One calibration per device (through the persistent cache under
    ``cache_dir``) and the pool size every
    :class:`~repro.runtime.BatchRuntime` uses.  Per-launch history is
    deliberately off: the sweep appends one aggregate record, keeping
    the drift window comparable sweep-to-sweep.
    """

    seed: int = 0
    workers: Optional[int] = None
    cache_dir: Optional[object] = None
    _params: dict = dataclasses.field(default_factory=dict)
    _runtimes: dict = dataclasses.field(default_factory=dict)

    def params(self, device_name: str):
        if device_name not in self._params:
            from ..microbench.calibrate import calibrate
            from ..runtime.cache import CalibrationCache

            cache = (
                CalibrationCache(self.cache_dir)
                if self.cache_dir is not None
                else None
            )
            self._params[device_name] = calibrate(DEVICES[device_name], cache=cache)
        return self._params[device_name]

    def runtime(self, device_name: str, fault_plan: str):
        from ..runtime.executor import BatchRuntime

        key = (device_name, fault_plan)
        if key not in self._runtimes:
            self._runtimes[key] = BatchRuntime(
                workers=self.workers,
                device=DEVICES[device_name],
                use_caches=self.cache_dir is not None,
                cache_directory=self.cache_dir,
                history=False,
                faults=None if fault_plan == "none" else fault_plan,
            )
        return self._runtimes[key]


def cell_seed(base_seed: int, cell: Cell) -> int:
    """Deterministic per-cell operand seed (stable across processes)."""
    return (base_seed << 16) ^ zlib.crc32(cell.id.encode("utf-8"))


def supported(cell: Cell) -> Optional[str]:
    """``None`` when the cell can run; else the reason it cannot."""
    if cell.approach == "runtime":
        if cell.op not in RUNTIME_OPS:
            return f"runtime executes {RUNTIME_OPS}, not {cell.op!r}"
        if cell.precision not in ("float32", "float64"):
            return f"runtime kernels take real dtypes, not {cell.precision}"
        return None
    if cell.approach == "per_thread":
        if cell.op not in _MODELED_OPS:
            return f"per_thread factors qr/lu, not {cell.op!r}"
        if cell.precision not in ("float32", "float64"):
            return f"per_thread takes real dtypes, not {cell.precision}"
        if cell.size > 128:
            return "per_thread caps at n <= 128 (register/local residency)"
        return None
    # Approach-layer replays: Workload kinds, float32 or complex64.
    if cell.op not in WORKLOAD_OPS:
        return f"{cell.approach} models {WORKLOAD_OPS}, not {cell.op!r}"
    if cell.precision not in ("float32", "complex64"):
        return f"{cell.approach} models float32/complex64, not {cell.precision}"
    return None


def _operands(cell: Cell, seed: int) -> np.ndarray:
    """Seeded input batch appropriate to the cell's kernel."""
    from ..kernels.batched import diagonally_dominant_batch, random_batch

    dtype = _DTYPES[cell.precision]
    n, batch = cell.size, cell.policy.batch
    if cell.op in ("lu", "lu_pivot"):
        return diagonally_dominant_batch(batch, n, dtype=dtype, seed=seed)
    if cell.op == "cholesky":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((batch, n, n))
        return (a @ a.transpose(0, 2, 1) + n * np.eye(n)).astype(dtype)
    return random_batch(batch, n, n, dtype=dtype, seed=seed)


def _with_prediction(gauges: dict, measured: float, predicted: Optional[float]):
    gauges["measured_gflops"] = float(measured)
    if predicted is not None:
        gauges["predicted_gflops"] = float(predicted)
        if measured:
            gauges["rel_err"] = abs(measured - predicted) / abs(measured)
    return gauges


def _run_runtime(cell: Cell, ctx: SweepContext) -> dict:
    from ..runtime.sharding import ProblemBatch

    data = _operands(cell, cell_seed(ctx.seed, cell))
    runtime = ctx.runtime(cell.device, cell.fault_plan)
    batch = ProblemBatch.single(cell.op, data)
    report = runtime.run(batch)
    predicted = None
    if cell.op in _MODELED_OPS:
        predicted = predict_per_block(
            ctx.params(cell.device), cell.op, cell.size
        ).gflops
    gauges = _with_prediction({}, report.results[0].gflops, predicted)
    gauges["chunks"] = report.chunks
    gauges["problems"] = report.problems
    gauges["failures"] = len(report.failures)
    return gauges


def _run_per_thread(cell: Cell, ctx: SweepContext) -> dict:
    from ..kernels.device import per_thread_factor

    data = _operands(cell, cell_seed(ctx.seed, cell))
    result = per_thread_factor(data, cell.op, DEVICES[cell.device])
    predicted = predict_per_thread(ctx.params(cell.device), cell.op, cell.size)
    return _with_prediction({}, result.gflops, predicted.gflops)


def _run_replay(cell: Cell, ctx: SweepContext) -> dict:
    from ..approaches import (
        CpuLapackApproach,
        HybridBlockedApproach,
        PerBlockApproach,
        Workload,
    )

    work = Workload.square(
        cell.op,
        cell.size,
        cell.policy.batch,
        complex_dtype=cell.precision == "complex64",
    )
    if cell.approach == "per_block":
        approach = PerBlockApproach(DEVICES[cell.device])
    elif cell.approach == "hybrid":
        approach = HybridBlockedApproach()
    else:
        approach = CpuLapackApproach()
    if not approach.supports(work):
        raise _Unsupported(f"{approach.name} does not support {work}")
    predicted = None
    if cell.approach == "per_block" and cell.op in _MODELED_OPS:
        predicted = predict_per_block(
            ctx.params(cell.device),
            cell.op,
            cell.size,
            complex_dtype=work.complex_dtype,
        ).gflops
    return _with_prediction({}, approach.gflops(work), predicted)


class _Unsupported(Exception):
    """Raised by a backend for a cell its machinery cannot represent."""


_BACKENDS = {
    "runtime": _run_runtime,
    "per_thread": _run_per_thread,
    "per_block": _run_replay,
    "hybrid": _run_replay,
    "cpu": _run_replay,
}


def run_cell(cell: Cell, ctx: SweepContext) -> CellRecord:
    """Execute one cell under its policy; never raises for a bad cell.

    The measurement repeats ``policy.repeats`` times (results are
    deterministic; only the wall varies) and the recorded wall is the
    min -- the same min-of-rounds convention the benchmark tripwires
    use.  Execution errors become a ``"failed"`` record so one broken
    cell cannot kill a long sweep.
    """
    reason = supported(cell)
    if reason is not None:
        return CellRecord(cell=cell, status="unsupported", gauges={}, note=reason)
    backend = _BACKENDS[cell.approach]
    walls = []
    gauges: dict = {}
    try:
        for _ in range(cell.policy.repeats):
            start = time.perf_counter()
            gauges = backend(cell, ctx)
            walls.append(time.perf_counter() - start)
    except _Unsupported as exc:
        return CellRecord(cell=cell, status="unsupported", gauges={}, note=str(exc))
    except Exception as exc:  # noqa: BLE001 - quarantine, don't kill the sweep
        return CellRecord(
            cell=cell,
            status="failed",
            gauges={},
            note=f"{type(exc).__name__}: {exc}",
            wall_s=min(walls) if walls else 0.0,
        )
    return CellRecord(cell=cell, status="ok", gauges=gauges, wall_s=min(walls))
