"""The benchmark's workloads: seeded inputs, one unit of work, and checks.

Each workload is a fixed *rotation* of units that one closed-loop caller
runs back to back; one pass over the rotation is the unit of
``regen_s`` and of every per-layer figure.

* ``lu56_bulk`` -- one launch of the ``runtime_scaling`` spec cell
  (4096 x 56x56 fp32 LU) per unit, sharded over the process pool.
* ``op_mix_stream`` -- five small single-chunk launches (LU, QR,
  Cholesky, pivoted LU, complex QR) that never reach the pool.
* ``paper_regen`` -- the 16 paper artefacts, one ``run_experiment`` per
  unit; no runtime launches at all.

A unit's output is checked against LAPACK (through numpy) and against
the simulated numbers recorded in ``expected.json``; a unit that fails
any check counts as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
SPEC_PATH = ROOT / "benchmarks" / "specs" / "runtime_scaling.toml"

#: Relative residual bound: ``RESIDUAL_FACTOR * n * eps(dtype)``.  The
#: backward error of a stable factorization grows like ``n * eps``; the
#: factor leaves room for the fast-math reciprocal the kernels use.
RESIDUAL_FACTOR = 8.0

#: Pool size of the end-to-end runtime.  The benchmark targets a
#: two-core host, so the pool has one worker per core and no more.
WORKERS = 2


@dataclasses.dataclass
class Unit:
    """One call the caller makes: a runtime launch or an artefact."""

    label: str
    problems: int
    op: str = ""
    data: Any = None


def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def runtime_scaling_cell() -> tuple[str, int, int, np.dtype]:
    """``(op, batch, n, dtype)`` of the single ``runtime_scaling`` cell."""
    from repro.experiments import expand_cells, load_spec

    (cell,), _pruned = expand_cells(load_spec(SPEC_PATH))
    return cell.op, cell.policy.batch, cell.size, np.dtype(cell.precision)


def _spd_batch(batch: int, n: int, dtype, rng) -> np.ndarray:
    x = rng.standard_normal((batch, n, n))
    return (x @ x.transpose(0, 2, 1) + n * np.eye(n)).astype(dtype)


def lu56_units(seed: int) -> list[Unit]:
    from repro.kernels.batched import diagonally_dominant_batch

    op, batch, n, dtype = runtime_scaling_cell()
    data = diagonally_dominant_batch(
        batch, n, dtype=dtype, seed=np.random.default_rng(seed)
    )
    return [Unit(f"{op}:{batch}x{n}x{n}:{dtype}", batch, op, data)]


#: ``(op, batch, m, n, dtype)`` of the op_mix_stream rotation.  Every
#: launch stays below the runtime's chunk budget, so it runs as one
#: in-process chunk; the complex QR is Table VII's RT_STAP 80x16 size.
OP_MIX = (
    ("lu", 1024, 16, 16, np.float32),
    ("qr", 256, 32, 32, np.float32),
    ("cholesky", 512, 24, 24, np.float32),
    ("lu_pivot", 512, 32, 32, np.float32),
    ("qr", 128, 80, 16, np.complex64),
)


def op_mix_units(seed: int) -> list[Unit]:
    from repro.kernels.batched import diagonally_dominant_batch, random_batch

    units = []
    for k, (op, batch, m, n, dtype) in enumerate(OP_MIX):
        rng = np.random.default_rng([seed, k])
        if op == "lu":
            data = diagonally_dominant_batch(batch, n, dtype=dtype, seed=rng)
        elif op == "cholesky":
            data = _spd_batch(batch, n, dtype, rng)
        else:
            data = random_batch(batch, m, n, dtype=dtype, seed=rng)
        units.append(Unit(f"{op}:{batch}x{m}x{n}:{np.dtype(dtype)}", batch, op, data))
    return units


def paper_units(seed: int) -> list[Unit]:
    """The 16 artefacts.  Their inputs are fixed by the paper, so the
    seed does not change them."""
    from repro.reporting import list_experiments

    return [Unit(name, 1) for name in list_experiments()]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    """Largest per-problem relative Frobenius norm of ``diff``."""
    num = np.linalg.norm(diff.reshape(diff.shape[0], -1), axis=1)
    den = np.linalg.norm(ref.reshape(ref.shape[0], -1), axis=1)
    return float(np.max(num / np.where(den == 0, 1.0, den)))


def _unit_lower(packed: np.ndarray) -> np.ndarray:
    n = packed.shape[-1]
    return np.tril(packed, -1) + np.eye(n)


def _logabsdet_error(u: np.ndarray, a: np.ndarray) -> float:
    """|log|det U| - log|det A|| per problem, max; LAPACK getrf on ``a``."""
    ours = np.log(np.abs(np.diagonal(u, axis1=1, axis2=2))).sum(axis=1)
    _sign, ref = np.linalg.slogdet(a)
    return float(np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))))


def _householder_q(packed: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Thin Q from LAPACK-style packed reflectors ``H_j = I - tau v v^H``."""
    batch, m, n = packed.shape
    q = np.broadcast_to(np.eye(m, n, dtype=packed.dtype), (batch, m, n)).copy()
    for j in reversed(range(taus.shape[1])):
        v = np.zeros((batch, m), dtype=packed.dtype)
        v[:, j] = 1.0
        v[:, j + 1 :] = packed[:, j + 1 :, j]
        w = np.einsum("bi,bij->bj", v.conj(), q)
        q -= taus[:, j, None, None] * v[:, :, None] * w[:, None, :]
    return q


def residuals(op: str, a: np.ndarray, output: np.ndarray, extra) -> dict:
    """Named relative errors of one launch's factors, in float64."""
    wide = np.complex128 if np.iscomplexobj(a) else np.float64
    a = a.astype(wide)
    out = np.asarray(output).astype(wide)
    if op == "lu":
        lower, upper = _unit_lower(out), np.triu(out)
        return {
            "A-LU": _rel(a - lower @ upper, a),
            "logdet": _logabsdet_error(upper, a),
        }
    if op == "lu_pivot":
        perm = np.asarray(extra)
        pa = np.take_along_axis(a, perm[:, :, None], axis=1)
        lower, upper = _unit_lower(out), np.triu(out)
        return {"PA-LU": _rel(pa - lower @ upper, a)}
    if op == "cholesky":
        lower = np.tril(out)
        return {
            "A-LLh": _rel(a - lower @ lower.conj().transpose(0, 2, 1), a),
            "L-potrf": _rel(lower - np.linalg.cholesky(a), lower),
        }
    if op == "qr":
        n = a.shape[2]
        q = _householder_q(out, np.asarray(extra).astype(wide))
        r = np.triu(out[:, :n, :])
        eye = np.eye(n)[None]
        r_ref = np.linalg.qr(a, mode="r")
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        diag_ref = np.abs(np.diagonal(r_ref, axis1=1, axis2=2))
        return {
            "A-QR": _rel(a - q @ r, a),
            "QhQ-I": _rel(q.conj().transpose(0, 2, 1) @ q - eye, eye),
            "|diagR|-geqrf": _rel(diag - diag_ref, diag_ref),
        }
    raise ValueError(f"no residual check for op {op!r}")


def residual_tolerance(a: np.ndarray) -> float:
    n = max(a.shape[1:])
    return RESIDUAL_FACTOR * n * float(np.finfo(a.dtype).eps)


def sim_numbers(report) -> dict:
    """The simulated numbers of a one-group runtime launch."""
    group = report.results[0]
    return {
        "gflops": group.gflops,
        "cycles": group.launch.cycles,
        "flops": group.launch.flops_per_block * group.problems,
    }


def output_digest(report) -> str:
    """Digest of a launch's output and extra arrays, bit for bit."""
    h = hashlib.blake2b(digest_size=16)
    for array in (report.output, report.extra):
        if array is not None:
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def check_launch(
    unit: Unit, report, want: dict, reference: str | None = None
) -> list[str]:
    """Every reason ``report`` is not a correct result for ``unit``.

    Without a ``reference`` digest the output gets the full residual
    check against LAPACK.  With one -- the digest of an earlier,
    residual-checked launch of the same input -- it must match bit for
    bit, which the runtime guarantees and which is far cheaper.
    """
    errors = []
    if report.failures:
        errors.append(f"{len(report.failures)} quarantined slots on clean input")
    got = sim_numbers(report)
    for name, value in got.items():
        if value != want.get(name):
            errors.append(f"simulated {name} {value!r} != recorded {want.get(name)!r}")
    if reference is not None:
        if output_digest(report) != reference:
            errors.append("output differs from the checked launch of this input")
        return errors
    tol = residual_tolerance(unit.data)
    found = residuals(unit.op, unit.data, report.output, report.extra)
    for name, value in found.items():
        if not value <= tol:
            errors.append(f"{name} residual {value:.3g} > {tol:.3g}")
    return errors


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def artefact_digest(data) -> str:
    """sha256 of an artefact's data as canonical JSON (floats exact)."""
    text = json.dumps(_canonical(data), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_artefact(unit: Unit, result, want: str) -> list[str]:
    digest = artefact_digest(result.data)
    if digest == want:
        return []
    return [f"data digest {digest[:12]} != recorded {want[:12]}"]


# ----------------------------------------------------------------------
# Workload table
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    make_units: Callable[[int], list[Unit]]
    #: Whether units are :class:`~repro.runtime.BatchRuntime` launches
    #: (else ``run_experiment`` calls).
    launches: bool
    #: Processes the end-to-end run keeps busy at once.
    width: int = 1
    #: The :data:`refclock.REFERENCES` computation that tracks host speed
    #: for this workload.
    reference: str = "mixed"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lu56_bulk", lu56_units, True, width=WORKERS, reference="tile"),
        Workload("op_mix_stream", op_mix_units, True),
        Workload("paper_regen", paper_units, False),
    )
}


def run_unit(workload: Workload, unit: Unit, runtime):
    if workload.launches:
        from repro.runtime import ProblemBatch

        return runtime.run(ProblemBatch.single(unit.op, unit.data))
    from repro.reporting import run_experiment

    return run_experiment(unit.label)


class Checker:
    """Checks units against ``expected.json`` and earlier checked results.

    ``verified`` maps unit labels to the output digests of launches that
    passed the residual check; the checker adds to it as it goes.
    """

    def __init__(self, workload: Workload, verified: dict | None = None) -> None:
        self.workload = workload
        self.want = expected()
        self.verified: dict[str, str] = dict(verified or {})

    def __call__(self, unit: Unit, result) -> list[str]:
        if not self.workload.launches:
            return check_artefact(unit, result, self.want["artefacts"][unit.label])
        reference = self.verified.get(unit.label)
        want = self.want["launches"][unit.label]
        errors = check_launch(unit, result, want, reference)
        if not errors and reference is None:
            self.verified[unit.label] = output_digest(result)
        return errors


def sim_gflops(workload: Workload, first: dict) -> float:
    """The workload's simulated whole-chip GFLOP/s.

    ``first`` maps each unit label to its first result.  For launches:
    total useful FLOPs over total simulated seconds of one pass.  For
    the paper: Figure 9's measured LU rate at n = 56, the paper's
    headline per-block size.
    """
    if not workload.launches:
        data = first["fig9"].data
        return float(data["lu_measured"][data["n"].index(56)])
    sims = [sim_numbers(report) for report in first.values()]
    seconds = sum(s["flops"] / (s["gflops"] * 1e9) for s in sims)
    return sum(s["flops"] for s in sims) / seconds / 1e9
