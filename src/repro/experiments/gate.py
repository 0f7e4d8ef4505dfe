"""Matrix artifact loading, diffing, and direction-aware gating.

The baseline format *is* the matrix artifact: ``diff`` and
``run --strict`` compare one ``matrix.json`` against another, so
refreshing a baseline is just re-running the spec and copying the file
(``scripts/regen_baseline.py`` automates it).

Gauge semantics (CI's bench-regression job gates through here via
``python -m repro.experiments run --strict``):

* higher-is-better gauges (throughput) fail when
  ``value < ref * (1 - tolerance)``;
* lower-is-better gauges (model error, failure counts -- classified by
  :func:`~repro.observe.history.gauge_direction`) fail when
  ``value > ref * (1 + tolerance) + ABS_SLACK`` (the additive slack lets
  a near-zero perfect-model error wiggle in its last float bits);
* structural gauges (``chunks``, ``problems``) and cell statuses must
  match exactly -- a sharding or support-matrix change is a diff even
  when throughput survives it;
* a gauge present in the baseline but missing from the current run
  always fails (a cell that stopped producing numbers is a regression,
  not a skip).

New gauges (cells added to the spec) are reported as notes, never
failures -- growing a sweep must not require refreshing its baseline in
the same commit.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Tuple

from ..observe.history import gauge_direction

__all__ = [
    "ABS_SLACK",
    "MATRIX_SCHEMA",
    "Delta",
    "DiffReport",
    "artifact_gauges",
    "compare_gauges",
    "diff_artifacts",
    "load_artifact",
]

#: Bump when the matrix artifact layout changes.
MATRIX_SCHEMA = 1

#: Additive slack for lower-is-better gauges whose baseline is ~0.
ABS_SLACK = 1e-9

#: Per-cell gauges that must match the baseline exactly.
_EXACT = {"chunks", "problems"}


def _direction(key: str) -> str:
    if key in _EXACT:
        return "exact"
    return gauge_direction(key)


def load_artifact(path: Path | str) -> dict:
    """Read and sanity-check a ``matrix.json`` document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read artifact {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "experiment-matrix":
        raise ValueError(f"{path}: not an experiment matrix artifact")
    if doc.get("schema") != MATRIX_SCHEMA:
        raise ValueError(
            f"{path}: matrix schema {doc.get('schema')!r} != {MATRIX_SCHEMA}"
        )
    return doc


def artifact_gauges(doc: dict) -> Dict[str, dict]:
    """Flatten a matrix into ``{name: {value, direction}}``.

    Gauges come from ``ok`` cells only; every cell additionally
    contributes a ``<id>.status`` pseudo-gauge (direction ``status``)
    so an ok -> failed/unsupported flip is visible even though the
    broken cell emits no numbers.
    """
    gauges: Dict[str, dict] = {}
    for cell in doc.get("cells", []):
        cell_id = cell.get("id", "?")
        gauges[f"{cell_id}.status"] = {
            "value": cell.get("status", "?"),
            "direction": "status",
        }
        if cell.get("status") != "ok":
            continue
        for key, value in (cell.get("gauges") or {}).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            gauges[f"{cell_id}.{key}"] = {
                "value": float(value),
                "direction": _direction(key),
            }
    return gauges


@dataclasses.dataclass(frozen=True)
class Delta:
    """One gauge compared against its baseline."""

    gauge: str
    value: object
    ref: object
    direction: str
    ok: bool
    detail: str = ""

    @property
    def deviation(self) -> float:
        """Signed relative change (0 for non-numeric / zero baselines)."""
        if (
            isinstance(self.value, (int, float))
            and isinstance(self.ref, (int, float))
            and self.ref
        ):
            return (self.value - self.ref) / abs(self.ref)
        return 0.0


@dataclasses.dataclass
class DiffReport:
    """Full diff of two matrix artifacts."""

    deltas: List[Delta]
    #: Gauges in the current run only (growth; informational).
    new: List[str]
    tolerance: float

    @property
    def failures(self) -> List[Delta]:
        return [d for d in self.deltas if not d.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> List[str]:
        out = [
            f"REGRESSION {d.gauge}: {d.detail}" for d in self.failures
        ]
        out.extend(
            f"note: new gauge not in baseline: {name}" for name in self.new
        )
        return out


def compare_gauges(
    current: Dict[str, dict], baseline: Dict[str, dict], tolerance: float
) -> Tuple[List[Delta], List[str]]:
    """Direction-aware comparison; returns ``(deltas, new_gauge_names)``."""
    deltas: List[Delta] = []
    for name in sorted(baseline):
        base = baseline[name]
        ref = base["value"]
        direction = base["direction"]
        if name not in current:
            deltas.append(
                Delta(name, None, ref, direction, False, "missing from current run")
            )
            continue
        value = current[name]["value"]
        if direction == "status":
            ok = value == ref
            detail = "" if ok else f"status {value!r} != baseline {ref!r}"
        elif direction == "exact":
            ok = value == ref
            detail = "" if ok else f"{value:g} != baseline {ref:g} (exact match)"
        elif direction == "higher":
            limit = ref * (1.0 - tolerance)
            ok = value >= limit
            detail = "" if ok else (
                f"{value:.4g} < {limit:.4g} "
                f"(baseline {ref:.4g}, -{tolerance:.0%} allowed)"
            )
        else:
            limit = ref * (1.0 + tolerance) + ABS_SLACK
            ok = value <= limit
            detail = "" if ok else (
                f"{value:.4g} > {limit:.4g} "
                f"(baseline {ref:.4g}, +{tolerance:.0%} allowed)"
            )
        deltas.append(Delta(name, value, ref, direction, ok, detail))
    new = sorted(set(current) - set(baseline))
    return deltas, new


def diff_artifacts(current: dict, baseline: dict, tolerance: float) -> DiffReport:
    """Compare two loaded matrix documents."""
    deltas, new = compare_gauges(
        artifact_gauges(current), artifact_gauges(baseline), tolerance
    )
    return DiffReport(deltas=deltas, new=new, tolerance=tolerance)
