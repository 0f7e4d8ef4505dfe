"""Run-history store (JSONL) with rolling-window drift detection.

Every sharded launch appends one line to ``~/.cache/repro/history.jsonl``
(same root as the calibration/dispatch caches, ``REPRO_CACHE_DIR`` to
override): the :meth:`~repro.runtime.merge.BatchReport.summary` payload,
the per-group regime classification, and the per-term attribution
residuals.  Appends are version-stamped single ``write(2)`` calls with an
fsync, so concurrent runs interleave whole lines and a killed process
never leaves a torn record; readers skip lines that fail to parse or
carry a different schema stamp.

On top of the store, :func:`detect_drift` applies the same policy as
the experiment gate (:mod:`repro.experiments.gate`) -- a
direction-aware relative tolerance -- continuously: the latest run's
gauges are compared against the *median* of their trailing window, and
a gauge that moved beyond the tolerance in its bad direction
(throughput down, wall time up, residuals up...) is flagged.  This is
the monitoring loop the model enables: the simulated engine is
deterministic, so sustained movement in these gauges means the code
changed, the calibration changed, or the model stopped explaining the
measurement.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

__all__ = [
    "DEFAULT_MAX_BYTES",
    "HISTORY_SCHEMA",
    "DriftFlag",
    "RunHistory",
    "default_history_path",
    "detect_drift",
    "gauge_direction",
    "record_gauges",
    "run_record",
]

#: Bump when the record layout changes; mismatched lines are skipped.
HISTORY_SCHEMA = 1

#: Size cap that triggers automatic compaction after an append.  16 MiB
#: of ~1 KiB records is years of launches; the cap exists so a pinned
#: cache directory on a long-lived host cannot grow without bound.
DEFAULT_MAX_BYTES = 16 << 20

#: Substrings marking a gauge as lower-is-better; everything else is
#: higher-is-better (throughput-like).  Mirrors the CI gate's
#: direction-aware policy.
_LOWER_IS_BETTER = (
    "wall",
    "wait",
    "residual",
    "err",
    "miss",
    "stale",
    "dropped",
    "fallback",
    "nonfinite",
    "failure",
    "retr",
    "timeout",
    "corrupt",
    # Profiler gauges: queued share, straggler spread, and every phase of
    # the latency decomposition ("phases." prefix) shrink when healthy.
    "queue",
    "straggler",
    "phases.",
)


def default_history_path() -> Path:
    """``history.jsonl`` under the persistent cache root."""
    from ..runtime.cache import cache_dir

    return cache_dir() / "history.jsonl"


class RunHistory:
    """Append-only JSONL store of per-launch telemetry records.

    ``max_records`` is the retention target compaction trims to;
    ``max_bytes`` is the size cap that *triggers* an automatic
    :meth:`compact` after an append (checked with one ``fstat`` on the
    already-open descriptor, so the common append stays one write + one
    fsync).  With ``max_records`` unset, rotation keeps the newest half
    of the valid records.  ``max_bytes=None`` disables rotation.
    """

    def __init__(
        self,
        path: Optional[Path | str] = None,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
    ) -> None:
        self.path = Path(path) if path else default_history_path()
        self.max_records = max_records
        self.max_bytes = max_bytes

    def append(self, record: dict) -> Path:
        """Stamp and append ``record`` as one JSONL line; returns the path.

        The line is written with a single ``os.write`` on an
        ``O_APPEND`` descriptor and fsynced, so parallel writers cannot
        interleave partial lines.
        """
        from .export import _jsonable

        doc = {"schema": HISTORY_SCHEMA, "ts": time.time()}
        doc.update(_jsonable(record))
        line = json.dumps(doc, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
            os.fsync(fd)
            size = os.fstat(fd).st_size
        finally:
            os.close(fd)
        if self.max_bytes is not None and size > self.max_bytes:
            keep = self.max_records
            if keep is None:
                keep = max(1, len(self.load()) // 2)
            self.compact(keep)
        return self.path

    def compact(self, max_records: Optional[int] = None) -> int:
        """Rewrite the store keeping the newest ``max_records`` lines.

        Valid lines are kept *verbatim* (schema stamp and all), so a
        compacted store loads identically to one that was never larger;
        torn/corrupt/foreign lines are dropped along the way.  The
        rewrite is atomic (tmp file + fsync + ``os.replace``) and counted
        in ``repro_history_compactions_total``.  Returns the number of
        lines dropped; the store is untouched when nothing would be.

        Rotation is a single-writer affair: a line appended by a
        concurrent process between the read and the replace would be
        lost, the standard logrotate caveat.
        """
        if max_records is None:
            max_records = self.max_records
        try:
            text = self.path.read_text()
        except OSError:
            return 0
        lines = [line for line in text.splitlines() if line.strip()]
        kept = []
        for line in lines:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and doc.get("schema") == HISTORY_SCHEMA:
                kept.append(line)
        if max_records is not None:
            if max_records < 0:
                raise ValueError("max_records must be non-negative")
            kept = kept[max(0, len(kept) - max_records) :] if max_records else []
        dropped = len(lines) - len(kept)
        if dropped <= 0:
            return 0
        from . import metrics as _metrics
        from .export import atomic_write_text

        body = "\n".join(kept) + "\n" if kept else ""
        atomic_write_text(self.path, body)
        _metrics.counter_inc(
            "repro_history_compactions_total",
            help="Run-history rewrites that dropped old/corrupt lines.",
        )
        return dropped

    def load(self, limit: Optional[int] = None) -> List[dict]:
        """All valid records, oldest first (last ``limit`` when given).

        Torn, corrupt, or schema-mismatched lines are skipped rather
        than raised: a history file must survive version upgrades and
        interrupted writers.
        """
        try:
            text = self.path.read_text()
        except OSError:
            return []
        records = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if not isinstance(doc, dict) or doc.get("schema") != HISTORY_SCHEMA:
                continue
            records.append(doc)
        if limit is not None:
            records = records[-limit:]
        return records

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return len(self.load())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunHistory({self.path})"


def run_record(
    summary: dict,
    regimes: Optional[Sequence] = None,
    attribution: Optional[Sequence[dict]] = None,
    **meta,
) -> dict:
    """Build one history record from a launch's artifacts.

    ``summary`` is :meth:`BatchReport.summary`; ``regimes`` is a sequence
    of :class:`~repro.observe.regime.RegimeClassification`; ``attribution``
    holds per-group residual summaries.  ``meta`` adds identity fields
    (device name, git rev...).
    """
    record: dict = dict(meta)
    record["summary"] = summary
    if regimes:
        record["regimes"] = [
            r.to_dict() if hasattr(r, "to_dict") else dict(r) for r in regimes
        ]
    if attribution:
        record["attribution"] = list(attribution)
    return record


def record_gauges(record: dict) -> Dict[str, float]:
    """Flatten a record's finite numeric leaves into dotted gauge names.

    List items keyed by an identifying field (``op``, ``regime``,
    ``term``, ``label``) use it instead of their position, so gauges stay
    comparable across runs whose group order differs.  ``ts`` and
    ``schema`` are bookkeeping, not gauges.
    """
    gauges: Dict[str, float] = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            if math.isfinite(value):
                gauges[prefix] = float(value)
            return
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
            return
        if isinstance(value, list):
            for index, item in enumerate(value):
                key = str(index)
                if isinstance(item, dict):
                    for id_field in ("op", "regime", "term", "label"):
                        if isinstance(item.get(id_field), str):
                            key = item[id_field]
                            break
                walk(f"{prefix}.{key}" if prefix else key, item)

    walk("", record)
    gauges.pop("ts", None)
    gauges.pop("schema", None)
    return gauges


def gauge_direction(name: str) -> str:
    """``"higher"`` or ``"lower"`` -- which way is *better* for ``name``."""
    lowered = name.lower()
    if any(token in lowered for token in _LOWER_IS_BETTER):
        return "lower"
    return "higher"


@dataclasses.dataclass(frozen=True)
class DriftFlag:
    """One gauge that moved beyond tolerance in its bad direction."""

    gauge: str
    value: float
    median: float
    #: Signed relative deviation from the window median.
    deviation: float
    #: Which direction is better for this gauge.
    direction: str
    #: Number of prior records the median was taken over.
    window: int

    def __str__(self) -> str:
        return (
            f"{self.gauge}: {self.value:.4g} vs median {self.median:.4g} "
            f"({self.deviation:+.1%}, {self.direction} is better)"
        )


def detect_drift(
    records: Sequence[dict],
    window: int = 8,
    tolerance: float = 0.10,
    min_history: int = 3,
) -> List[DriftFlag]:
    """Flag gauges in the latest record that drifted from their median.

    The latest record's gauges are compared against the median of the
    up-to-``window`` prior records (needing at least ``min_history``
    samples per gauge).  A flag is raised only for movement beyond
    ``tolerance`` in the gauge's *bad* direction -- the policy of the CI
    bench gate, applied per run instead of per commit.  Gauges whose
    median is ~0 are skipped (relative drift is undefined there).
    """
    if len(records) < min_history + 1:
        return []
    latest = record_gauges(records[-1])
    prior = [record_gauges(r) for r in records[-(window + 1):-1]]
    flags: List[DriftFlag] = []
    for name in sorted(latest):
        history = [g[name] for g in prior if name in g]
        if len(history) < min_history:
            continue
        median = statistics.median(history)
        if abs(median) < 1e-12:
            continue
        deviation = (latest[name] - median) / abs(median)
        direction = gauge_direction(name)
        drifted = (
            deviation < -tolerance
            if direction == "higher"
            else deviation > tolerance
        )
        if drifted:
            flags.append(
                DriftFlag(
                    gauge=name,
                    value=latest[name],
                    median=median,
                    deviation=deviation,
                    direction=direction,
                    window=len(history),
                )
            )
    flags.sort(key=lambda f: -abs(f.deviation))
    return flags
