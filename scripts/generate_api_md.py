#!/usr/bin/env python
"""Regenerate docs/api.md from each package's ``__all__`` and docstrings."""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.gpu",
    "repro.microbench",
    "repro.model",
    "repro.layouts",
    "repro.kernels.infos",
    "repro.kernels.batched",
    "repro.kernels.device",
    "repro.approaches",
    "repro.runtime",
    "repro.resilience",
    "repro.tiled",
    "repro.stap",
    "repro.observe",
    "repro.observe.alerts",
    "repro.observe.events",
    "repro.observe.log",
    "repro.analyze",
    "repro.analyze.costcheck",
    "repro.reporting",
    "repro.experiments",
    "repro.errors",
]

HEADER = """\
# API reference

Public surface of every package, generated from ``__all__`` and the first
docstring line of each export.  Regenerate with::

    python scripts/generate_api_md.py

Narrative guides: [model derivations](model.md) --
[observability (tracing, counters, attribution)](observability.md) --
[batch runtime (sharded execution, caches, CI gate)](runtime.md) --
[resilience (retries, quarantine, checkpoints, fault injection)](resilience.md) --
[correctness analysis (race sanitizer, protocol linter)](analyze.md) --
[experiment matrices (declarative sweeps, CI gating)](experiments.md).
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def describe(module) -> list[str]:
    lines = []
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        kind = (
            "class" if inspect.isclass(obj)
            else "function" if callable(obj)
            else "constant"
        )
        summary = first_line(obj) if kind != "constant" else ""
        lines.append(f"| `{name}` | {kind} | {summary} |")
    return lines


def main() -> None:
    parts = [HEADER]
    for pkg_name in PACKAGES:
        module = importlib.import_module(pkg_name)
        doc = (inspect.getdoc(module) or "").splitlines()
        parts.append(f"\n## `{pkg_name}`\n")
        if doc:
            parts.append(doc[0] + "\n")
        parts.append("| name | kind | summary |")
        parts.append("|---|---|---|")
        parts.extend(describe(module))
    out = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    out.write_text("\n".join(parts) + "\n")
    print(f"wrote {out} ({len(out.read_text().splitlines())} lines)")


if __name__ == "__main__":
    main()
