"""The analysis case list: every device kernel at several shapes.

Each entry of :data:`repro.kernels.infos.KERNEL_INFOS` becomes one
:class:`KernelCase` at each of the sizes 4, 8, and 13, run on the
entry's own seeded inputs (the seed is ``100 + n``, so every run is
deterministic).  Both
analyses walk this one list, so "the kernel surface CI race-checks"
(``python -m repro.analyze sanitize``, :func:`run_sweep`) and "the
kernel surface CI cost-certifies" (``python -m repro.analyze
costcheck``) are the same set.

The per-thread kernels never touch shared memory (one problem per
thread, registers only), so their sanitizer runs exist to prove the
sweep covers the whole device-kernel surface: they report
``sanitizer: None`` and count as trivially clean.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

__all__ = ["KernelCase", "kernel_cases", "run_sweep"]

#: Matrix sizes covering a single panel (4), the Figure 8 sweet spot
#: (8), and a ragged multi-panel shape (13).
_SIZES = (4, 8, 13)
_BATCH = 4


@dataclasses.dataclass(frozen=True)
class KernelCase:
    """One kernel at one problem shape."""

    name: str
    op: str
    family: str  # "per_block" | "per_thread"
    m: int
    n: int
    seed: int
    #: ``run(batch, seed)`` executes the kernel on a fresh seeded input.
    run: Callable[[int, int], object]

    @property
    def shape(self) -> str:
        return f"{self.m}x{self.n}"

    @property
    def key(self) -> str:
        return f"{self.name}[{self.shape}]"


def kernel_cases() -> List[KernelCase]:
    """Every (kernel, shape) pair the sanitize and costcheck CLIs run."""
    from ..kernels.infos import KERNEL_INFOS

    cases: List[KernelCase] = []
    for n in _SIZES:
        for info in KERNEL_INFOS:
            m = n + info.extra_rows

            def run(batch, seed, info=info, m=m, n=n):
                return info.launch(*info.inputs(m, n, seed, batch))

            cases.append(
                KernelCase(info.name, info.op, info.family, m, n, 100 + n, run)
            )
    return cases


def run_sweep(cases: Optional[List[KernelCase]] = None) -> List[dict]:
    """Run the sweep under the sanitizer; one result dict per case.

    Each dict carries ``kernel``, ``shape``, ``ok``, and either the full
    report (``hazards``, ``syncs``, ``redundant_syncs``, ...) or
    ``report: None`` for shared-memory-free kernels.
    """
    from .sanitizer import sanitizing

    results: List[dict] = []
    for case in cases if cases is not None else kernel_cases():
        with sanitizing(True):
            result = case.run(_BATCH, case.seed)
        entry = {"kernel": case.name, "shape": case.shape}
        if case.family == "per_thread":  # registers only: nothing to sanitize
            entry.update(ok=True, report=None)
        else:
            report = result.launch.sanitizer
            entry.update(
                ok=report.ok and report.redundant_syncs == 0,
                report=report.to_dict(),
            )
        results.append(entry)
    return results
