"""Numerical quarantine: per-problem failures instead of batch failures.

At production scale one singular matrix in a 4096-problem batch must not
cost the launch.  The device kernels already run breakdown-tolerant --
an exactly-zero pivot is where-protected and flagged rather than
raised -- so the runtime's job is to *surface* those flags per problem:
after the chunks complete, each outcome is scanned with its kernel's
breakdown detector (its :data:`repro.kernels.infos.KERNEL_INFOS` entry),
failing slots are masked to NaN in the merged output, and a structured
:class:`ProblemFailure` record (op, group, batch index, reason) lands on
``BatchReport.failures``.

The failure-free path is untouched bit for bit: detectors are pure
reads, and masking copies nothing unless a breakdown was actually found.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["ProblemFailure", "quarantine_outcomes", "scan_output"]


@dataclasses.dataclass(frozen=True)
class ProblemFailure:
    """One quarantined problem of a batch."""

    #: Kernel name the problem ran under.
    op: str
    #: Group index within the :class:`~repro.runtime.sharding.ProblemBatch`.
    group: int
    #: Batch index *within the group* (i.e. indexes ``group.data``).
    index: int
    #: Machine-readable breakdown reason (``zero-pivot``,
    #: ``not-positive-definite``, ``non-finite``...).
    reason: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        return f"{self.op}[group {self.group}, problem {self.index}]: {self.reason}"


def scan_output(op: str, output: np.ndarray, extra) -> Dict[int, str]:
    """Per-problem breakdown reasons for one chunk's raw kernel result.

    Dispatches to the kernel's detector in the kernel table; unknown ops
    fall back to a non-finite scan (a factorization that produced Inf/NaN
    is unusable whatever the algorithm was).
    """
    from ..kernels.device import nonfinite_breakdowns
    from ..kernels.infos import runtime_kernels

    info = runtime_kernels().get(op)
    detector = info.breakdowns if info is not None else nonfinite_breakdowns
    return detector(output, extra)


def quarantine_outcomes(
    batch, chunks: Sequence, outcomes: Sequence
) -> List[ProblemFailure]:
    """Scan, mask, and report breakdowns across a launch's outcomes.

    ``chunks`` and ``outcomes`` are the parallel submission-order
    sequences the merge consumes.  Failing slots are NaN-masked
    *in place* on the outcome arrays (they are chunk-private, fresh from
    a worker or an inline run), so the subsequent merge concatenates the
    masked bytes without a second pass.  Returns the failure records in
    (group, index) order.
    """
    failures: List[ProblemFailure] = []
    for chunk, outcome in zip(chunks, outcomes):
        group = batch.groups[chunk.group]
        found = scan_output(group.op, outcome.output, outcome.extra)
        if not found:
            continue
        output = outcome.output
        if not output.flags.writeable:  # resumed/journaled arrays may be
            output = np.array(output, copy=True)
            outcome.output = output
        for local_index in sorted(found):
            output[local_index] = np.nan
            failures.append(
                ProblemFailure(
                    op=group.op,
                    group=chunk.group,
                    index=chunk.start + local_index,
                    reason=found[local_index],
                )
            )
    failures.sort(key=lambda f: (f.group, f.index))
    return failures
