"""Case selection for the certifier CLI.

The certifier runs the shared analysis case list
(:func:`repro.analyze.registry.kernel_cases`), the same one the
sanitizer sweeps; ``--cases`` narrows it here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..registry import KernelCase, kernel_cases

__all__ = ["UnknownCaseError", "select_cases"]


class UnknownCaseError(ValueError):
    """A requested kernel/case name is not in the certifier registry."""


def select_cases(
    names: Optional[Sequence[str]] = None, cases: Optional[List[KernelCase]] = None
) -> List[KernelCase]:
    """Filter the registry by kernel name or ``kernel[MxN]`` key.

    Raises :class:`UnknownCaseError` (the CLI's exit-2 spec error) when a
    requested name matches nothing.
    """
    pool = cases if cases is not None else kernel_cases()
    if not names:
        return pool
    known = {c.name for c in pool} | {c.key for c in pool}
    missing = [name for name in names if name not in known]
    if missing:
        raise UnknownCaseError(
            f"unknown case(s): {', '.join(missing)}; known kernels: "
            + ", ".join(sorted({c.name for c in pool}))
        )
    return [c for c in pool if c.name in names or c.key in names]
