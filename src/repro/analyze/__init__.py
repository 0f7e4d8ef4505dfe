"""Correctness tooling for the simulated kernel zoo.

Three independent layers guard the invariants the paper's per-block
kernels depend on (every cross-thread handoff bracketed by a
``__syncthreads``, Eq. 2's ``nsync * alpha_sync`` term, and cost
accounting that matches the predictive model):

* a **dynamic sanitizer** (:mod:`repro.analyze.sanitizer`) -- an opt-in
  access recorder inside :class:`~repro.gpu.shared_memory.SharedMemory`
  and :class:`~repro.gpu.simt.BlockEngine` that tags every functional
  read/write with its sync *epoch* and flags cross-lane write->read,
  write->write, and read->write hazards inside one epoch, plus
  wasted-sync and never-synced diagnostics.  Enable with
  ``REPRO_SANITIZE=1``, ``BlockEngine(sanitize=True)``, or the
  :func:`sanitizing` context manager;

* a **static lint pass** (:mod:`repro.analyze.lint`, stdlib ``ast``
  only) -- project-specific rules RPR001..RPR006 covering
  batch-invariance, kernel sync protocol, nondeterminism sources,
  unaccounted shared allocations, float equality, and stale noqa
  suppressions;

* a **static cost certifier** (:mod:`repro.analyze.costcheck`) -- an
  abstract interpreter that derives each kernel's closed-form resource
  footprint (flops, DRAM bytes, shared traffic, registers, syncs) from
  witness executions and holds it equal to the analytic model, the
  occupancy calculator, and live traced counters.

All layers share one CLI: ``python -m repro.analyze
{lint,sanitize,costcheck}`` (see :mod:`repro.analyze.cli`);
``docs/analyze.md`` documents the rules, the certifier, and the CI
gates.
"""

from .lint import (
    Finding,
    Rule,
    RULES,
    UnknownRuleError,
    lint_file,
    lint_paths,
    lint_source,
)
from .sanitizer import (
    Hazard,
    SanitizeReport,
    SharedSanitizer,
    sanitize_enabled,
    sanitizing,
)

__all__ = [
    "Finding",
    "Hazard",
    "RULES",
    "Rule",
    "SanitizeReport",
    "SharedSanitizer",
    "UnknownRuleError",
    "kernel_cases",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "run_costcheck",
    "run_sweep",
    "sanitize_enabled",
    "sanitizing",
]


def __getattr__(name: str):
    # The case list, cost certifier, and CLI import the full kernel
    # stack; loading them eagerly here would cycle through gpu.simt
    # (which imports the sanitizer).  PEP 562 keeps them one attribute
    # access away.
    if name in ("kernel_cases", "run_sweep"):
        from . import registry

        return getattr(registry, name)
    if name == "run_costcheck":
        from .costcheck import run_costcheck

        return run_costcheck
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
