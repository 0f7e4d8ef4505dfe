"""Static cost certifier for the device-kernel surface.

``repro.analyze.costcheck`` abstractly interprets every kernel in the
shared analysis case list (:func:`repro.analyze.registry.kernel_cases`)
over symbolic ``(op, m, n, batch)`` domains and certifies the derived
closed-form footprints -- flops, global load/store bytes,
shared-memory traffic, register estimate, synchronization count --
against three independent oracles:

1. **the analytic model** (:func:`repro.model.per_block_counts` and
   :func:`repro.model.per_thread_model.predict_per_thread`): exact
   per-term equality, so the paper's predictive model and the simulated
   kernels can never silently drift apart;
2. **the occupancy calculator** (:func:`repro.gpu.occupancy.occupancy`):
   the certified footprint must admit resident blocks on the paper's
   Quadro 6000;
3. **a dynamic traced run** (:mod:`repro.observe`): live hardware
   counters at an unseen batch size must equal the static footprint.

The per-block tiled pipelines (:mod:`repro.tiled`) compose the certified
per-block launches and are covered transitively.

CLI: ``python -m repro.analyze costcheck {verify,table,diff}``.
"""

from __future__ import annotations

from .cases import UnknownCaseError, select_cases
from .checks import (
    CaseReport,
    analytic_flops,
    certify_case,
    model_terms,
    run_costcheck,
)
from .footprint import COUNT_TERMS, Footprint, diff_terms
from .interp import AbstractEngine, AbstractionError, Interpretation, interpret

__all__ = [
    "AbstractEngine",
    "AbstractionError",
    "CaseReport",
    "COUNT_TERMS",
    "Footprint",
    "Interpretation",
    "UnknownCaseError",
    "analytic_flops",
    "certify_case",
    "diff_terms",
    "interpret",
    "model_terms",
    "run_costcheck",
    "select_cases",
]
