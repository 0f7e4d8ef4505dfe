"""Outside-in per-layer tracing: wrappers around the layers' public calls.

Nothing inside ``src/`` is edited.  :class:`LayerTrace` replaces each
public function or method named in :data:`TARGETS` with a timing
wrapper -- on the class for methods, and in every loaded ``repro``
module that holds a reference for functions -- and restores the
originals on exit.  Wrappers keep a stack, so each call's *self* time is
its wall time minus the time of the wrapped calls it made; the self
times of all layers plus the benchmark's own launch frame add up to the
launch wall exactly.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import sys
import time

#: Layer -> the ``module:attribute`` targets it wraps.  An attribute is
#: ``Class.method`` or a module-level function.  A layer is named after
#: the module it lives in and reports ``<layer>_s`` self time.
TARGETS = {
    "kernels.device.rank1_update": [
        "repro.kernels.device.base:BlockKernel.rank1_update"
    ],
    "kernels.device.extract_deposit": [
        f"repro.kernels.device.base:BlockKernel.{name}"
        for name in ("extract_column", "deposit_column", "extract_row", "deposit_row")
    ],
    "kernels.device.serial_reduction": [
        "repro.kernels.device.base:BlockKernel.serial_reduction"
    ],
    "kernels.device.batch_dot": ["repro.kernels.device.base:batch_dot"],
    "kernels.device.setup": ["repro.kernels.device.base:BlockKernel.__init__"],
    "kernels.device.store": ["repro.kernels.device.base:BlockKernel.store"],
    "kernels.device.lu_self": ["repro.kernels.device.per_block_lu:per_block_lu"],
    "kernels.device.qr_self": ["repro.kernels.device.per_block_qr:per_block_qr"],
    "kernels.device.cholesky_self": [
        "repro.kernels.device.per_block_cholesky:per_block_cholesky"
    ],
    "kernels.device.lu_pivot_self": [
        "repro.kernels.device.per_block_lu_pivot:per_block_lu_pivot"
    ],
    "layouts.cyclic2d.scatter_gather": [
        "repro.layouts.cyclic2d:Cyclic2D.scatter",
        "repro.layouts.cyclic2d:Cyclic2D.gather",
    ],
    "gpu.simt.charge": [
        f"repro.gpu.simt:BlockEngine.{name}"
        for name in (
            "charge_flops",
            "charge_div",
            "charge_sqrt",
            "charge_shared",
            "charge_global",
            "charge_measurement",
            "sync",
        )
    ],
    "gpu.l2cache.access": ["repro.gpu.l2cache:L2Cache.access"],
    "microbench.calibrate": ["repro.microbench.calibrate:calibrate"],
    "approaches.per_block.launch": [
        "repro.approaches.per_block:PerBlockApproach.launch"
    ],
    "approaches.dispatch.rank": ["repro.approaches.dispatch:rank_approaches"],
    "tiled.tiled_qr": ["repro.tiled.tiled_qr:tiled_qr"],
    "stap.run_case": ["repro.stap.benchmark:run_stap_case"],
    "runtime.sharding.plan": ["repro.runtime.sharding:plan_chunks"],
    "runtime.merge": ["repro.runtime.merge:merge_outcomes"],
    "runtime.cache": ["repro.runtime.cache:CalibrationCache.load"],
    "resilience.checksum": ["repro.resilience.supervisor:outcome_checksum"],
    "resilience.quarantine": ["repro.resilience.quarantine:quarantine_outcomes"],
    "observe.history_append": ["repro.observe.history:RunHistory.append"],
    "observe.attribution": ["repro.observe.attribution:attribute_launch"],
    "observe.telemetry": [
        "repro.observe.history:run_record",
        "repro.observe.regime:classify_regime",
        "repro.observe.regime:record_regime",
    ]
    + [
        f"repro.observe.metrics:MetricsRegistry.{name}"
        for name in ("inc", "set", "observe", "merge")
    ],
}

#: The benchmark's own frame around each unit; its self time is the
#: part of the launch wall no wrapped layer covers.
LAUNCH = "bench.launch"


class LayerTrace:
    """Self time and call counts per layer, plus a few layer counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.calls: collections.Counter = collections.Counter()
        self.chunks = 0
        self.quarantined = 0
        self.calibration_hits = 0
        self.transport_bytes = 0
        #: max/median chunk kernel seconds, one entry per launch.
        self.imbalance: list[float] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def wrap(self, layer: str, fn, after=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = clock() - start
                stack.pop()
                self_s[layer] += wall - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += wall
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` as one launch frame (:data:`LAUNCH`)."""
        return self.wrap(LAUNCH, fn)(*args, **kwargs)

    # -- counts taken from call arguments and results ------------------
    def _after_plan(self, args, kwargs, chunks) -> None:
        self.chunks += len(chunks)

    def _after_merge(self, args, kwargs, report) -> None:
        batch, chunks, outcomes = args[:3]
        walls = [o.wall_s for o in outcomes]
        self.imbalance.append(max(walls) / statistics.median(walls))
        if len(chunks) < 2:
            return  # the runtime runs a single chunk in-process
        # Computed, not measured: what the pool pickles each way -- every
        # chunk's input slice out, its outputs back.
        for chunk, outcome in zip(chunks, outcomes):
            group = batch.groups[chunk.group]
            self.transport_bytes += group.data[chunk.start : chunk.stop].nbytes
            self.transport_bytes += outcome.output.nbytes
            if outcome.extra is not None:
                self.transport_bytes += outcome.extra.nbytes

    def _after_quarantine(self, args, kwargs, failures) -> None:
        self.quarantined += len(failures)

    def _after_cache_load(self, args, kwargs, params) -> None:
        self.calibration_hits += params is not None

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "LayerTrace":
        after = {
            "runtime.sharding.plan": self._after_plan,
            "runtime.merge": self._after_merge,
            "resilience.quarantine": self._after_quarantine,
            "runtime.cache": self._after_cache_load,
        }
        for layer, targets in TARGETS.items():
            for target in targets:
                self._install(target, layer, after.get(layer))
        return self

    def _install(self, target: str, layer: str, after) -> None:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = getattr(owner, name)
            self._patch(owner, name, self.wrap(layer, original, after))
            return
        original = getattr(module, name)
        wrapper = self.wrap(layer, original, after)
        # Callers that imported the function by name hold their own
        # reference: replace it in every loaded repro module.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, name, None) is original
            ):
                self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, value)

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()
