"""Host benchmark of the reproduction: how long the host takes, and where.

Usage::

    python3 perfbench/run.py --workload {lu56_bulk,op_mix_stream,paper_regen}
        --seed N --seconds S --trace {0,1}

One closed-loop caller runs the workload's rotation of units back to
back for ``S`` seconds and checks every unit's output.  ``--trace 0``
measures the end-to-end metrics with no tracing installed; ``--trace 1``
is a separate run that measures per-layer self times through the
outside-in wrappers of :mod:`layers`.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Cold starts per end-to-end run, at least this many and this many
#: seconds of them; ``setup_s`` is their median.
SETUP_RUNS = 3
SETUP_BUDGET_S = 3.0
SETUP_TIMEOUT_S = 60
#: Untimed memory passes per traced run, on the end-to-end runtime: the first
#: ``MEMORY_LEVEL_PASSES`` let the heap level off, and ``peak_rss_mb`` is
#: the median peak of the rest.  At least ``MEMORY_PASSES`` passes and
#: ``MEMORY_BUDGET_S`` seconds of them.
MEMORY_LEVEL_PASSES = 2
MEMORY_PASSES = 5
MEMORY_BUDGET_S = 3.0


class Tally:
    """Checked units and the ones that failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def setup_seconds(workload, seed: int, workdir: Path, check, tally: Tally) -> tuple:
    """Median cold-start time, in host and in reference seconds.

    Fresh processes start until :data:`SETUP_RUNS` have run and their
    total reaches :data:`SETUP_BUDGET_S`; each is scaled by the reference
    runs right around it.  Their outputs must match what ``check``
    already verified.
    """
    from refclock import Bracket

    host, scaled = [], []
    with Bracket(workload.width, workload.reference) as bracket:
        while len(host) < SETUP_RUNS or sum(host) < SETUP_BUDGET_S:
            cache = workdir / f"setup-cache-{len(host)}"
            argv = [str(HERE / "setup_probe.py"), workload.name, str(seed), str(cache)]
            proc = subprocess.run(
                [sys.executable, *argv, json.dumps(check.verified)],
                env=dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache)),
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT_S,
                check=True,
            )
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            tally.add(f"setup {workload.name}", probe["errors"])
            host.append(probe["setup_s"])
            scaled.append(probe["setup_s"] * bracket.scale(probe["setup_s"]))
    return statistics.median(host), statistics.median(scaled)


def _passes(values: list, pass_ends: list) -> list:
    """``values`` per unit, summed per pass of the rotation."""
    return [sum(values[a:b]) for a, b in zip([0] + pass_ends, pass_ends)]


def _latencies(walls: list, cpus: list, pass_ends: list, problems: int) -> dict:
    passes = _passes(walls, pass_ends)
    return {
        "problems_per_s": problems / sum(walls),
        "launch_p50_ms": statistics.median(walls) * 1e3,
        "launch_p90_ms": (
            statistics.quantiles(walls, n=10, method="inclusive")[-1] * 1e3
        ),
        "regen_s": statistics.median(passes),
        "cpu_us_per_problem": sum(cpus) / problems * 1e6,
    }


#: Every time is in reference seconds (see refclock.py); the unit names
#: are the plain ones the benchmark format asks for.
_UNITS = {
    "problems_per_s": "1/s",
    "launch_p50_ms": "ms",
    "launch_p90_ms": "ms",
    "regen_s": "s",
    "cpu_us_per_problem": "us",
}


def steady_peak_memory(workload, units, runtime, check, tally: Tally) -> float:
    """Median pass peak of resident memory, in untimed passes.

    The memory sampler costs CPU and competes with the workers, so it
    watches passes of its own, run while the benchmark has no helper
    process of its own.  The heap a long-lived caller keeps between
    launches grows over the first launches, so the first
    :data:`MEMORY_LEVEL_PASSES` passes are not counted.
    """
    from proctree import PeakMemory
    from workloads import run_unit

    pass_peaks = []
    with PeakMemory() as memory:
        deadline = time.perf_counter() + MEMORY_BUDGET_S
        while len(pass_peaks) < MEMORY_PASSES or time.perf_counter() < deadline:
            for unit in units:
                with memory.watch():
                    result = run_unit(workload, unit, runtime)
                tally.add(unit.label, check(unit, result))
                del result
            pass_peaks.append(max(memory.peaks[-len(units) :]))
    return statistics.median(pass_peaks[MEMORY_LEVEL_PASSES:])


def end_to_end(workload, units, seed: int, seconds: float, workdir: Path) -> tuple:
    """The end-to-end metrics: a closed loop on the pool runtime, untraced."""
    from proctree import tree_cpu_s
    from refclock import Bracket
    from repro.runtime import BatchRuntime
    from workloads import WORKERS, Checker, run_unit

    tally = Tally()
    check = Checker(workload)
    runtime = None
    if workload.launches:
        runtime = BatchRuntime(workers=WORKERS, cache_directory=workdir / "cache")
    for unit in units:  # warm: calibration, imports, first-touch
        tally.add(unit.label, check(unit, run_unit(workload, unit, runtime)))
    setup_host_s, setup_s = setup_seconds(workload, seed, workdir, check, tally)

    # Per unit: host wall, host CPU, reference seconds per host second.
    walls, cpus, scales = [], [], []
    pass_ends: list[int] = []
    problems = 0
    with Bracket(workload.width, workload.reference) as bracket:
        deadline = time.perf_counter() + seconds
        # Two units at least, so that launch_p90_ms has its quantiles.
        while time.perf_counter() < deadline or len(walls) < 2:
            for unit in units:
                cpu_start = tree_cpu_s()
                start = time.perf_counter()
                result = run_unit(workload, unit, runtime)
                wall = time.perf_counter() - start
                cpus.append(tree_cpu_s() - cpu_start)
                walls.append(wall)
                scales.append(bracket.scale(wall))
                problems += unit.problems
                tally.add(unit.label, check(unit, result))
                del result
            pass_ends.append(len(walls))

    ref = _latencies(
        [w * k for w, k in zip(walls, scales)],
        [c * k for c, k in zip(cpus, scales)],
        pass_ends,
        problems,
    )
    metrics = {name: _metric(value, _UNITS[name]) for name, value in ref.items()}
    metrics["setup_s"] = _metric(setup_s, "s")
    host = _latencies(walls, cpus, pass_ends, problems)
    host["setup_s"] = setup_host_s
    print(
        f"{workload.name}: {len(walls)} units in {len(pass_ends)} passes, "
        f"{problems} problems; host speed {statistics.median(scales):.3f} ref-s per s; "
        "host figures: "
        + ", ".join(f"{name} {value:.4g}" for name, value in host.items()),
        file=sys.stderr,
    )
    return tally, metrics


def per_layer(workload, units, seed: int, seconds: float, workdir: Path) -> tuple:
    """Interleave untraced and traced passes of the in-process runtime.

    The traced runtime has one worker, so every chunk runs in this
    process where the wrappers see it.  Launch workloads also run a pass
    on the end-to-end pool runtime, untraced, for the launching
    process's CPU per pooled launch.  The run starts with the untimed
    memory passes of :func:`steady_peak_memory`; they count towards
    ``seconds``.
    """
    from layers import LAUNCH, TARGETS, LayerTrace
    from refclock import Bracket
    from repro.runtime import BatchRuntime
    from workloads import WORKERS, Checker, run_unit, sim_gflops

    tally = Tally()
    check = Checker(workload)
    pooled = inline = None
    if workload.launches:
        pooled = BatchRuntime(workers=WORKERS, cache_directory=workdir / "cache")
        inline = BatchRuntime(workers=1, cache_directory=workdir / "cache")
    first = {}
    for unit in units:  # warm the end-to-end runtime
        first[unit.label] = run_unit(workload, unit, pooled)
        tally.add(unit.label, check(unit, first[unit.label]))
    gflops = sim_gflops(workload, first)
    del first  # the memory passes measure the program, not kept results
    deadline = time.perf_counter() + seconds  # the memory passes count
    peak = steady_peak_memory(workload, units, pooled, check, tally)
    if inline is not None:
        for unit in units:  # warm the in-process runtime
            tally.add(unit.label, check(unit, run_unit(workload, unit, inline)))

    trace = LayerTrace()
    # Self time per layer in reference seconds, scaled unit by unit.
    self_s: dict[str, float] = collections.defaultdict(float)
    parent_cpu: list[float] = []
    untraced_s = traced_s = 0.0
    npass = 0
    bracket = Bracket(1, workload.reference)
    while npass == 0 or time.perf_counter() < deadline:
        if pooled is not None:
            for unit in units:
                cpu_start, start = time.process_time(), time.perf_counter()
                result = run_unit(workload, unit, pooled)
                cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
                parent_cpu.append(cpu * bracket.scale(wall))
                tally.add(unit.label, check(unit, result))
                del result
        for unit in units:
            start = time.perf_counter()
            result = run_unit(workload, unit, inline)
            wall = time.perf_counter() - start
            untraced_s += wall * bracket.scale(wall)
            tally.add(unit.label, check(unit, result))
            del result
        with trace:
            for unit in units:
                before = dict(trace.self_s)
                start = time.perf_counter()
                result = trace.call(run_unit, workload, unit, inline)
                wall = time.perf_counter() - start
                scale = bracket.scale(wall)
                traced_s += wall * scale
                for layer, value in trace.self_s.items():
                    self_s[layer] += (value - before.get(layer, 0.0)) * scale
                tally.add(unit.label, check(unit, result))
                del result
        npass += 1

    def per_pass(value: float) -> float:
        return value / npass

    metrics = {
        f"{layer}_s": _metric(per_pass(self_s[layer]), "ref-s") for layer in TARGETS
    }
    for layer in (
        "kernels.device.rank1_update",
        "gpu.simt.charge",
        "microbench.calibrate",
    ):
        metrics[f"{layer}_calls"] = _metric(per_pass(trace.calls[layer]), "count")
    metrics.update(
        {
            "runtime.sharding.chunks": _metric(per_pass(trace.chunks), "count"),
            "runtime.sharding.chunk_imbalance": _metric(
                statistics.median(trace.imbalance) if trace.imbalance else 0.0, "ratio"
            ),
            "runtime.executor.parent_cpu_s": _metric(
                statistics.median(parent_cpu) if parent_cpu else 0.0, "ref-s"
            ),
            "runtime.executor.transport_bytes": _metric(
                per_pass(trace.transport_bytes), "computed_bytes"
            ),
            "runtime.cache.calibration_hits": _metric(
                per_pass(trace.calibration_hits), "count"
            ),
            "resilience.quarantined": _metric(per_pass(trace.quarantined), "count"),
            "peak_rss_mb": _metric(peak / 2**20, "MiB"),
            "bench.unattributed_share": _metric(self_s[LAUNCH] / traced_s, "share"),
            "bench.trace_overhead_frac": _metric(traced_s / untraced_s - 1.0, "share"),
            "sim_gflops": _metric(gflops, "GFLOP/s"),
        }
    )
    print(f"{workload.name}: {npass} traced passes", file=sys.stderr)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # Hermetic: no tracing, logging, fault injection or sanitizer from the
    # caller's environment, metrics at their default, and a fresh cache.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import workloads
    from proctree import become_subreaper, stop_descendants

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    become_subreaper()
    try:
        units = workload.make_units(args.seed)
        measure = per_layer if args.trace else end_to_end
        tally, metrics = measure(workload, units, args.seed, args.seconds, workdir)
    finally:
        # Every process the run started has ended by now, unless a path
        # out of it was an error; none outlives the benchmark either way.
        left = stop_descendants()
        if left:
            print(f"perfbench: stopped leftover processes {left}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
