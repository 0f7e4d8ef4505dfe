"""One cold start: a fresh interpreter and an empty cache directory.

Times everything a user pays before the first unit of work completes --
imports, calibration, runtime and pool start-up -- except generating the
inputs, and prints ``{"setup_s": ..., "errors": [...]}``.  ``run.py``
starts it several times per run and reports the median.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED CACHE_DIR VERIFIED``
where ``VERIFIED`` is a JSON object of output digests the caller already
checked (see :class:`workloads.Checker`).
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (run.py puts src/ on PYTHONPATH)

import repro.experiments  # noqa: E402, F401  (imports count as set-up)
import repro.kernels.batched  # noqa: E402, F401


def main() -> None:
    name, seed, cache, verified = sys.argv[1:5]
    seed, verified = int(seed), json.loads(verified)
    workload = workloads.WORKLOADS[name]
    generate = time.perf_counter()
    unit = workload.make_units(seed)[0]
    generate = time.perf_counter() - generate
    runtime = None
    if workload.launches:
        from repro.runtime import BatchRuntime

        runtime = BatchRuntime(workers=workloads.WORKERS, cache_directory=cache)
    result = workloads.run_unit(workload, unit, runtime)
    setup_s = time.perf_counter() - START - generate
    errors = workloads.Checker(workload, verified)(unit, result)
    print(json.dumps({"setup_s": setup_s, "errors": errors}))


if __name__ == "__main__":
    main()
