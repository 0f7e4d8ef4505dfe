"""Regenerate ``perfbench/expected.json``: the simulated numbers every unit
must reproduce.

Records, per launch shape, the simulated GFLOP/s, cycles and FLOPs (the
kernels are data-oblivious, so two seeds must agree), and per paper
artefact the digest of its data (two passes must agree).  Rerun only
when a change is *meant* to move simulated numbers, and say so in the
change; a host speed-up must leave this file untouched.

Usage: ``PYTHONPATH=src python3 perfbench/record_expected.py``
"""

import json
import tempfile

import workloads


def main() -> None:
    from repro.reporting import run_experiment
    from repro.runtime import BatchRuntime

    launches = {}
    with tempfile.TemporaryDirectory() as cache:
        runtime = BatchRuntime(workers=1, cache_directory=cache, history=False)
        for seed in (0, 1):
            for name in ("lu56_bulk", "op_mix_stream"):
                workload = workloads.WORKLOADS[name]
                for unit in workload.make_units(seed):
                    report = workloads.run_unit(workload, unit, runtime)
                    sims = workloads.sim_numbers(report)
                    if launches.setdefault(unit.label, sims) != sims:
                        raise SystemExit(f"{unit.label}: simulated numbers vary")
    artefacts = {}
    for _ in range(2):
        for unit in workloads.paper_units(0):
            digest = workloads.artefact_digest(run_experiment(unit.label).data)
            if artefacts.setdefault(unit.label, digest) != digest:
                raise SystemExit(f"{unit.label}: artefact data is not reproducible")
    doc = {"launches": launches, "artefacts": artefacts}
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
