#!/usr/bin/env python3
"""Regenerate the stored reference outputs of one workload.

    python3 perfbench/make_refs.py exact_dist

Runs every job the workload's sweeps can generate (the full parameter grid
of each class, see `sweeps.JobClass.universe`) through the same code path
as the benchmark and stores the compared part of each output in
`perfbench/refs/<workload>.json`. An output that breaks an invariant stops
the run, so only valid outputs become references. Regenerate only when a
change is meant to alter outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(workload: str) -> int:
    sys.path.insert(0, str(run.SRC))
    import checks
    import sweeps

    workdir = run.WORK / f"refs-{workload}"
    refs = {}
    try:
        for cls in sweeps.CLASSES[workload]:
            jobs = [sweeps.build_job(f"r{i:05d}", cls.name, params, min(2, run.nproc()))
                    for i, params in enumerate(cls.universe())]
            sweeps.write_inputs(jobs, workdir)
            for job in jobs:
                _, rc, output, error = run.run_job(job, workdir)
                problems = ([error] if error else [f"exit code {rc}"] if rc
                            else checks.invariant_problems(job, output))
                if problems:
                    print(f"{job.key}: {problems}", file=sys.stderr)
                    return 1
                refs[job.key] = checks.reference_value(job.kind, output)
            print(f"{cls.name}: {len(jobs)} references", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "refs" / f"{workload}.json"
    path.write_text(json.dumps(refs, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in run.WORKLOADS:
        sys.exit(f"usage: make_refs.py {{{','.join(run.WORKLOADS)}}}")
    sys.exit(main(sys.argv[1]))
