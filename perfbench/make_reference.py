"""Rewrite ``reference.json``: every answer of the default seed's pools.

    python3 perfbench/make_reference.py

Each job of each workload is analysed once and must pass the
workload's own checks.  Runs with the default seed then also compare
their answers with these values.
"""

import json
import shutil
import sys
import warnings

import run
import workloads


def main() -> int:
    warnings.simplefilter("ignore")
    pkg = run.import_package()
    workdir = run.OUT / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name in workloads.NAMES:
            workload = workloads.make(name)
            entries = {}
            for job in workload.build(pkg, run.DEFAULT_SEED, workdir):
                result = workload.analyse(pkg, job)
                problems = workload.check(pkg, job, result, True)
                if problems:
                    print(f"{name} {job.key}: {problems}", file=sys.stderr)
                    return 1
                entries[job.key] = workloads.jsonable(workload.summary(job, result))
            reference[name] = entries
            print(f"{name}: {len(entries)} answers")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
