"""Record the answers the benchmark's digest oracles compare against.

    python3 perfbench/record_reference.py

Runs every task of every workload once and writes perfbench/reference.json:
SHA-256 digests of the rendered saturation and stable reports and of the HNN
balls, and the ball sizes.  These inputs do not depend on the seed.  Record
only on a commit whose reports are known to be right: afterwards a change in
any of these answers counts as a failed task.
"""

from __future__ import annotations

import random
import shutil
import sys

import run


def main():
    run.import_library()
    import inputs
    import workloads

    ref = workloads.Reference(record=True)
    work = run.BENCH_DIR / "_work" / "record"
    try:
        inp = inputs.Inputs(work, 0)
        for name, cls in sorted(workloads.WORKLOADS.items()):
            workload = cls(inp, random.Random(0), ref)
            tally = run.Tally()
            run.run_passes(workload, workload.tasks(workload.setup()), 0, tally)
            if tally.failed:
                sys.exit(f"{name}: {tally.failures}")
            print(f"{name}: {tally.attempted} tasks")
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    ref.save()
    print(f"wrote {len(ref.data)} answers to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
