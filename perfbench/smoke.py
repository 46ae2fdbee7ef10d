"""Smoke test of the benchmark at reduced size.

    python3 perfbench/smoke.py

Runs each workload's set-up and one pass over a shortened task list, plain
and traced, and checks that every oracle passes, that the reduce oracle
takes another reduced form of the same element and refuses another element,
that a wrong recorded answer is caught, that the metric names match BENCHMARK.json, that the
command prints its JSON line, and that it refuses to run without the
library's sources.  Takes about half a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import run


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok {what}")


def small_pass(workloads, inp, name, ref, tracer=None):
    workload = workloads.WORKLOADS[name](inp, random.Random(7), ref, small=True)
    tally = run.Tally()
    run.run_passes(workload, workload.tasks(workload.setup()), 0, tally, tracer)
    return tally


def main():
    run.import_library()
    import inputs
    import tracing
    import workloads
    from fusionwb import models

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.BENCH_DIR / "_work" / "smoke"
    try:
        inp = inputs.Inputs(work / "inputs", 7)
        again = inputs.Inputs(work / "again", 7)
        check(inp.files == again.files, "the same seed writes the same inputs")
        other = inputs.Inputs(work / "other", 8)
        check(inp.files != other.files, "another seed writes other inputs")

        ref = workloads.Reference()
        for w in spec["workloads"]:
            tally = small_pass(workloads, inp, w["name"], ref)
            check(tally.attempted > 0 and tally.failed == 0,
                  f"{w['name']}: {tally.attempted} small tasks, all answers right "
                  f"{tally.failures}")

        words = workloads.WordProblem(inp, random.Random(7), ref, small=True)
        reduce_tasks = [t for t in words.tasks(words.setup())
                        if t.id.startswith("reduce_")]
        hnn = [t for t in reduce_tasks if t.id.startswith("reduce_hnn")]
        rewritten, accepted, rejected = 0, 0, 0
        for task in hnn:
            r = task.run()
            # the same element in another reduced form: coset parts pushed
            # left, as a normal form would write it
            other = models._reduce_hnn(r, canonical=True)
            rewritten += other.letters != r.letters
            accepted += task.check(other) is None
            # r^-1 has as many stable letters but is another element
            rejected += task.check(r.inverse()) is not None
        rejected += sum(task.check(task.run().concat(task.run())) is not None
                        for task in reduce_tasks)
        check(rewritten > 0 and accepted == len(hnn)
              and rejected == len(hnn) + len(reduce_tasks),
              f"the reduce check takes any reduced form ({rewritten} rewritten) "
              f"and refuses another element")

        wrong = workloads.Reference()
        wrong.data["F_S4_p2"] = "0" * 64
        tally = small_pass(workloads, inp, "fusion-ladder", wrong)
        check(tally.failed == 1, "a wrong recorded digest fails its task")

        tracer = tracing.Tracer()
        tracer.install()
        try:
            for w in spec["workloads"]:
                small_pass(workloads, inp, w["name"], ref, tracer)
            snap = tracer.snapshot()
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics(snap, snap, 1, 1.0)
        check(list(layers) == [m["name"] for m in spec["per_layer"]],
              "traced metrics are the per_layer list of BENCHMARK.json")
        check(not tracer.absent, f"every traced target exists {tracer.absent}")
        missed = [t for i, t in enumerate(tracing.TARGETS) if tracer.calls[i] == 0]
        check(not missed, f"every traced target is called by some workload {missed}")
        counts = {k: layers[k] for k in tracing.COUNTERS}
        check(all(v > 0 for v in counts.values()), f"every counter moves {counts}")

        cmd = [sys.executable, *spec["command"][1:]]
        for traced, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                cmd + ["--workload", "word-problem", "--seed", "3", "--seconds", "0.5",
                       "--trace", str(traced)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(proc.returncode == 0 and result["correct"]
                  and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and list(result["metrics"]) == [m["name"] for m in names],
                  f"command with --trace {traced} prints its JSON line")

        bare = work / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.BENCH_DIR.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(cmd + ["--workload", "word-problem", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without src/ the command fails and prints no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
