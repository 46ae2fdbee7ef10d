"""Steadiness check and seed baseline.

    python3 perfbench/steady.py [--runs 10] [--write]

Runs every workload of BENCHMARK.json --runs times (at least 10), with seeds
1..runs and run_seconds, one run after another in one process at a time,
taking the workloads in turn.  For every end-to-end metric it prints the
median, the first and third quartiles (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median next to the bound in BENCHMARK.json.  A
spread above a third of its bound is marked "wide", one above the bound
"FAIL".  Next to each time it prints the spread of the same runs' unscaled
figures (the "unscaled:" line of run.py), which shows what the speed probe
takes out.  It then makes one traced run per workload for the per-layer
figures.

With --write the medians and quartiles of every workload, scaled and
unscaled, and the per-layer figures, go to perfbench/baseline.json.  Exit status 1 when a run gave a
wrong answer or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(command, workload, seed, seconds, traced):
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("unscaled: "):
            result["unscaled"] = json.loads(line[len("unscaled: "):])
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    if args.runs < 10:
        parser.error("a steadiness check needs at least 10 runs")
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    ok = True
    t0 = time.time()
    for i in range(args.runs):
        for w in names:
            res = run_once(spec["command"], w, i + 1, seconds, False)
            results[w].append(res)
            if not res["correct"]:
                ok = False
                print(f"WRONG ANSWER: {w} seed {i + 1}: "
                      f"{res['failed']} of {res['attempted']} failed")
        print(f"round {i + 1}/{args.runs} done after {time.time() - t0:.0f} s",
              file=sys.stderr)

    baseline = {"machine": f"{platform.machine()} {platform.processor()} "
                           f"python {platform.python_version()}",
                "run_seconds": seconds, "runs": args.runs, "seeds": [1, args.runs],
                "workloads": {}}
    for w in names:
        print(f"\n{w}  ({args.runs} runs, seeds 1..{args.runs})")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  unscaled median, spread")
        e2e, unscaled = {}, {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results[w]])
            e2e[name] = {k: v for k, v in s.items() if k != "values"}
            mark = ""
            if s["spread"] > bound:
                mark, ok = "FAIL", False
            elif s["spread"] > bound / 3:
                mark = "wide"
            line = (f"  {name:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                    f"{s['spread']:8.4f} {bound:6.2f} {mark:4s}")
            if name in results[w][0]["unscaled"]:
                u = summarize([r["unscaled"][name] for r in results[w]])
                unscaled[name] = {k: v for k, v in u.items() if k != "values"}
                line += f"  {u['median']:12.6g} {u['spread']:8.4f}"
            print(line)
            print("      runs: " + " ".join(f"{v:.5g}" for v in s["values"]))
        traced = run_once(spec["command"], w, 1, seconds, True)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  traced run: correct={traced['correct']}, "
              f"trace.overhead_ratio={layers['trace.overhead_ratio']:.3f}")
        ok = ok and traced["correct"]
        baseline["workloads"][w] = {"end_to_end": e2e, "unscaled": unscaled,
                                    "per_layer": layers}

    if args.write:
        path = BENCH_DIR / "baseline.json"
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
