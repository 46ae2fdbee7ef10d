"""Benchmark of fusionwb: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
there, never from an installed copy.  Workloads are described in
BENCHMARK.json and in workloads.py.

With ``--trace 0`` the run sets up SETUP_REPEATS times, then repeats passes
over the task list until the next pass would end after ``--seconds``, and
reports the end-to-end metrics:

    setup_s      median time to import fusionwb in a fresh interpreter, plus
                 the median set-up (parse inputs, build the systems and models
                 the tasks share), both scaled as below
    wall_s       time to finish the task list once: the sum over tasks of
                 each task's median latency across the passes
    peak_rss_mb  peak resident set size of the process
    task_p50_ms  median over tasks of each task's median latency
    task_p99_ms  99th percentile over tasks of each task's median latency

Taking each task's median across passes first keeps a burst of load from
another process, which lands in one pass, out of every figure.  The medians
are taken over the last MAX_PASSES passes.

The set-up state that every task reads is frozen out of the garbage
collector's view during the passes (gc.freeze), as a CLI invocation's heap
holds only its own task's inputs, and the collector runs, untimed, after
every task, so that the garbage one task leaves is not collected in the time
of whichever task the shuffled order puts next.

Times are scaled to a reference machine speed, so the end-to-end "s" and
"ms" are seconds of a core that runs the probe below in PROBE_REFERENCE_S;
per-layer self times are not scaled.  On a shared machine the speed of one
core swings by a fifth or more within a second, as other tenants load its
sibling hyperthread, and every interpreter-bound loop swings with it
(baseline.json holds the spreads of the same ten runs with and without the
scaling).  A speed probe (SpeedProbe: subgroup closures on a fixed
64-element table, the benchmark's own code, about 1 ms) interrupts the
work every PROBE_INTERVAL seconds; its time is taken out of the task it
interrupted, and each task's time is multiplied by PROBE_REFERENCE_S over
the mean of the last probe time before the task and those measured while it
ran.  The probe calls no fusionwb code and runs with the garbage collector
off, but it shares the process and the caches with the library, so a change
that grows the library's working set a lot can slow the probe a little and
make the scaled times read low; the "unscaled:" line prints the same
figures unscaled to show it.

With ``--trace 1`` it spends half of ``--seconds`` on untraced passes and
half on traced ones (set-up traced once), and reports the per-layer metrics
of tracing.py.  Spans go to perfbench/out/<workload>-spans.tsv.

Every answer is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
MAX_PASSES = 64
MAX_REPORTED_FAILURES = 10
PROBE_INTERVAL = 0.05
PROBE_REFERENCE_S = 0.001


def _probe_table():
    """Multiplication table of C4 x C4 x C4."""
    def digits(a):
        return a // 16, a // 4 % 4, a % 4
    return [[sum(((x + y) % 4) * w for x, y, w in zip(digits(a), digits(b), (16, 4, 1)))
             for b in range(64)] for a in range(64)]


class SpeedProbe:
    """Tracks the core's speed by timing a fixed kernel every PROBE_INTERVAL.

    Inside ``with probe:`` a SIGALRM timer interrupts the work between two
    bytecodes, runs the kernel, and books its time as stolen, so that it can
    be taken out of the work it interrupted.  Long tasks are thus scaled by
    the speed measured while they ran, not only before and after.
    """

    def __init__(self):
        self.table = _probe_table()
        self.samples = array.array("d")
        self.stolen = 0.0

    def _kernel(self):
        t = self.table
        found = set()
        for a in range(0, 64, 6):
            for b in range(1, 64, 5):
                elems, frontier = {0}, []
                for x in (a, b):
                    if x not in elems:
                        elems.add(x)
                        frontier.append(x)
                gens = list(frontier)
                while frontier:
                    nxt = []
                    for x in frontier:
                        row = t[x]
                        for g in gens:
                            y = row[g]
                            if y not in elems:
                                elems.add(y)
                                nxt.append(y)
                    frontier = nxt
                found.add(tuple(sorted(elems)))
        return len(found)

    def _sample(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.stolen += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples), self.stolen, time.perf_counter()

    def since(self, mark):
        """(raw, scaled) seconds of work since mark, probe time taken out.

        The scale is the reference probe time over the mean of the last
        probe before the mark and every probe since.
        """
        n0, stolen0, t0 = mark
        stolen = self.stolen
        raw = time.perf_counter() - t0 - (stolen - stolen0)
        during = self.samples[n0 - 1:]
        return raw, raw * PROBE_REFERENCE_S * len(during) / sum(during)


LIBRARY_MODULES = ("catalog", "cohomology", "fusion", "groups", "io", "linalg",
                   "models", "stable")


def import_library():
    """Import fusionwb from the checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "fusionwb" / "__init__.py").is_file():
        sys.exit(f"error: no fusionwb sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import fusionwb
    if Path(fusionwb.__file__).resolve().parent != (src / "fusionwb").resolve():
        sys.exit(f"error: imported fusionwb from {fusionwb.__file__}, not {src}")
    for name in LIBRARY_MODULES:
        importlib.import_module(f"fusionwb.{name}")


def import_seconds():
    """Median (unscaled, scaled) time to import the library in a fresh
    interpreter.

    Each interpreter then times the speed probe five times, and its import
    time is scaled by the median of those like every other time.  The
    interpreter gets OPENBLAS_NUM_THREADS=1: fusionwb calls no BLAS routine,
    and starting the BLAS thread pool doubles the spread of numpy's import.
    """
    code = "\n".join([
        "import sys, time",
        "t = time.perf_counter()",
        f"from fusionwb import {', '.join(LIBRARY_MODULES)}",
        "t = time.perf_counter() - t",
        f"sys.path.insert(0, {str(BENCH_DIR)!r})",
        "from run import SpeedProbe",
        "probe = SpeedProbe()",
        "for _ in range(5):",
        "    probe._sample()",
        "print(t, sorted(probe.samples)[2])",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        seconds, probe_s = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * PROBE_REFERENCE_S / probe_s)
    return statistics.median(raw), statistics.median(scaled)


class Tally:
    """Tasks attempted and failed, over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.probe = SpeedProbe()

    def fail(self, line):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(line)


class Latencies:
    """Each task's scaled and unscaled latency in the last MAX_PASSES passes.

    The buffers are allocated and written in full before the first pass, so
    the benchmark's own memory is the same however many passes fit in a run.
    """

    def __init__(self, n_tasks):
        self.scaled = np.full((MAX_PASSES, n_tasks), np.nan, dtype=np.float32)
        self.raw = np.full((MAX_PASSES, n_tasks), np.nan, dtype=np.float32)
        self.passes = 0

    def next_rows(self):
        k = self.passes % MAX_PASSES
        self.passes += 1
        return self.scaled[k], self.raw[k]

    def medians(self, raw=False):
        """Each task's median latency, in task-list order, as float64."""
        rows = (self.raw if raw else self.scaled)[:min(self.passes, MAX_PASSES)]
        return np.median(rows.astype(np.float64), axis=0)


def run_passes(workload, tasks, seconds, tally, tracer=None):
    """Repeat passes until the next one would end after `seconds`; at least
    one.  Returns the Latencies of the passes."""
    perf = time.perf_counter
    lat = Latencies(len(tasks))
    gc.collect()
    gc.freeze()
    try:
        start = perf()
        with tally.probe as probe:
            while True:
                pass_s = _one_pass(workload, tasks, tally, tracer, probe, lat, perf)
                if perf() - start + pass_s > seconds:
                    return lat
    finally:
        gc.unfreeze()


def _one_pass(workload, tasks, tally, tracer, probe, lat, perf):
    gc.collect()
    workload.begin_pass()
    scaled, raw = lat.next_rows()
    t_pass = perf()
    for k, task in enumerate(tasks):
        if tracer is not None:
            tracer.task += 1
        mark = probe.mark()
        try:
            result = task.run()
            error = None
        except Exception as exc:          # noqa: BLE001 - counted, run goes on
            error = f"{task.id}: {type(exc).__name__}: {exc}"
        raw[k], scaled[k] = probe.since(mark)
        tally.attempted += 1
        if error is None:
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                error = task.check(result)
        if error:
            tally.fail(error)
        gc.collect()
    for bad in workload.pass_failures():
        tally.fail(bad)
    return perf() - t_pass


def main(argv=None):
    import_library()
    import inputs
    import tracing
    import workloads

    names = sorted(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = BENCH_DIR / "_work" / str(os.getpid())
    try:
        inp = inputs.Inputs(work, args.seed)
        workload = workloads.WORKLOADS[args.workload](
            inp, random.Random(f"{args.workload}:{args.seed}"), workloads.Reference())
        tally = Tally()
        if args.trace:
            metrics, units = traced_run(workload, args, tally, tracing)
        else:
            metrics, units = untraced_run(workload, args, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for line in tally.failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{tally.attempted} tasks, {tally.failed} failed")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def untraced_run(workload, args, tally):
    import_raw, import_scaled = import_seconds()
    raw_setup, setup = [], []
    with tally.probe as probe:
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            mark = probe.mark()
            state = workload.setup()
            raw_s, scaled_s = probe.since(mark)
            raw_setup.append(raw_s)
            setup.append(scaled_s)
    tasks = workload.tasks(state)
    lat = run_passes(workload, tasks, args.seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def times(import_s, setup_s, med):
        return {"setup_s": import_s + statistics.median(setup_s),
                "wall_s": float(med.sum()),
                "task_p50_ms": float(np.median(med)) * 1e3,
                "task_p99_ms": float(np.percentile(med, 99)) * 1e3}

    values = dict(times(import_scaled, setup, lat.medians()), peak_rss_mb=peak_rss_mb)
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "task_p50_ms": "ms", "task_p99_ms": "ms"}
    metrics = {name: values[name] for name in units}
    print("unscaled: " + json.dumps(times(import_raw, raw_setup, lat.medians(raw=True))))
    print(f"speed probe: median {statistics.median(probe.samples) * 1e3:.4f} ms "
          f"over {len(probe.samples)} samples, reference {PROBE_REFERENCE_S * 1e3} ms")
    print(f"samples: {lat.passes} passes of {len(tasks)} tasks "
          f"(medians over the last {min(lat.passes, MAX_PASSES)}), "
          f"{SETUP_REPEATS} set-ups")
    return metrics, units


def traced_run(workload, args, tally, tracing):
    state = workload.setup()
    untraced = run_passes(workload, workload.tasks(state), args.seconds / 2, tally)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = None
        state = workload.setup()
        after_setup = tracer.snapshot()
        traced = run_passes(workload, workload.tasks(state), args.seconds / 2, tally,
                            tracer)
        after_passes = tracer.snapshot()
    finally:
        tracer.uninstall()
    overhead = traced.medians().sum() / untraced.medians().sum()
    metrics = tracer.layer_metrics(after_setup, after_passes, traced.passes,
                                   float(overhead))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{workload.name}-spans.tsv")
    for target, reason in tracer.absent.items():
        print(f"absent: {target}: {reason}; its metrics read 0", file=sys.stderr)
    print(f"per-layer values: one traced set-up plus the mean of {traced.passes} "
          f"traced passes ({untraced.passes} untraced passes for the overhead ratio)",
          file=sys.stderr)
    return metrics, {name: tracing.metric_unit(name) for name in metrics}


if __name__ == "__main__":
    sys.exit(main())
