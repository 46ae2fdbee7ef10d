"""Per-layer tracing from outside the library.

The tracer wraps named public functions of fusionwb.  A function is wrapped
by rebinding its name in every ``fusionwb`` module that holds it (``subgroups``
is imported into fusion, models, corpus and cli, and the library's own calls
look the name up at call time), and a method by replacing it on its class.
The library's files are not touched.

Each call is a span: name, start, duration, self time and the span and task
that caused it.  Self time is the duration minus the time spent in wrapped
children.  Spans are kept in memory, up to a cap, and written out when the
run ends; the per-function totals are kept for every call, so the cap does
not bias them.  Work counters are read from the arguments and return values
of a few wrapped calls, after the call's span has ended and with tracing
paused; the benchmark's answer checks run paused too.  The run's speed
probe (run.SpeedProbe) still interrupts traced work, so self times include
about two per cent of probe time; they are not scaled by it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Layers are the package's modules.  catalog only builds inputs; cli, corpus
# and report get no workload.
SPAN_CAP = 50_000         # spans kept in memory; totals count every call

LAYERS = ("groups", "fusion", "models", "cohomology", "stable", "linalg", "io")

TARGETS = (
    "groups.subgroups", "groups.closure", "groups.normalizer",
    "groups.centralizer", "groups.elementary_abelians", "groups.Group.__init__",
    "fusion.fusion_from_group", "fusion.generate_fusion",
    "fusion.FusionSystem.__init__", "fusion.transporter", "fusion.is_saturated",
    "models.ball_enumerate", "models.recover_fusion", "models.base_element_of",
    "models.words_equal", "models.is_identity", "models.reduce_word",
    "models.validate_alperin_datum", "models.robinson_presentation",
    "cohomology.restrict_element", "cohomology.cohomology_basis",
    "stable.stable_basis", "stable.fusion_ea_morphisms",
    "stable.quillen_limit_finite_group",
    "linalg.nullspace", "linalg.rref",
    "io.parse_group", "io.parse_fusion_spec", "io.parse_datum",
)

COUNTERS = (
    "groups.subgroups.count", "fusion.morphisms_stored", "fusion.classes",
    "models.ball_size", "models.ball_size_per_words_equal",
    "stable.sites", "stable.morphisms",
    "linalg.equations", "linalg.unknowns", "linalg.rank",
)


def _morphisms_stored(F):
    return sum(len(v) for v in F.homsets.values())


# target -> (args, result) -> {counter: increment}
HOOKS = {
    "groups.subgroups": lambda a, r: {"groups.subgroups.count": len(r)},
    "fusion.fusion_from_group":
        lambda a, r: {"fusion.morphisms_stored": _morphisms_stored(r)},
    "fusion.generate_fusion":
        lambda a, r: {"fusion.morphisms_stored": _morphisms_stored(r)},
    "fusion.is_saturated":
        lambda a, r: {"fusion.classes": len(a[0].conjugacy_classes())},
    "models.ball_enumerate": lambda a, r: {"models.ball_size": len(r)},
    "stable.fusion_ea_morphisms":
        lambda a, r: {"stable.sites": len(r[0]), "stable.morphisms": len(r[1])},
    "linalg.nullspace": lambda a, r: {
        "linalg.equations": len(a[0]), "linalg.unknowns": a[1],
        "linalg.rank": a[1] - len(r)},
}


def metric_names():
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for target in TARGETS:
        names += [f"{target}.calls", f"{target}.self_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += list(COUNTERS)
    names.append("trace.overhead_ratio")
    return names


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("per_words_equal"):
        return "ratio"
    return "count"


class Tracer:
    """Installs wrappers around TARGETS and accumulates spans and totals."""

    def __init__(self):
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []           # (id, parent id, task, target, start, dur, self)
        self.spans_dropped = 0
        self.task = -1
        self.absent = {}          # target -> reason it could not be wrapped
        self._stack = []          # [span id, time in wrapped children]
        self._next_id = 0
        self._paused = False
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fusionwb"
                                         or name.startswith("fusionwb."))]
        for idx, target in enumerate(TARGETS):
            mod_name, *path = target.split(".")
            owner = sys.modules.get(f"fusionwb.{mod_name}")
            try:
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                orig = getattr(owner, path[-1])
            except AttributeError:
                self.absent[target] = "not defined in this version of fusionwb"
                continue
            wrapper = self._wrap(idx, orig, HOOKS.get(target))
            if len(path) > 1:             # a method: replace it on its class
                self._rebind(owner, path[-1], wrapper)
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, attr, wrapper)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    @contextlib.contextmanager
    def paused(self):
        """Wrapped functions called inside are neither timed nor counted."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, idx, fn, hook):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                own = dur - frame[1]
                self.calls[idx] += 1
                self.self_s[idx] += own
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, self.task, idx, t0, dur, own))
                else:
                    self.spans_dropped += 1
            if hook is not None:
                with self.paused():
                    for key, inc in hook(args, result).items():
                        self.counters[key] += inc
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results ------------------------------------------------------------

    def snapshot(self):
        return (list(self.calls), list(self.self_s), dict(self.counters))

    def layer_metrics(self, setup, passes, n_passes, overhead_ratio):
        """One traced set-up plus the average of the traced passes.

        setup and passes are snapshots; passes is taken after the passes and
        so includes the set-up, which is subtracted here.
        """
        calls0, self0, count0 = setup
        calls1, self1, count1 = passes
        per = 1.0 / max(n_passes, 1)
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for idx, target in enumerate(TARGETS):
            c = calls0[idx] + (calls1[idx] - calls0[idx]) * per
            s = self0[idx] + (self1[idx] - self0[idx]) * per
            out[f"{target}.calls"] = c
            out[f"{target}.self_s"] = s
            layer_self[target.split(".")[0]] += s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for key in COUNTERS:
            out[key] = count0[key] + (count1[key] - count0[key]) * per
        eq = out["models.words_equal.calls"]
        out["models.ball_size_per_words_equal"] = (
            out["models.ball_size"] / eq if eq else 0.0)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span\tparent\ttask\tname\tstart_s\tdur_s\tself_s\n")
            if self.spans:
                origin = self.spans[0][4]
                for sid, parent, task, idx, t0, dur, own in self.spans:
                    fh.write(f"{sid}\t{parent}\t{task}\t{TARGETS[idx]}\t"
                             f"{t0 - origin:.9f}\t{dur:.9f}\t{own:.9f}\n")
            if self.spans_dropped:
                fh.write(f"# {self.spans_dropped} later spans not kept "
                         f"(cap {SPAN_CAP}); totals include them\n")
