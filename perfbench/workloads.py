"""The four workloads: set-up, task lists and the oracles that check answers.

Every workload is a closed loop run by one caller in one thread: the caller
submits a task, waits for its answer, checks it, then submits the next.  A
pass runs the whole task list once.  Set-up (parsing inputs and building the
systems and models the tasks share) is separate from the passes, so work
moved into set-up shows in ``setup_s``.

Calls into fusionwb go through module attributes (``fusion.is_saturated``,
not a name imported once), so that a traced run sees the wrapped functions.

Oracles, each independent of the code path it checks:

* transporter systems F_S(G) are saturated;
* for S abelian with automizer A, the system A generates is saturated if and
  only if p does not divide |A|, and Aut_F(S) has |A| elements; |A| comes
  from closing the matrices in the input generator;
* V4 with GL2(F2) has the Dickson invariants as stable elements, so its
  degree-d dimension is #{(i, j) : 2i + 3j = d};
* stable dimensions equal the Quillen-category dimensions of a group that
  realizes the system (A4 for V4 with an order-3 automizer, S4xC2 for
  F_S(S4xC2));
* the HNN C4 balls have 140/524/1932/7068 elements at r = 3..6, and
  recover_fusion gives back the system the model was built from;
* w w^-1 is the identity, a word with a defining relator spliced in equals
  the word, and reduced pinch-free HNN words and alternating amalgam words
  are not the identity (Britton's lemma, the normal form theorem);
* reduce_word(u) of such a word u is a reduced word for the same element:
  words_equal says it equals u, and it has as many stable letters (HNN), or
  alternating syllables outside the glued subgroups (amalgam), as u.  Every
  reduced form has that many, so the check holds for any normal form, not
  only for the letters the library gives today;
* rendered saturation and stable reports, and HNN balls, hash to the digests
  recorded in reference.json.  Amalgam ball words have no canonical form yet,
  so for those only the ball sizes are recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fusionwb import fusion, groups, io, models, stable

import inputs

REFERENCE_PATH = Path(__file__).with_name("reference.json")
HNN_C4_BALL = {3: 140, 4: 524, 5: 1932, 6: 7068}


class Reference:
    """Answers recorded on the seed commit; record=True collects new ones."""

    def __init__(self, record=False):
        self.record = record
        self.data = {} if record else json.loads(REFERENCE_PATH.read_text())

    def expect(self, key, value):
        """None when value matches the recorded one, else a failure line."""
        if isinstance(value, str):
            value = hashlib.sha256(value.encode()).hexdigest()
        if self.record:
            self.data[key] = value
            return None
        want = self.data.get(key)
        if want is None:
            return f"{key}: no recorded answer"
        if want != value:
            return f"{key}: answer differs from the recorded one"
        return None

    def save(self):
        REFERENCE_PATH.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")


class Task:
    """run() is timed; check(result) is neither timed nor traced, and returns
    a failure or None."""

    __slots__ = ("id", "run", "check")

    def __init__(self, task_id, run, check):
        self.id = task_id
        self.run = run
        self.check = check


class Workload:
    """Base: subclasses fill in setup(), tasks(state) and pass_failures()."""

    name = ""

    def __init__(self, inp, rng, ref, small=False):
        self.inp = inp
        self.rng = rng
        self.ref = ref
        self.small = small
        self.seen = {}            # per-pass answers used by cross-task checks

    def begin_pass(self):
        self.seen = {}

    def pass_failures(self):
        return []


# ---------------------------------------------------------------------------
# fusion-ladder


class FusionLadder(Workload):
    """Build each fusion system from its input text and check saturation."""

    name = "fusion-ladder"

    def _rungs(self):
        rungs = inputs.TRANSPORTER_RUNGS
        if self.small:
            rungs = [r for r in rungs if r[0] in ("F_S4_p2", "F_L32_p2", "F_S3xS3_p3")]
        return rungs

    def _automizers(self):
        # the involution on V4: |A| = 2 at p = 2, the corpus's non-saturated case
        autos = self.inp.automizers + [("G_v4_involution", "v4_involution.fus", 2, 2, True)]
        return autos[:2] if self.small else autos

    def setup(self):
        for _, fname, _ in self._rungs():
            io.load_group(self.inp.path(fname))
        for _, fname, _, _, _ in self._automizers():
            io.load_fusion_spec(self.inp.path(fname))

    def tasks(self, state):
        out = [self._transporter(*r) for r in self._rungs()]
        out += [self._generated(*a) for a in self._automizers()]
        self.rng.shuffle(out)
        return out

    def _transporter(self, task_id, fname, p):
        path = self.inp.path(fname)

        def run():
            G = io.load_group(path)
            F = fusion.fusion_from_group(groups.sylow_p(G, p), G, p=p)
            rep = fusion.is_saturated(F)
            return rep.saturated, io.describe_fusion(F) + "\n" + rep.render()

        def check(result):
            saturated, text = result
            if not saturated:
                return f"{task_id}: transporter system reported unsaturated"
            return self.ref.expect(task_id, text)

        return Task(task_id, run, check)

    def _generated(self, task_id, fname, p, order_a, fixed):
        path = self.inp.path(fname)

        def run():
            F = io.load_fusion_spec(path).fusion()
            rep = fusion.is_saturated(F)
            return (rep.saturated, len(F.aut_set(F.S)),
                    io.describe_fusion(F) + "\n" + rep.render())

        def check(result):
            saturated, n_aut, text = result
            if saturated != (order_a % p != 0):
                return f"{task_id}: verdict {saturated} but |A| = {order_a}, p = {p}"
            if n_aut != order_a:
                return f"{task_id}: |Aut_F(S)| = {n_aut} but |A| = {order_a}"
            return self.ref.expect(task_id, text) if fixed else None

        return Task(task_id, run, check)


# ---------------------------------------------------------------------------
# stable-series


def dickson_dimension(d):
    return sum(1 for j in range(d // 3 + 1) if (d - 3 * j) % 2 == 0)


def render_stable(d, fams):
    """The degree-d block of `fusionwb stable basis`."""
    lines = [f"degree {d}: dimension {len(fams)}"]
    for k, fam in enumerate(fams):
        for s in fam.sites:
            lines.append(f"  [{k}] V={io.format_elems(s.key)} ; "
                         f"{fam.components[s.key].describe()}")
    return "\n".join(lines)


class StableSeries(Workload):
    """stable_basis(F, d) degree by degree on systems built in set-up."""

    name = "stable-series"

    # system -> (input file, top degree); the S4xC2 system is F_S(S4xC2)
    SYSTEMS = {
        "v4_gl2": ("v4_gl2.fus", 24),
        "v4_rho": ("v4_rho.fus", 12),
        "c2e3_singer": ("c2e3_singer_fixed.fus", 8),
        "c3e2_q8": ("c3e2_q8_fixed.fus", 30),
        "s4xc2": ("s4xc2.grp", 8),
        "c2e4_shift": ("c2e4_shift_fixed.fus", 2),
    }
    # realizing group -> (input file, prime, system it realizes, top degree)
    QUILLEN = {
        "a4": ("a4.grp", 2, "v4_rho", 12),
        "s4xc2": ("s4xc2.grp", 2, "s4xc2", 3),
    }

    def _top(self, d):
        return min(d, 2) if self.small else d

    def setup(self):
        systems = {}
        for name, (fname, _) in self.SYSTEMS.items():
            if fname.endswith(".grp"):
                G = io.load_group(self.inp.path(fname))
                systems[name] = fusion.fusion_from_group(groups.sylow_p(G, 2), G, p=2)
            else:
                systems[name] = io.load_fusion_spec(self.inp.path(fname)).fusion()
        realizers = {name: io.load_group(self.inp.path(fname))
                     for name, (fname, _, _, _) in self.QUILLEN.items()}
        return systems, realizers

    def tasks(self, state):
        systems, realizers = state
        out = []
        for name, (_, top) in self.SYSTEMS.items():
            for d in range(self._top(top) + 1):
                out.append(self._basis(name, systems[name], d))
        for name, (_, p, _, top) in self.QUILLEN.items():
            for d in range(self._top(top) + 1):
                out.append(self._quillen(name, realizers[name], p, d))
        self.rng.shuffle(out)
        return out

    def _basis(self, name, F, d):
        task_id = f"stable_{name}_d{d}"

        def run():
            fams = stable.stable_basis(F, d)
            return len(fams), render_stable(d, fams)

        def check(result):
            dim, text = result
            self.seen[("stable", name, d)] = dim
            if name == "v4_gl2" and dim != dickson_dimension(d):
                return f"{task_id}: dimension {dim}, Dickson gives {dickson_dimension(d)}"
            return self.ref.expect(task_id, text)

        return Task(task_id, run, check)

    def _quillen(self, name, G, p, d):
        task_id = f"quillen_{name}_d{d}"

        def run():
            return stable.quillen_limit_finite_group(G, p, d).dimension

        def check(dim):
            self.seen[("quillen", name, d)] = dim
            return None

        return Task(task_id, run, check)

    def pass_failures(self):
        out = []
        for name, (_, _, system, top) in self.QUILLEN.items():
            for d in range(self._top(top) + 1):
                q = self.seen.get(("quillen", name, d))
                s = self.seen.get(("stable", system, d))
                if q is not None and s is not None and q != s:
                    out.append(f"quillen_{name}_d{d}: Quillen dimension {q}, "
                               f"stable dimension of {system} {s}")
        return out


# ---------------------------------------------------------------------------
# models shared by model-balls and word-problem


MODELS = {
    # name -> (input file, kind)
    "hnn_c3": ("c3_inversion.fus", "hnn"),
    "hnn_c4": ("c4_two.fus", "hnn"),
    "amalgam_d8_s4": ("d8_s4.datum", "amalgam"),
    "amalgam_s3_s3": ("s3_s3.datum", "amalgam"),
    "amalgam_l3_2": ("l3_2.datum", "amalgam"),
}


def build_models(inp):
    """name -> (presentation, the fusion system it realizes), as the CLI
    verbs `model hnn` and `model robinson` build them."""
    out = {}
    for name, (fname, kind) in MODELS.items():
        if kind == "hnn":
            spec = io.load_fusion_spec(inp.path(fname))
            S = groups.full_subgroup(spec.group)
            out[name] = (models.hnn_presentation(S, spec.p, spec.phis), spec.fusion())
        else:
            spec = io.load_datum(inp.path(fname))
            if not models.validate_alperin_datum(spec.datum).valid:
                raise ValueError(f"{fname}: generated datum is invalid")
            out[name] = (models.robinson_presentation(spec.datum), spec.fusion)
    return out


class ModelBalls(Workload):
    """ball_enumerate and recover_fusion on the five models."""

    name = "model-balls"

    # (model, radius) pairs; L3(2) recovers all of F already at radius 2
    BALLS = [("hnn_c3", 4), ("hnn_c4", 3), ("hnn_c4", 4), ("hnn_c4", 5),
             ("hnn_c4", 6), ("amalgam_d8_s4", 3), ("amalgam_s3_s3", 7),
             ("amalgam_l3_2", 3)]
    RECOVER = [("hnn_c3", 2), ("hnn_c4", 4), ("amalgam_d8_s4", 3),
               ("amalgam_s3_s3", 7), ("amalgam_l3_2", 2)]

    def setup(self):
        return build_models(self.inp)

    def tasks(self, state):
        balls = self.BALLS
        if self.small:
            balls = [b for b in balls if b not in (("hnn_c4", 6), ("amalgam_l3_2", 3))]
        out = [self._ball(m, r, state[m][0]) for m, r in balls]
        out += [self._recover(m, r, *state[m]) for m, r in self.RECOVER]
        self.rng.shuffle(out)
        return out

    def _ball(self, name, r, pres):
        task_id = f"ball_{name}_r{r}"

        def run():
            return models.ball_enumerate(pres, r)

        def check(ball):
            if name == "hnn_c4" and r in HNN_C4_BALL and len(ball) != HNN_C4_BALL[r]:
                return f"{task_id}: {len(ball)} elements, expected {HNN_C4_BALL[r]}"
            bad = self.ref.expect(task_id + "_size", len(ball))
            if bad or pres.kind != "hnn":
                return bad
            return self.ref.expect(task_id, "\n".join(w.display() for w in ball))

        return Task(task_id, run, check)

    def _recover(self, name, r, pres, F):
        task_id = f"recover_{name}_r{r}"

        def run():
            return fusion.fusion_equal(models.recover_fusion(pres, F.S, r), F)

        def check(equal):
            return None if equal else f"{task_id}: recovered fusion differs from F"

        return Task(task_id, run, check)


# ---------------------------------------------------------------------------
# word-problem


class WordProblem(Workload):
    """Seeded single-word decisions on the HNN and amalgam models.

    Kinds, with the answer each must give:
      identity   is_identity(w w^-1)            -> True
      nontrivial is_identity(u)                 -> False
      relator    words_equal(w, w with r spliced in) -> True
      unequal    words_equal(w, w u)            -> False
      reduce     reduce_word(u)                 -> a reduced word equal to u
    where w is a random word, r a defining relator and u a reduced
    pinch-free (HNN) or alternating (amalgam) word.  Finite models get only
    the identity and relator kinds.
    """

    name = "word-problem"
    DECISIONS = 10_000

    def __init__(self, inp, rng, ref, small=False):
        super().__init__(inp, rng, ref, small)
        # the word texts are inputs: drawn once, parsed by every set-up
        data = inp.models
        combos = [(name, kind) for name in MODELS
                  for kind in (("identity", "nontrivial", "relator", "unequal", "reduce")
                               if inputs.infinite(data[name]) else ("identity", "relator"))]
        per = 100 if small else -(-self.DECISIONS // len(combos))
        rels = {name: inputs.relators(data[name]) for name in MODELS}
        self.decisions = [(name, kind, self._make(rng, kind, data[name], rels[name]))
                          for name, kind in combos for _ in range(per)]

    def setup(self):
        built = build_models(self.inp)
        return [io.parse_word(built[name][0], t) for name, _, texts in self.decisions
                for t in texts]

    @staticmethod
    def _make(rng, kind, model, rels):
        ws = inputs.word_text
        if kind == "identity":
            w = inputs.random_word(rng, model)
            return [ws(w + inputs.inverse(w))]
        if kind in ("nontrivial", "reduce"):
            return [ws(inputs.nontrivial_word(rng, model))]
        w = inputs.random_word(rng, model, max_len=8)
        if kind == "relator":
            k = rng.randint(0, len(w))
            return [ws(w), ws(w[:k] + rng.choice(rels) + w[k:])]
        return [ws(w), ws(w + inputs.nontrivial_word(rng, model))]

    def tasks(self, state):
        words = iter(state)
        out = []
        for k, (name, kind, texts) in enumerate(self.decisions):
            out.append(self._decision(f"{kind}_{name}_{k}", kind,
                                      [next(words) for _ in texts],
                                      self.inp.models[name]))
        self.rng.shuffle(out)
        return out

    @staticmethod
    def _decision(task_id, kind, words, model):
        if kind == "identity":
            w, = words
            return Task(task_id, lambda: models.is_identity(w),
                        lambda ok: None if ok else f"{task_id}: w w^-1 is not 1")
        if kind == "nontrivial":
            u, = words
            return Task(task_id, lambda: models.is_identity(u),
                        lambda ok: f"{task_id}: reduced word is 1" if ok else None)
        if kind == "reduce":
            u, = words

            def check_reduced(r):
                got, want = reduced_length(model, r), reduced_length(model, u)
                if got != want:
                    return f"{task_id}: reduce_word gave reduced length {got}, not {want}"
                if not models.words_equal(r, u):
                    return f"{task_id}: reduce_word changed the element"
                return None

            return Task(task_id, lambda: models.reduce_word(u), check_reduced)
        v, w = words
        if kind == "relator":
            return Task(task_id, lambda: models.words_equal(v, w),
                        lambda ok: None if ok else f"{task_id}: relator changed the word")
        return Task(task_id, lambda: models.words_equal(v, w),
                    lambda ok: f"{task_id}: w equals w u for u != 1" if ok else None)


def reduced_length(model, word):
    """Stable letters of an HNN word, or letters of an amalgam word outside
    the glued subgroups; for an amalgam, None when those letters do not
    alternate between factors.  Letters inside the glued subgroups may sit
    anywhere, as a normal form may put one in front.

    Works from the benchmark's own model data (inputs.py), not the library.
    """
    names = [word.model.generators[g] for g, _ in word.letters]
    if model["kind"] == "hnn":
        return sum(1 for name in names if name.startswith("t"))
    glued = dict(model["proper"])
    factors = []
    for name in names:
        fi, x = name[1:].split(".g")
        fi, x = int(fi), int(x)
        if fi not in glued or x in glued[fi]:
            continue
        if factors and factors[-1] == fi:
            return None
        factors.append(fi)
    return len(factors)


WORKLOADS = {cls.name: cls for cls in (FusionLadder, StableSeries, ModelBalls, WordProblem)}
