"""Infinite group models realizing a fusion system, with a decidable word problem.

Two constructions are emitted: an iterated HNN extension of S (one stable
letter per generating morphism) and an iterated amalgam of finite groups over
the S-normalizers prescribed by an Alperin datum.  Both are fundamental groups
of graphs of groups (Serre, *Trees*), and a presentation is its graph: the
vertex groups ((S,) for the HNN extension, (L_1, ..., L_k) for the amalgam)
with the generator naming each vertex element, and one edge per stable letter
or per amalgam edge.  The relators, the alphabet and the path that each
generator spells are read off the graph.  A letter of factor i >= 2 is the
path e_i x e_i^-1 through the tree edge e_i, which is not a generator.

One engine reduces words in both models: a stack-based pinch loop, on each
letter's steps compiled once per presentation (the lookup of a letter among
them is its only check), gives the reduced path, pushing coset parts leftward
through the edge subgroups, by a coset transversal tabulated once per edge
half, gives its normal form (Lyndon-Schupp, *Combinatorial Group Theory*,
Ch. IV), and an emitter spells either path back in letters.  A reduced path
that crosses an edge is never trivial, which is what makes the identity test
sound.  The ball grows by multiplying on the left, which in that normal form
changes only the head of a path: each element is its head syllable and an
interned tail, and a letter multiplies the head or prepends one crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    MalformedWord,
    MismatchedBase,
    RadiusBoundExceeded,
    WorkbenchError,
)
from .fusion import conjugation_homs, fusion_equal, generate_fusion, out_f
from .groups import (
    Group,
    InjHom,
    Subgroup,
    centralizer,
    conjugation_array,
    conjugations,
    full_subgroup,
    is_isomorphic,
    lattice,
    normalizer,
    p_part,
    quotient_group,
    sylow_p,
)

MAX_RADIUS = 8


# ---------------------------------------------------------------------------
# presentations and words


class _Half(NamedTuple):
    """One direction of a graph edge, from vertex `depart` to vertex `arrive`.

    `sub` maps the edge subgroup at `arrive` to its copy at `depart`, and
    `transversal[s]`, for each s of the vertex group at `arrive`, is the pair
    (rep, pushed) with rep = min(a * s), a in the edge subgroup, the
    representative of the coset of s, and pushed = sub[s * rep^-1], the part
    of s that crosses to `depart`.
    """

    depart: int
    arrive: int
    sub: dict
    letter: tuple | None      # (generator, exponent); None on a tree edge
    transversal: tuple


def _transversal(L, sub):
    """The `_Half.transversal` table of an edge subgroup `sub` of L."""
    reps = L.table[list(sub)].min(axis=0).tolist()
    carried = L.table[np.arange(L.order), [L.inv(r) for r in reps]]
    return tuple(zip(reps, map(sub.__getitem__, carried.tolist())))


class Presentation:
    """A finitely presented group model of kind 'hnn' or 'amalgam'."""

    def __init__(self, kind, generators, p, s_group, s_embed,
                 vertices, vertex_letters, graph_edges, name="G"):
        """`vertex_letters[v]` maps each element of `vertices[v]` but 1 to its
        generator.  `graph_edges` lists (inner, outer, phi, back, generator) with
        t^-1 u t = phi(u) for u in the edge subgroup of vertex inner, back
        the inverse of phi, and generator None for a tree edge."""
        self.kind = kind
        self.generators = tuple(generators)
        self.name = name
        # io.parse_word's table: "name^1", "name^-1" -> (generator, exponent)
        self.tokens = {f"{g}^{e}": (i, e)
                       for i, g in enumerate(self.generators) for e in (1, -1)}
        self.p = p
        self.s_group = s_group
        self.s_embed = tuple(s_embed)
        self.s_back = {y: x for x, y in enumerate(self.s_embed)}
        # graph of groups: half 2j crosses edge j as t^-1, half 2j + 1 as t;
        # paths[generator, exponent] lists (half or None, table, element)
        # steps, each crossing its half, then multiplying at the arrival;
        # rows[v] is vertex v's table as lists, read by every scalar loop
        self.vertices = tuple(vertices)
        self.rows = rows = tuple(L.table.tolist() for L in self.vertices)
        self.vertex_letters = tuple(vertex_letters)
        self.graph_edges = tuple(graph_edges)
        halves, self.paths, tree = [], {}, {}
        for j, (inner, outer, phi, back, gid) in enumerate(self.graph_edges):
            halves.append(_Half(outer, inner, phi,
                                None if gid is None else (gid, -1),
                                _transversal(vertices[inner], phi)))
            halves.append(_Half(inner, outer, back,
                                None if gid is None else (gid, 1),
                                _transversal(vertices[outer], back)))
            if gid is None:
                tree[inner] = j
            else:
                self.paths[gid, -1] = ((2 * j, rows[inner], 0),)
                self.paths[gid, 1] = ((2 * j + 1, rows[outer], 0),)
        self.halves = tuple(halves)
        root = rows[0]
        for v, letters in enumerate(vertex_letters):
            L = vertices[v]
            for x, gid in letters.items():
                for exp, y in ((1, x), (-1, L.inv(x))):
                    self.paths[gid, exp] = (
                        ((None, root, y),) if v == 0 else
                        ((2 * tree[v], rows[v], y), (2 * tree[v] + 1, root, 0)))
        # steps[letter] compiles paths[letter] for _extend: h, h ^ 1, the edge
        # map of h ^ 1, table, and x as its column s -> table[s][x] (or None)
        columns = [tuple(zip(*table)) for table in rows]
        self.steps = {letter: tuple(
            (h, h ^ 1, halves[h ^ 1].sub, table,
             columns[halves[h].arrive][x] if x else None) if h is not None
            else (None, None, None, table, columns[0][x])
            for h, table, x in path) for letter, path in self.paths.items()}
        self.inverse_steps = {(g, e): self.steps[g, -e] for g, e in self.steps}
        self.relators = tuple(ModelWord(self, r) for r in self._relators())

    def _relators(self):
        """x y (xy)^-1 over each vertex group, then t^-1 u t phi(u)^-1 on
        each generator edge and x back(x)^-1 on each tree edge."""
        for L, t, letters in zip(self.vertices, self.rows,
                                 self.vertex_letters):
            for a in range(L.order):
                for b in range(L.order):
                    yield tuple((letters[x], 1)
                                for x in (a, b, L.inv(t[a][b])) if x)
        for inner, outer, phi, back, gid in self.graph_edges:
            # vertex_letters has no letter for 1, so .get gives None there
            at, to = self.vertex_letters[inner], self.vertex_letters[outer]
            L = self.vertices[outer]
            for x in sorted(back if gid is None else phi):
                if gid is None:
                    steps = ((to.get(x), 1), (at.get(back[x]), -1))
                else:
                    steps = ((gid, -1), (at.get(x), 1), (gid, 1),
                             (to.get(L.inv(phi[x])), 1))
                yield tuple(step for step in steps if step[0] is not None)

    def word(self, letters):
        return ModelWord(self, tuple(letters))

    def s_word(self, elems):
        """Word spelling a product of S-elements."""
        letters = self.vertex_letters[0]
        return ModelWord(self, tuple((letters[self.s_embed[x]], 1)
                                     for x in elems if x))

    def __repr__(self):
        return (f"Presentation({self.kind}, {len(self.generators)} generators, "
                f"{len(self.relators)} relators)")


class ModelWord:
    """A word over a presentation: the value (model, letters), with letters
    a tuple of (generator, exponent) pairs."""

    __slots__ = ("model", "letters")

    def __init__(self, model, letters):
        self.model = model
        self.letters = letters

    def __eq__(self, other):
        if not isinstance(other, ModelWord):
            return NotImplemented
        return (self.model, self.letters) == (other.model, other.letters)

    def __hash__(self):
        return hash((self.model, self.letters))

    def __repr__(self):
        return f"ModelWord(model={self.model!r}, letters={self.letters!r})"

    def __len__(self):
        return len(self.letters)

    def check(self):
        for letter in self.letters:
            if not isinstance(letter, tuple) or len(letter) != 2:
                raise MalformedWord(
                    f"letter {letter!r} is not a (generator, exponent) pair")
            gid, exp = letter
            if gid not in range(len(self.model.generators)):
                raise MalformedWord(f"letter {gid} out of range")
            if exp not in (1, -1):
                raise MalformedWord(f"exponent {exp} must be +-1")
        return self

    def inverse(self):
        return ModelWord(self.model,
                         tuple((gid, -exp) for gid, exp in reversed(self.letters)))

    def concat(self, other):
        if other.model is not self.model:
            raise MalformedWord("words over different presentations")
        return ModelWord(self.model, self.letters + other.letters)

    def display(self):
        names = self.model.generators
        return " ".join(f"{names[g]}^{e}" for g, e in self.letters)


# ---------------------------------------------------------------------------
# reduction on the graph of groups


def _extend(svals, ts, word, steps, letters):
    """Append the steps of `letters` to the pinch-free path s_0 h_1 .. h_k s_k
    in place.  The lookup in `steps`, compiled once per presentation, is the
    letter check: on a miss, `word`, as written, raises MalformedWord."""
    s = svals.pop()           # the top syllable s_k
    try:
        for letter in letters:
            for h, back, sub, table, column in steps[letter]:
                if h is not None:
                    if ts and ts[-1] == back and s in sub:
                        # pinch: s crosses back through h^1, merges left
                        ts.pop()
                        s = table[svals.pop()][sub[s]]
                    else:
                        ts.append(h)
                        svals.append(s)
                        s = 0
                if column is not None:
                    s = column[s]
    except (KeyError, TypeError):
        word.check()
        raise
    svals.append(s)


def _reduced_path(word):
    """Syllables s_0..s_k and halves h_1..h_k of the word's pinch-free path."""
    svals, ts = [0], []
    _extend(svals, ts, word, word.model.steps, word.letters)
    return svals, ts


def _canonical(m, svals, ts):
    """Push coset parts leftward: each s_j becomes its coset representative
    in the edge subgroup before it, and the part it drops crosses that edge."""
    halves, rows = m.halves, m.rows
    for j in range(len(ts), 0, -1):
        half = halves[ts[j - 1]]
        svals[j], pushed = half.transversal[svals[j]]
        there = rows[half.depart]
        svals[j - 1] = there[svals[j - 1]][pushed]


def _emit(m, svals, ts):
    """Letters of a path: one per nontrivial syllable and per stable letter."""
    letters = []
    v = 0
    for j, s in enumerate(svals):
        if s:
            letters.append((m.vertex_letters[v][s], 1))
        if j < len(ts):
            half = m.halves[ts[j]]
            if half.letter:
                letters.append(half.letter)
            v = half.arrive
    return tuple(letters)


def _reduce(word, canonical=False):
    svals, ts = _reduced_path(word)
    if canonical:
        _canonical(word.model, svals, ts)
    return ModelWord(word.model, _emit(word.model, svals, ts))


_reduce_hnn = _reduce     # the name perfbench/smoke.py calls


# ---------------------------------------------------------------------------
# public word operations


def reduce_word(word):
    """A pinch-free form of the same element."""
    return _reduce(word)


def is_identity(word):
    svals, ts = _reduced_path(word)
    return not ts and svals[0] == 0


def words_equal(u, v):
    """Whether u v^-1 is trivial: u's path, then v's letters read backwards."""
    if v.model is not u.model:
        raise MalformedWord("words over different presentations")
    svals, ts = _reduced_path(u)
    _extend(svals, ts, v, u.model.inverse_steps, reversed(v.letters))
    return not ts and svals[0] == 0


def base_element_of(word):
    """The S-element a word represents, or None if it lies outside S."""
    svals, ts = _reduced_path(word)
    return None if ts else word.model.s_back.get(svals[0])


# ---------------------------------------------------------------------------
# emitters


def hnn_presentation(S, p, phis):
    """HNN extension of S with one stable letter per morphism in phis."""
    base = S.parent
    if S.elements != tuple(range(base.order)):
        raise ValueError("S must be the full subgroup of its p-group")
    if p_part(base.order, p) != base.order:
        raise ValueError(f"|S| = {base.order} is not a power of {p}")
    names = [f"g{k}" for k in range(1, base.order)]
    edges = []
    for i, phi in enumerate(phis, start=1):
        if phi.source.parent != base or phi.target.parent != base:
            raise ValueError("morphism does not live on S")
        forward = dict(zip(phi.source.elements, phi.images))
        edges.append((0, 0, forward, {y: x for x, y in forward.items()},
                      len(names)))
        names.append(f"t{i}")
    return Presentation("hnn", names, p, base, range(base.order), (base,),
                        ({k: k - 1 for k in range(1, base.order)},), edges,
                        name=f"HNN({base.name})")


def amalgam_presentation(factors, edges, s_group, s_embed, p, name="Amalgam"):
    """Star amalgam of finite factors over identified subgroups of factor 1,
    each inside the copy s_embed(S) of S; `edges[i]` maps the identified
    subgroup of factor 1 into factor i."""
    if not factors or sorted(edges) != list(range(2, len(factors) + 1)):
        raise ValueError("an amalgam needs a first factor and one attachment "
                         "for each further factor")
    if not all(set(e) <= set(s_embed) for e in edges.values()):
        raise ValueError("an attached subgroup does not lie in s_embed(S)")
    names, letters = [], []
    for fi, L in enumerate(factors, start=1):
        letters.append({k: len(names) + k - 1 for k in range(1, L.order)})
        names.extend(f"L{fi}.g{k}" for k in range(1, L.order))
    tree = [(fi - 1, 0, {y: x for x, y in edges[fi].items()}, dict(edges[fi]),
             None) for fi in sorted(edges)]
    return Presentation("amalgam", names, p, s_group, s_embed, factors,
                        letters, tree, name=name)


# ---------------------------------------------------------------------------
# Alperin data and the Robinson amalgam


@dataclass(frozen=True)
class AlperinEntry:
    P: Subgroup               # subgroup of the S-group
    L: Group
    iota: InjHom              # N_S(P) -> L (full target)


class AlperinDatum:
    """The (P_i, L_i, iota_i) list feeding the amalgam construction."""

    def __init__(self, F, entries):
        if not entries:
            raise ValueError("entry list must be nonempty")
        if entries[0].P != F.S:
            raise ValueError("the first entry must have P_1 = S")
        for e in entries:
            N = normalizer(F.group, e.P)
            if e.iota.source != N:
                raise ValueError(
                    f"iota source {list(e.iota.source.elements)} is not "
                    f"N_S(P) = {list(N.elements)}")
            if e.iota.target != full_subgroup(e.L):
                raise ValueError("iota target must be the whole of L")
        self.F = F
        self.entries = tuple(entries)


@dataclass(frozen=True)
class DatumFailure:
    entry: int
    clause: str
    detail: str

    def describe(self):
        where = f"entry {self.entry}" if self.entry >= 0 else "datum"
        return f"{self.clause} at {where}: {self.detail}"


@dataclass
class AlperinReport:
    failures: list = field(default_factory=list)

    @property
    def valid(self):
        return not self.failures

    def render(self):
        if self.valid:
            return "valid Alperin datum"
        return "\n".join(["INVALID Alperin datum"]
                         + ["  " + f.describe() for f in self.failures])


class DatumInvalid(WorkbenchError):
    def __init__(self, report):
        self.report = report
        super().__init__(report.render())


def p_core(G, p):
    """O_p(G), the intersection of all Sylow p-subgroups: the elements of
    one Sylow p-subgroup whose every conjugate stays in it."""
    P = sylow_p(G, p)
    stays = np.isin(conjugation_array(G)[:, list(P.elements)],
                    P.elements).all(axis=0)
    return Subgroup(G, np.compress(stays, P.elements).tolist())


def _pullback_morphisms(F, entry):
    """F_{N_S(P)}(L) pulled back through iota, as morphisms on S-subgroups."""
    iota = entry.iota
    key = iota.source.elements           # N_S(P)
    inside = F.lattice.below[key] + [F.subgroup(key)]
    return conjugation_homs(entry.L, dict(zip(key, iota.images)), inside)


def validate_alperin_datum(datum):
    """Check every clause of the Alperin-datum definition, with witnesses."""
    F = datum.F
    p = F.p
    failures = []
    # (source, images) -> the first map pulled back with them: conjugation
    # lists a map once per subgroup that holds its image
    pulled_back = {}
    stored = {key: set(homs) for key, homs in F.homsets.items()}
    conj = conjugations(F.group)
    for i, e in enumerate(datum.entries, start=1):
        iota_p = {e.iota.image_of(x) for x in e.P.elements}
        core = p_core(e.L, p)
        if iota_p != core.as_set():
            failures.append(DatumFailure(
                i, "PCoreFailure",
                f"iota(P) = {sorted(iota_p)} but O_{p}(L) = "
                f"{list(core.elements)}"))
        iota_psub = Subgroup(e.L, sorted(iota_p))
        cent = centralizer(e.L, iota_psub)
        # Z(P): the g in P listed under P's identity key, C_S(P)
        z_img = {e.iota.image_of(g)
                 for g in conj[e.P.elements][e.P.elements] if g in e.P}
        if cent.as_set() != z_img:
            failures.append(DatumFailure(
                i, "CentralizerFailure",
                f"C_L(iota(P)) = {list(cent.elements)} but iota(Z(P)) = "
                f"{sorted(z_img)}"))
        if e.iota.source.order != p_part(e.L.order, p):   # N_S(P)
            failures.append(DatumFailure(
                i, "SylowEmbeddingFailure",
                f"|N_S(P)| = {e.iota.source.order} is not the {p}-part of "
                f"|L| = {e.L.order}"))
        try:
            quot, _ = quotient_group(e.L, iota_psub)
            outer = out_f(F, e.P)
            if not is_isomorphic(quot, outer):
                failures.append(DatumFailure(
                    i, "OuterQuotientFailure",
                    f"L/iota(P) of order {quot.order} is not isomorphic to "
                    f"Out_F(P) of order {outer.order}"))
        except ValueError as exc:
            failures.append(DatumFailure(i, "OuterQuotientFailure", str(exc)))
        pulled = _pullback_morphisms(F, e)
        for h in pulled:
            if h.images not in stored[h.source.elements]:   # Hom_F(P, S)
                failures.append(DatumFailure(
                    i, "SubfusionFailure",
                    f"pulled-back morphism {h!r} is not in F"))
                break
        else:
            for h in pulled:
                pulled_back.setdefault((h.source.elements, h.images), h)
    if not failures:
        generated = generate_fusion(F.S, p, list(pulled_back.values()))
        if not fusion_equal(generated, F):
            failures.append(DatumFailure(
                -1, "GenerationFailure",
                "the pulled-back subsystems do not generate F"))
    return AlperinReport(failures)


def robinson_presentation(datum):
    """The iterated amalgam of the L_i over the N_S(P_i), left-associated."""
    report = validate_alperin_datum(datum)
    if not report.valid:
        raise DatumInvalid(report)
    F = datum.F
    iota1 = datum.entries[0].iota
    edges = {fi: {iota1.image_of(x): e.iota.image_of(x)
                  for x in e.iota.source.elements}        # N_S(P)
             for fi, e in enumerate(datum.entries[1:], start=2)}
    return amalgam_presentation(
        [e.L for e in datum.entries], edges,
        s_group=F.group,
        s_embed=[iota1.image_of(x) for x in F.S.elements],
        p=F.p,
        name="Robinson(" + ",".join(e.L.name for e in datum.entries) + ")")


# ---------------------------------------------------------------------------
# ball enumeration and fusion recovery


def _alphabet(pres):
    """Every generator, and the inverse of every stable letter."""
    stable = {edge[4] for edge in pres.graph_edges}
    return [(gid, e) for gid in range(len(pres.generators)) for e in (1, -1)
            if e == 1 or gid in stable]


def _check_radius(radius):
    if radius < 0:
        raise ValueError(f"radius {radius} is negative")
    if radius > MAX_RADIUS:
        raise RadiusBoundExceeded(f"radius {radius} exceeds {MAX_RADIUS}")


def _spell(letters):
    """The letters, and a string whose characters sort as they do: one
    character 2 * generator + (exponent == 1) per letter."""
    return letters, "".join(chr(2 * gid + (exp == 1)) for gid, exp in letters)


def ball_enumerate(pres, radius):
    """Normal forms of all elements spelled by <= radius letters.

    In the normal form s_0 h_1 s_1 ... h_k s_k, s_0 is free and each later
    s_j is its coset's representative modulo the edge subgroup before it,
    so multiplying on the left by a letter changes only the head of the
    path: the rest stays a normal form.  The ball is the set of words of
    length <= radius, so it grows from the left as well as from the right.
    Each element is held as s_0 and an interned tail (h_1, s_1, rest), and
    a letter acts as its path's steps in reverse: s_0 <- x s_0, or prepend
    a half h, where h s_0 pinches against a tail that starts with h^1 when
    s_0 lies in h's edge subgroup, and otherwise s_0 = a * rep sends a
    across h and rep heads the new tail.  Each tail is spelled once, when
    it is interned."""
    _check_radius(radius)
    vertices = pres.vertices
    # each letter's steps in reverse, each (row, h, h ^ 1, transversal,
    # depart table, spellings): s_0 <- row[s_0] unless row is None, then
    # prepend half h unless h is None, where spellings[rep] spells the
    # letters that a new node (h, rep, rest) puts before rest's
    steps = {}
    for h, half in enumerate(pres.halves):
        steps[h] = (h, h ^ 1, half.transversal, pres.rows[half.depart],
                    [_spell(_emit(pres, (0, rep), (h,)))
                     for rep in range(vertices[half.arrive].order)])
    steps[None] = (None,) * 5
    programs = [tuple((table[x] if x else None,) + steps[h]
                      for h, table, x in reversed(pres.paths[letter]))
                for letter in _alphabet(pres)]
    # tail 0 is the empty path; tail i > 0 is the node (head[i], syl[i],
    # rest[i]), spelled[i] and keys[i] its letters as _spell gives them,
    # and nodes[(rest * n_halves + head) * width + syl] names it
    head, syl, rest, spelled, keys = [-1], [0], [0], [()], [""]
    nodes = {}
    n_halves = len(pres.halves)
    width = max(L.order for L in vertices)
    n0 = vertices[0].order
    seen = {0}                # tail * n0 + s_0, s_0 at the root
    frontier = [0]
    for _ in range(radius):
        nxt = []
        for code in frontier:
            t0, s0 = divmod(code, n0)
            for program in programs:
                s, tail = s0, t0
                for row, h, back, transversal, depart, spellings in program:
                    if row is not None:
                        s = row[s]
                    if h is None:
                        continue
                    rep, pushed = transversal[s]
                    if not rep and head[tail] == back:
                        # pinch: rep = 0, so s lies in the edge subgroup;
                        # it crosses h and merges with the tail's first
                        # syllable
                        s = depart[pushed][syl[tail]]
                        tail = rest[tail]
                        continue
                    slot = (tail * n_halves + h) * width + rep
                    node = nodes.get(slot)
                    if node is None:
                        node = nodes[slot] = len(head)
                        word, key = spellings[rep]
                        head.append(h)
                        syl.append(rep)
                        rest.append(tail)
                        spelled.append(word + spelled[tail])
                        keys.append(key + keys[tail])
                    s, tail = pushed, node
                code = tail * n0 + s
                if code not in seen:
                    seen.add(code)
                    nxt.append(code)
        frontier = nxt
    heads = [_spell(_emit(pres, (s,), ())) for s in range(n0)]
    words, order = [], []
    for code in seen:
        tail, s = divmod(code, n0)
        word, key = heads[s]
        word += spelled[tail]
        words.append(word)
        order.append(chr(len(word)) + key + keys[tail])
    # by length, then letters; the keys differ as the words do
    return [ModelWord(pres, words[i])
            for i in sorted(range(len(words)), key=order.__getitem__)]


def recover_fusion(pres, S, radius):
    """Conjugation fusion on S seen inside the model, out to the given radius.

    By Britton's lemma the letters' maps c_a: x -> a x a^-1 generate it: c_w
    composes the c_a along w's reduced spelling, no longer than w, and where
    c_w(x) is in S so is each partial conjugate (an HNN syllable lies in S,
    an amalgam path crosses only attached subgroups, which lie in S).  So
    every radius >= 1 gives one system, and radius 0 gives F_S(S).
    `model verify` and `corpus check` recover once, at radius 1; the radius
    argument stays only for callers that pass one."""
    _check_radius(radius)
    if pres.s_group != S.parent or S.elements != tuple(range(S.parent.order)):
        raise MismatchedBase("S does not match the model's embedded copy")
    xs = [pres.s_word([x]).letters for x in S.elements]
    maps = []
    for gid, exp in _alphabet(pres) if radius else ():
        conj = [base_element_of(pres.word(((gid, exp),) + x + ((gid, -exp),)))
                for x in xs]
        domain = tuple(x for x, y in enumerate(conj) if y is not None)
        maps.append(InjHom(lattice(S.parent).by_key[domain], S,
                           [conj[x] for x in domain], _trusted=True))
    return generate_fusion(S, pres.p, maps)


# ---------------------------------------------------------------------------
# seeded word generators for the property suites


def word_from_syllables(pres, svals, ts):
    """Build an HNN word from alternating S-values and stable letters."""
    halves = [2 * i + (e == 1) for i, e in ts]
    return ModelWord(pres, _emit(pres, list(svals), halves))


def random_pinch_free_word(pres, rng):
    """A random pinch-free HNN word with one to four stable letters."""
    stable = [j for j, edge in enumerate(pres.graph_edges)
              if edge[4] is not None]
    if not stable:
        raise ValueError(f"{pres.name} has no stable letter, and a "
                         f"pinch-free HNN word needs one")
    base = pres.s_group
    k = rng.randint(1, 4)
    svals = [rng.randrange(base.order)]
    ts = []
    for _ in range(k):
        i = stable[rng.randrange(len(stable))]
        e = rng.choice((1, -1))
        if ts:
            ip, ep = ts[-1]
            if ip == i and ep == -e:
                # the syllable pinches if it lies in the edge subgroup that
                # the last letter arrived in: phi's domain after t^-1, its
                # image after t
                _, _, phi, back, _ = pres.graph_edges[i]
                bad = phi if ep == -1 else back
                good = [x for x in base.elements() if x not in bad]
                if good:
                    svals[-1] = rng.choice(good)
                else:
                    e = ep
        ts.append((i, e))
        svals.append(rng.randrange(base.order))
    return word_from_syllables(pres, svals, ts)


def random_word(pres, rng, max_letters=10):
    """A uniformly random letter string over the model's alphabet."""
    alphabet = _alphabet(pres)
    n = rng.randint(0, max_letters)
    return ModelWord(pres, tuple(rng.choice(alphabet) for _ in range(n)))
