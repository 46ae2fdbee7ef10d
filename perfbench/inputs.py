"""Seeded input generator for the benchmark.

Every input reaches fusionwb as text in the repository's own formats:
``.grp`` group files, ``.fus`` generator files and ``.datum`` Alperin data,
plus word lines in the ``name^1 name^-1`` syntax of ``.pres`` files.  The
same seed always writes the same bytes.  What the seed changes is chosen so
that the amount of work does not: it conjugates the automizers of the
generated systems by a random invertible matrix (an isomorphic system, with
the same number of subgroups, morphisms and classes), draws the random words,
and shuffles the order of every task list.

The generator may call fusionwb to compute inputs (a Sylow subgroup, the
normalizers in L3(2)), but it runs before any timing or tracing starts.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from fusionwb import catalog, groups, io


# ---------------------------------------------------------------------------
# text writers


def _elems(xs):
    return "[" + ",".join(str(x) for x in xs) + "]"


def table_text(name, table):
    lines = [f"group {name} order {len(table)}", "mode table"]
    lines += [" ".join(str(x) for x in row) for row in table]
    return "\n".join(lines) + "\n"


def _cycles(perm):
    seen, parts = set(), []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc, j = [i], perm[i]
        seen.add(i)
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts)


def perm_text(name, order, gens):
    lines = [f"group {name} order {order}", "mode perm"]
    lines += [_cycles(g) for g in gens]
    return "\n".join(lines) + "\n"


def fus_text(p, grp_file, phis):
    """phis: (source elements, target elements, images) triples."""
    lines = [f"fusion p={p} S={grp_file}"]
    for src, tgt, images in phis:
        lines.append(f"phi: {_elems(src)} -> {_elems(tgt)} ; "
                     f"images={_elems(images)}")
    return "\n".join(lines) + "\n"


def datum_text(p, grp_file, entries):
    """entries: (P elements, L file or 'S', iota images, N_S(P)) tuples."""
    lines = [f"alperin p={p} fusion=group:{grp_file}"]
    for P, L, iota, _ in entries:
        lines.append(f"entry P={_elems(P)} L={L} iota={_elems(iota)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# elementary abelian groups and their automorphism matrices
#
# Element a of C_p^n is the vector of its base-p digits, most significant
# first, which is the numbering catalog.elementary uses.


def _vec(a, p, n):
    out = []
    for _ in range(n):
        out.append(a % p)
        a //= p
    return tuple(reversed(out))


def _index(v, p):
    a = 0
    for x in v:
        a = a * p + x
    return a


def vector_table(p, n):
    q = p ** n
    vecs = [_vec(a, p, n) for a in range(q)]
    return [[_index(tuple((x + y) % p for x, y in zip(vecs[a], vecs[b])), p)
             for b in range(q)] for a in range(q)]


def _mat_mul(a, b, p):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p
                       for j in range(n)) for i in range(n))


def _det(m, p):
    m = [list(r) for r in m]
    n, det = len(m), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def _mat_inv(m, p):
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] % p)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def random_gl(rng, p, n):
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if _det(m, p):
            return m


def matrix_group_order(mats, p):
    """|<mats>|, by closing the matrices under multiplication."""
    n = len(mats[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in mats:
                y = _mat_mul(x, g, p)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def matrix_images(m, p):
    """Images of every element of C_p^n under x -> m x."""
    n = len(m)
    out = []
    for a in range(p ** n):
        v = _vec(a, p, n)
        out.append(_index(tuple(sum(m[i][j] * v[j] for j in range(n)) % p
                                for i in range(n)), p))
    return out


# Automizer types on C_p^n: name, p, n, generator matrices, conjugated.
# The seed conjugates the cheap ones by a random matrix.  |A|, the verdict and
# the number of morphisms are conjugation invariants, but the order in which
# generate_fusion meets the morphisms is not, and on C2^4 that moves its time
# by up to a fifth; the two dearest types therefore stay fixed.
AUTOMIZERS = [
    ("c2e3_singer", 2, 3, [((0, 0, 1), (1, 0, 1), (0, 1, 0))], True),
    ("c2e3_cycle", 2, 3, [((0, 0, 1), (1, 0, 0), (0, 1, 0))], True),
    ("c2e3_transvection", 2, 3, [((1, 1, 0), (0, 1, 0), (0, 0, 1))], True),
    ("c2e3_frobenius", 2, 3, [((0, 0, 1), (1, 0, 1), (0, 1, 0)),
                              ((1, 0, 0), (0, 0, 1), (0, 1, 1))], False),
    ("c2e4_shift", 2, 4, [((0, 0, 0, 1), (1, 0, 0, 0),
                           (0, 1, 0, 0), (0, 0, 1, 0))], False),
    ("c3e2_q8", 3, 2, [((0, 2), (1, 0)), ((1, 1), (1, 2))], True),
    ("c3e2_singer", 3, 2, [((0, 1), (1, 1))], True),
    ("c3e2_sl", 3, 2, [((1, 1), (0, 1)), ((1, 0), (1, 1))], True),
    ("c3e2_unipotent", 3, 2, [((1, 1), (0, 1))], True),
]


# ---------------------------------------------------------------------------
# groups


def psl27_generators():
    """PSL(2,7) on the projective line: x -> x+1 and x -> -1/x (7 = inf)."""
    def shift(x):
        return 7 if x == 7 else (x + 1) % 7

    def invert(x):
        if x == 7:
            return 0
        if x == 0:
            return 7
        return (-pow(x, -1, 7)) % 7

    return [tuple(shift(x) for x in range(8)), tuple(invert(x) for x in range(8))]


def _s3xs3_generators():
    return [(1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5),
            (0, 1, 2, 4, 5, 3), (0, 1, 2, 4, 3, 5)]


def _table_groups():
    C2, C4 = catalog.cyclic(2), catalog.cyclic(4)
    dp = catalog.direct_product
    return {
        "c2": C2, "c3": catalog.cyclic(3), "c4": C4,
        "v4": catalog.klein_four(),
        "s3": catalog.symmetric(3), "s4": catalog.symmetric(4),
        "a4": catalog.alternating4(),
        "d8xc2": dp(catalog.dihedral8(), C2),
        "q8xc2": dp(catalog.quaternion8(), C2),
        "sl23xc2": dp(catalog.sl23(), C2),
        "c4xc4": dp(C4, C4),
        "s4xc2": dp(catalog.symmetric(4), C2),
        "c2e4": catalog.elementary(2, 4),
        "q8xc4": dp(catalog.quaternion8(), C4),
        "c4xc4xc2": dp(dp(C4, C4), C2),
    }


# (task id, group file, prime) for the transporter rungs of fusion-ladder
TRANSPORTER_RUNGS = [
    ("F_S4_p2", "s4.grp", 2),
    ("F_D8xC2_p2", "d8xc2.grp", 2),
    ("F_Q8xC2_p2", "q8xc2.grp", 2),
    ("F_SL23xC2_p2", "sl23xc2.grp", 2),
    ("F_C4xC4_p2", "c4xc4.grp", 2),
    ("F_S4xC2_p2", "s4xc2.grp", 2),
    ("F_C2e4_p2", "c2e4.grp", 2),
    ("F_Q8xC4_p2", "q8xc4.grp", 2),
    ("F_C4xC4xC2_p2", "c4xc4xc2.grp", 2),
    ("F_L32_p2", "l3_2.grp", 2),
    ("F_S3xS3_p3", "s3xs3.grp", 3),
    ("F_S3xS3_p2", "s3xs3.grp", 2),
]


# ---------------------------------------------------------------------------
# Alperin data


def _klein_fours(Sgroup):
    return [V for V in groups.subgroups(Sgroup)
            if V.order == 4 and all(Sgroup.element_order(x) <= 2
                                    for x in V.elements)]


def _is_normal(G, H):
    hset = H.as_set()
    return all(G.conj(g, x) in hset for g in G.elements() for x in H.elements)


def _robinson_s4(s4_text):
    """Entries (D8, D8, id), (V4, S4, incl) of the datum realizing F_{D8}(S4)."""
    G = io.parse_group(s4_text)
    S = groups.sylow_p(G, 2)
    Sgroup = groups.subgroup_as_group(S)
    emb = S.elements
    full = tuple(range(Sgroup.order))
    entries = [(full, "S", full, full)]
    for V in _klein_fours(Sgroup):
        if _is_normal(G, groups.Subgroup(G, [emb[x] for x in V.elements])):
            N = groups.normalizer(Sgroup, V)
            entries.append((V.elements, "s4.grp", [emb[x] for x in N.elements],
                            N.elements))
    return entries


def _robinson_l32(l32_text):
    """F_{D8}(L3(2)) as S4 *_{D8} S4: the D8 entry, then N_L(V) for both V4s.

    Each N_L(V) ~ S4 is written as its own table file; iota sends N_S(V) to
    its position in that table.
    """
    G = io.parse_group(l32_text)
    S = groups.sylow_p(G, 2)
    Sgroup = groups.subgroup_as_group(S)
    emb = S.elements
    full = tuple(range(Sgroup.order))
    entries, files = [(full, "S", full, full)], {}
    for k, V in enumerate(_klein_fours(Sgroup), start=1):
        NG = groups.normalizer(G, groups.Subgroup(G, [emb[x] for x in V.elements]))
        pos = {x: i for i, x in enumerate(NG.elements)}
        L = groups.subgroup_as_group(NG)
        fname = f"l3_2_n{k}.grp"
        files[fname] = table_text(f"N{k}_L3(2)", L.table)
        NS = groups.normalizer(Sgroup, V)
        entries.append((V.elements, fname, [pos[emb[x]] for x in NS.elements],
                        NS.elements))
    return entries, files, Sgroup


def _s3_star_s3(s3_text):
    G = io.parse_group(s3_text)
    S = groups.sylow_p(G, 3)
    full = tuple(range(S.order))
    return [(full, "s3.grp", S.elements, full)] * 2


# ---------------------------------------------------------------------------
# the generator


class Inputs:
    """All generated input files of one seed, plus what the oracles need."""

    def __init__(self, directory, seed):
        self.dir = Path(directory)
        self.rng = random.Random(seed)
        self.files = {}
        self.automizers = []      # (task id, fus file, p, |A|, fixed)
        self.models = {}          # model name -> word-generation data
        self._write_groups()
        self._write_fusion()
        self._write_data()
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.dir / name).write_text(text)

    def path(self, name):
        return self.dir / name

    def _write_groups(self):
        for name, G in _table_groups().items():
            self.files[f"{name}.grp"] = table_text(G.name, G.table)
        self.files["l3_2.grp"] = perm_text("L3(2)", 168, psl27_generators())
        self.files["s3xs3.grp"] = perm_text("S3xS3", 36, _s3xs3_generators())
        for p, n in ((2, 3), (2, 4), (3, 2)):
            self.files[f"c{p}e{n}_vec.grp"] = table_text(
                f"C{p}^{n}", vector_table(p, n))

    def _write_fusion(self):
        for name, p, n, mats, conjugate in AUTOMIZERS:
            full = tuple(range(p ** n))
            grp = f"c{p}e{n}_vec.grp"
            # stable-series uses the unconjugated systems
            self.files[f"{name}_fixed.fus"] = fus_text(
                p, grp, [(full, full, matrix_images(m, p)) for m in mats])
            if conjugate:
                g = random_gl(self.rng, p, n)
                gi = _mat_inv(g, p)
                mats = [_mat_mul(_mat_mul(g, m, p), gi, p) for m in mats]
                self.files[f"{name}.fus"] = fus_text(
                    p, grp, [(full, full, matrix_images(m, p)) for m in mats])
            fname = f"{name}.fus" if conjugate else f"{name}_fixed.fus"
            self.automizers.append((f"G_{name}", fname, p,
                                    matrix_group_order(mats, p), not conjugate))
        v4 = (0, 1, 2, 3)
        self.files["v4_involution.fus"] = fus_text(2, "v4.grp", [(v4, v4, (0, 2, 1, 3))])
        self.files["v4_rho.fus"] = fus_text(2, "v4.grp", [(v4, v4, (0, 2, 3, 1))])
        self.files["v4_gl2.fus"] = fus_text(
            2, "v4.grp", [(v4, v4, (0, 2, 3, 1)), (v4, v4, (0, 2, 1, 3))])
        c3 = (0, 1, 2)
        self.files["c3_inversion.fus"] = fus_text(3, "c3.grp", [(c3, c3, (0, 2, 1))])
        c4 = (0, 1, 2, 3)
        self.files["c4_two.fus"] = fus_text(
            2, "c4.grp", [((0, 2), c4, (0, 2)), (c4, c4, (0, 3, 2, 1))])
        self.models["hnn_c3"] = _hnn_data(catalog.cyclic(3).table,
                                          [(c3, (0, 2, 1))])
        self.models["hnn_c4"] = _hnn_data(catalog.cyclic(4).table,
                                          [((0, 2), (0, 2)), (c4, (0, 3, 2, 1))])

    def _write_data(self):
        s4_entries = _robinson_s4(self.files["s4.grp"])
        self.files["d8_s4.datum"] = datum_text(2, "s4.grp", s4_entries)
        l32_entries, l32_files, l32_S = _robinson_l32(self.files["l3_2.grp"])
        self.files.update(l32_files)
        self.files["l3_2.datum"] = datum_text(2, "l3_2.grp", l32_entries)
        s3_entries = _s3_star_s3(self.files["s3.grp"])
        self.files["s3_s3.datum"] = datum_text(3, "s3.grp", s3_entries)

        s4 = io.parse_group(self.files["s4.grp"])
        s4_S = groups.subgroup_as_group(groups.sylow_p(s4, 2))
        s3 = io.parse_group(self.files["s3.grp"])
        self.models["amalgam_d8_s4"] = _amalgam_data(
            s4_S, s4_entries, {"s4.grp": s4})
        self.models["amalgam_s3_s3"] = _amalgam_data(
            s3, s3_entries, {"s3.grp": s3})
        self.models["amalgam_l3_2"] = _amalgam_data(
            l32_S, l32_entries,
            {f: io.parse_group(t) for f, t in l32_files.items()})


# ---------------------------------------------------------------------------
# word data: what the word generators need, from the inputs alone


def _hnn_data(table, phis):
    """phis: (source elements, images) pairs on S = the whole table group."""
    return {"kind": "hnn", "table": table,
            "stables": [(tuple(src), dict(zip(src, imgs))) for src, imgs in phis]}


def _amalgam_data(first, entries, loaded):
    """Factor tables and edge maps of the Robinson amalgam of a datum.

    Factor 1 is L_1; factor i >= 2 is glued to it along N_S(P_i), identified
    through iota_1 and iota_i.  first is L_1 when entry 1 has L=S.
    """
    tables = [first.table if L == "S" else loaded[L].table
              for _, L, _, _ in entries]
    iota1 = entries[0][2]
    edges = {fi: {iota1[x]: iota[k] for k, x in enumerate(N)}
             for fi, (_, _, iota, N) in enumerate(entries[1:], start=2)}
    # the part of each factor that is glued to another factor
    glued = [set().union(*(set(left) for left in edges.values()))]
    glued += [set(left.values()) for left in edges.values()]
    proper = [(fi, g) for fi, g in enumerate(glued, start=1)
              if len(g) < len(tables[fi - 1])]
    return {"kind": "amalgam", "tables": tables, "edges": edges,
            "proper": proper}


def relators(model):
    """Defining relators of the model, as (name, exponent) letter lists."""
    out = []
    if model["kind"] == "hnn":
        t = model["table"]
        n = len(t)
        for a, b in itertools.product(range(1, n), repeat=2):
            c = t[a][b]
            word = [(f"g{a}", 1), (f"g{b}", 1)]
            if c:
                word.append((f"g{c}", -1))
            out.append(word)
        for i, (src, phi) in enumerate(model["stables"], start=1):
            for u in src:
                if u:
                    word = [(f"t{i}", -1), (f"g{u}", 1), (f"t{i}", 1)]
                    word.append((f"g{phi[u]}", -1))
                    out.append(word)
        return out
    for fi, t in enumerate(model["tables"], start=1):
        n = len(t)
        for a, b in itertools.product(range(1, n), repeat=2):
            c = t[a][b]
            word = [(f"L{fi}.g{a}", 1), (f"L{fi}.g{b}", 1)]
            if c:
                word.append((f"L{fi}.g{c}", -1))
            out.append(word)
    for fi, left in model["edges"].items():
        for x, y in left.items():
            if x:
                out.append([(f"L1.g{x}", 1), (f"L{fi}.g{y}", -1)])
    return out


def alphabet(model):
    if model["kind"] == "hnn":
        n = len(model["table"])
        return ([f"g{k}" for k in range(1, n)]
                + [f"t{i}" for i in range(1, len(model["stables"]) + 1)])
    return [f"L{fi}.g{k}" for fi, t in enumerate(model["tables"], start=1)
            for k in range(1, len(t))]


def random_word(rng, model, max_len=10):
    names = alphabet(model)
    return [(rng.choice(names), rng.choice((1, -1)))
            for _ in range(rng.randint(1, max_len))]


def nontrivial_word(rng, model):
    """A word that is not the identity, already in reduced form.

    HNN: a pinch-free word with 1-4 stable letters and folded S-syllables
    (Britton's lemma).  Amalgam: letters alternating between two factors,
    each outside the amalgamated subgroup (the normal form theorem).
    """
    if model["kind"] == "hnn":
        n = len(model["table"])
        stables = model["stables"]
        svals = [rng.randrange(n)]
        ts = []
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(stables))
            e = rng.choice((1, -1))
            if ts and ts[-1][0] == i and ts[-1][1] == -e:
                src, phi = stables[i]
                # t^-1 s t pinches for s in P; t s t^-1 pinches for s in phi(P)
                bad = set(src) if e == 1 else set(phi.values())
                good = [x for x in range(n) if x not in bad]
                if good:
                    svals[-1] = rng.choice(good)
                else:
                    e = -e
            ts.append((i, e))
            svals.append(rng.randrange(n))
        word = []
        for k, s in enumerate(svals):
            if s:
                word.append((f"g{s}", 1))
            if k < len(ts):
                word.append((f"t{ts[k][0] + 1}", ts[k][1]))
        return word
    sides = model["proper"][:2]
    start = rng.randrange(2)
    word = []
    for k in range(rng.randint(2, 8)):
        fi, amalgamated = sides[(start + k) % 2]
        n = len(model["tables"][fi - 1])
        x = rng.choice([y for y in range(1, n) if y not in amalgamated])
        word.append((f"L{fi}.g{x}", 1))
    return word


def infinite(model):
    """Whether the model has words of unbounded reduced length.

    An amalgam needs two factors larger than their glued subgroups; the
    D8 *_{D8} S4 model has one and is just S4.
    """
    return model["kind"] == "hnn" or len(model["proper"]) >= 2


def word_text(word):
    return " ".join(f"{name}^{e}" for name, e in word)


def inverse(word):
    return [(name, -e) for name, e in reversed(word)]
