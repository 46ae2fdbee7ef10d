import functools
import random
import re

import pytest
from ball_oracle import (
    reference_ball,
    reference_recover_fusion,
    reference_reduce,
    reference_reduced_path,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionwb import models
from fusionwb.catalog import (
    BUILDERS,
    cyclic,
    dihedral8,
    direct_product,
    elementary,
    klein_four,
    symmetric,
)
from fusionwb.corpus import corpus_dir
from fusionwb.errors import MalformedWord, MismatchedBase, RadiusBoundExceeded
from fusionwb.fusion import (
    fusion_equal,
    fusion_from_group,
    generate_fusion,
    is_subfusion,
)
from fusionwb.groups import (
    InjHom,
    Subgroup,
    build_group_from_permutations,
    full_subgroup,
    lattice,
    normalizer,
    subgroup_as_group,
    sylow_p,
)
from fusionwb.io import load_datum, parse_word
from fusionwb.models import (
    AlperinDatum,
    AlperinEntry,
    DatumInvalid,
    _alphabet,
    _reduce,
    ball_enumerate,
    base_element_of,
    hnn_presentation,
    is_identity,
    p_core,
    random_pinch_free_word,
    random_word,
    recover_fusion,
    reduce_word,
    robinson_presentation,
    validate_alperin_datum,
    word_from_syllables,
    words_equal,
)


@pytest.fixture(scope="module")
def c3_model():
    C3 = cyclic(3)
    S = full_subgroup(C3)
    inv = InjHom(S, S, [0, 2, 1])
    return S, inv, hnn_presentation(S, 3, [inv])


@pytest.fixture(scope="module")
def c4_model():
    C4 = cyclic(4)
    S = full_subgroup(C4)
    half = Subgroup(C4, (0, 2))
    phis = [InjHom(half, S, (0, 2)), InjHom(S, S, (0, 3, 2, 1))]
    return S, hnn_presentation(S, 2, phis)


@pytest.fixture(scope="module")
def robinson_s4():
    spec = load_datum(corpus_dir() / "d8_s4.datum")
    return spec.fusion, spec.datum, robinson_presentation(spec.datum)


# ---------------------------------------------------------------------------
# emitters


def test_hnn_c3_shape(c3_model):
    _, _, m = c3_model
    assert m.generators == ("g1", "g2", "t1")
    assert len(m.relators) == 9 + 3


def test_hnn_v4_rho_shape():
    V4 = klein_four()
    S = full_subgroup(V4)
    m = hnn_presentation(S, 2, [InjHom(S, S, [0, 2, 3, 1])])
    assert len(m.generators) == 3 + 1
    assert len(m.relators) == 16 + 4


def test_hnn_no_morphisms_is_s_itself():
    D8 = dihedral8()
    S = full_subgroup(D8)
    m = hnn_presentation(S, 2, [])
    assert len(m.generators) == 7
    assert len(ball_enumerate(m, 2)) <= 8
    assert len(ball_enumerate(m, 4)) == 8


def test_robinson_relator_count(robinson_s4):
    _, _, m = robinson_s4
    assert len(m.generators) == 7 + 23
    assert len(m.relators) == 8 * 8 + 24 * 24 + 8


def test_robinson_single_entry_is_l1():
    D8 = dihedral8()
    F = fusion_from_group(full_subgroup(D8), D8, p=2)
    iota = InjHom(F.S, F.S, F.S.elements)
    datum = AlperinDatum(F, [AlperinEntry(F.S, F.group, iota)])
    m = robinson_presentation(datum)
    assert len(m.vertices) == 1 and not m.graph_edges
    assert len(ball_enumerate(m, 3)) == 8


def test_amalgam_over_whole_group_collapses():
    D8 = dihedral8()
    F = fusion_from_group(full_subgroup(D8), D8, p=2)
    iota = InjHom(F.S, F.S, F.S.elements)
    datum = AlperinDatum(F, [AlperinEntry(F.S, F.group, iota),
                             AlperinEntry(F.S, F.group, iota)])
    m = robinson_presentation(datum)
    single = hnn_presentation(F.S, 2, [])
    for r in range(4):
        assert len(ball_enumerate(m, r)) == len(ball_enumerate(single, r))


# ---------------------------------------------------------------------------
# word problem


def test_reduce_pinch(c3_model):
    _, _, m = c3_model
    tid = m.graph_edges[0][4]
    w = m.word([(tid, -1), (m.vertex_letters[0][1], 1), (tid, 1)])
    r = reduce_word(w)
    assert base_element_of(r) == 2      # the inverse of x


def test_free_cancellation(c3_model):
    _, _, m = c3_model
    tid = m.graph_edges[0][4]
    assert is_identity(m.word([(tid, 1), (tid, -1)]))
    assert not is_identity(m.word([(tid, 1)]))


def test_word_is_its_model_and_letters(c3_model, c4_model):
    _, _, m = c3_model
    _, other = c4_model
    letters = ((0, 1), (2, -1))
    u, v = m.word(letters), m.word(list(letters))
    assert u == v and u is not v
    assert hash(u) == hash(v) and len({u, v}) == 1
    assert u != m.word(letters[:1])
    assert other.word(letters) != u
    assert (u == (m, letters)) is False and u != (m, letters)
    assert repr(u) == f"ModelWord(model={m!r}, letters={letters!r})"
    assert repr(m.word([])) == f"ModelWord(model={m!r}, letters=())"
    assert len(u) == 2 and len(m.word([])) == 0
    assert u.display() == "g1^1 t1^-1" and m.word([]).display() == ""
    assert u.inverse() == m.word([(2, 1), (0, -1)])
    assert u.concat(u.inverse()).letters == letters + ((2, 1), (0, -1))
    assert u.concat(u).model is m
    with pytest.raises(MalformedWord,
                       match="^words over different presentations$"):
        u.concat(other.word(letters))
    assert u.check() is u
    with pytest.raises(MalformedWord, match="^letter 99 out of range$"):
        m.word([(99, 1)]).check()


def test_every_constructor_gives_a_word_of_a_letter_tuple(c4_model,
                                                          robinson_s4):
    _, m = c4_model
    amalgam = robinson_s4[2]
    rng = random.Random(3)
    words = [m.word([(0, 1), (3, -1)]), m.word(map(tuple, [[0, 1], [3, -1]])),
             m.s_word([1, 2]), reduce_word(random_word(m, rng, 12)),
             random_word(m, rng), random_pinch_free_word(m, rng),
             word_from_syllables(m, [1, 2, 0], [(0, 1), (1, -1)]),
             parse_word(m, "g1^1 t1^-1"), parse_word(m, ""),
             reduce_word(random_word(amalgam, rng, 12)),
             random_word(amalgam, rng)]
    words += m.relators + amalgam.relators
    words += ball_enumerate(m, 2) + ball_enumerate(amalgam, 2)
    for w in words:
        assert type(w) is models.ModelWord, w
        assert type(w.letters) is tuple, w
        assert all(type(letter) is tuple for letter in w.letters), w


def test_reduce_idempotent_and_nonincreasing(c4_model):
    _, m = c4_model
    rng = random.Random(7)
    for _ in range(300):
        w = random_word(m, rng)
        r = reduce_word(w)
        assert len(r.letters) <= len(w.letters)
        assert reduce_word(r).letters == r.letters


def test_malformed_word(c3_model):
    _, _, m = c3_model
    with pytest.raises(MalformedWord):
        reduce_word(m.word([(99, 1)]))
    with pytest.raises(MalformedWord):
        reduce_word(m.word([(0, 2)]))


@pytest.mark.parametrize("bad, message", [
    ((99, 1), "letter 99 out of range"),
    ((0, 0), "exponent 0 must be +-1"),
    ((0, 2), "exponent 2 must be +-1"),
    ((0, 1, 1), "letter (0, 1, 1) is not a (generator, exponent) pair"),
    ([0, 1], "letter [0, 1] is not a (generator, exponent) pair"),
], ids=["range", "exponent-0", "exponent-2", "triple", "list"])
def test_malformed_letter_on_every_entry(c3_model, bad, message):
    # each entry names the letter as its caller wrote it, in u or in v
    _, _, m = c3_model
    good = m.word([(2, 1), (0, -1)])
    w = m.word([(0, 1), bad, (2, -1)])
    entries = [lambda: reduce_word(w), lambda: is_identity(w),
               lambda: base_element_of(w), lambda: words_equal(w, good),
               lambda: words_equal(good, w)]
    for entry in entries:
        with pytest.raises(MalformedWord, match=f"^{re.escape(message)}$"):
            entry()


def test_s_letters_never_identified(c4_model):
    S, m = c4_model
    words = [m.s_word([x]) for x in S.elements]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            assert words_equal(u, v) == (i == j)


def test_ball_radius_cap(c3_model):
    _, _, m = c3_model
    with pytest.raises(RadiusBoundExceeded):
        ball_enumerate(m, 9)


def test_negative_radius_refused(c3_model):
    S, _, m = c3_model
    with pytest.raises(ValueError):
        ball_enumerate(m, -1)
    with pytest.raises(ValueError):
        recover_fusion(m, S, -1)


def test_ball_radius_one(c3_model):
    _, _, m = c3_model
    ball = ball_enumerate(m, 1)
    shows = [w.display() for w in ball]
    assert shows == ["", "g1^1", "g2^1", "t1^-1", "t1^1"]


def test_britton_suite(c4_model):
    _, m = c4_model
    stable = {edge[4] for edge in m.graph_edges}
    rng = random.Random(1898)
    for _ in range(1000):
        w = random_pinch_free_word(m, rng)
        assert any(g in stable for g, _ in w.letters)
        assert not is_identity(w)
    for _ in range(1000):
        w = random_word(m, rng)
        assert is_identity(w.concat(w.inverse()))


def test_pinch_free_words_need_a_stable_letter(robinson_s4):
    rng = random.Random(3)
    plain = hnn_presentation(full_subgroup(dihedral8()), 2, [])
    for m in (robinson_s4[2], plain):
        with pytest.raises(ValueError, match="has no stable letter"):
            random_pinch_free_word(m, rng)


def test_mixed_sign_pinch_free_words_exist(c4_model):
    S, m = c4_model
    # t1^-1 x t1 is pinch-free: x is outside the attached C2
    t1 = m.graph_edges[0][4]
    w = m.word([(t1, -1), (m.vertex_letters[0][1], 1), (t1, 1)])
    r = reduce_word(w)
    assert len(r.letters) == 3
    assert not is_identity(w)


# ---------------------------------------------------------------------------
# fusion recovery


def test_recover_radius_zero_is_inner(c3_model):
    S, _, m = c3_model
    R = recover_fusion(m, S, 0)
    assert fusion_equal(R, fusion_from_group(S, S.parent, p=3))


def test_recover_c3_inversion(c3_model):
    S, inv, m = c3_model
    F = generate_fusion(S, 3, [inv])
    R = recover_fusion(m, S, 2)
    assert fusion_equal(R, F)
    assert (0, 2, 1) in {h.images for h in R.aut_set(S)}


def test_recover_monotone_and_sound(c3_model):
    S, inv, m = c3_model
    F = generate_fusion(S, 3, [inv])
    prev = None
    for r in range(5):
        R = recover_fusion(m, S, r)
        assert is_subfusion(R, F)
        if prev is not None:
            assert is_subfusion(prev, R)
        prev = R


def test_recover_robinson(robinson_s4):
    F, _, m = robinson_s4
    R = recover_fusion(m, F.S, 3)
    assert fusion_equal(R, F)
    prev = None
    for r in (1, 2, 4):
        got = recover_fusion(m, F.S, r)
        assert is_subfusion(got, F)
        if prev is not None:
            assert is_subfusion(prev, got)
        prev = got


def test_recover_on_trivial_s_uses_the_model_prime():
    C1 = cyclic(1)
    S = full_subgroup(C1)
    m = hnn_presentation(S, 2, [])
    got = recover_fusion(m, S, 1)
    assert got.p == 2
    assert fusion_equal(got, fusion_from_group(S, C1, p=2))


def test_recover_requires_matching_s(c3_model):
    _, _, m = c3_model
    with pytest.raises(MismatchedBase):
        recover_fusion(m, full_subgroup(klein_four()), 1)


def test_recover_hnn_v4_rho():
    V4 = klein_four()
    S = full_subgroup(V4)
    rho = InjHom(S, S, [0, 2, 3, 1])
    m = hnn_presentation(S, 2, [rho])
    F = generate_fusion(S, 2, [rho])
    assert fusion_equal(recover_fusion(m, S, 2), F)
    from fusionwb.catalog import alternating4
    from fusionwb.groups import sylow_p
    A4 = alternating4()
    assert fusion_equal(F, fusion_from_group(sylow_p(A4, 2), A4))


def test_recover_hnn_two_stable_letters():
    V4 = klein_four()
    S = full_subgroup(V4)
    rho = InjHom(S, S, [0, 2, 3, 1])
    tau = InjHom(S, S, [0, 2, 1, 3])
    m = hnn_presentation(S, 2, [rho, tau])
    F = generate_fusion(S, 2, [rho, tau])
    assert len(m.graph_edges) == 2
    got = recover_fusion(m, S, 2)
    assert fusion_equal(got, F)
    assert len(got.aut_set(S)) == 6


# ---------------------------------------------------------------------------
# Alperin datum validation


def test_standard_datum_valid(robinson_s4):
    _, datum, _ = robinson_s4
    assert validate_alperin_datum(datum).valid


def test_inner_only_datum_fails_generation():
    A4 = klein_four()  # S = V4 with the order-3 fusion needs an outer L
    from fusionwb.catalog import alternating4
    G = alternating4()
    from fusionwb.groups import sylow_p
    F = fusion_from_group(sylow_p(G, 2), G)
    iota = InjHom(F.S, F.S, F.S.elements)
    datum = AlperinDatum(F, [AlperinEntry(F.S, F.group, iota)])
    report = validate_alperin_datum(datum)
    assert not report.valid
    clauses = {f.clause for f in report.failures}
    assert "GenerationFailure" in clauses or "OuterQuotientFailure" in clauses


def test_central_product_entry_fails_centralizer():
    V4 = klein_four()
    F = fusion_from_group(full_subgroup(V4), V4, p=2)
    L = direct_product(V4, cyclic(3))
    iota = InjHom(F.S, full_subgroup(L), [0, 3, 6, 9])
    datum = AlperinDatum(F, [AlperinEntry(F.S, L, iota)])
    report = validate_alperin_datum(datum)
    clauses = {f.clause for f in report.failures}
    assert "CentralizerFailure" in clauses


def test_robinson_refuses_invalid_datum():
    V4 = klein_four()
    F = fusion_from_group(full_subgroup(V4), V4, p=2)
    L = direct_product(V4, cyclic(3))
    iota = InjHom(F.S, full_subgroup(L), [0, 3, 6, 9])
    datum = AlperinDatum(F, [AlperinEntry(F.S, L, iota)])
    with pytest.raises(DatumInvalid):
        robinson_presentation(datum)


def test_datum_structural_checks():
    V4 = klein_four()
    F = fusion_from_group(full_subgroup(V4), V4, p=2)
    iota = InjHom(F.S, F.S, F.S.elements)
    with pytest.raises(ValueError):
        AlperinDatum(F, [])
    c2 = Subgroup(F.group, (0, 1))
    with pytest.raises(ValueError):
        AlperinDatum(F, [AlperinEntry(c2, F.group, iota)])


@pytest.mark.parametrize("G", [
    BUILDERS[name]() for name in BUILDERS] + [
    direct_product(symmetric(4), cyclic(2)),
    direct_product(klein_four(), cyclic(3)),
], ids=lambda G: G.name)
def test_p_core_is_the_intersection_of_the_sylow_conjugates(G):
    for p in G.order_factors:
        P = sylow_p(G, p)
        core = set(G.elements())
        for g in G.elements():
            core &= {G.conj(g, x) for x in P.elements}
        assert p_core(G, p).elements == tuple(sorted(core))


def test_word_from_syllables_roundtrip(c4_model):
    _, m = c4_model
    w = word_from_syllables(m, [1, 2, 0], [(0, 1), (1, -1)])
    assert reduce_word(w).letters == w.letters


def test_hnn_canonical_form_matches_word_equality(c4_model, robinson_s4,
                                                  s3_star_s3):
    amalgam = robinson_presentation(s3_star_s3[1])
    for m in (c4_model[1], amalgam, robinson_s4[2]):
        rng = random.Random(23)
        words = [random_word(m, rng, max_letters=6) for _ in range(60)]
        for w in words[:30]:
            # the same element spelled differently: a relator spliced in
            k = rng.randint(0, len(w))
            r = rng.choice(m.relators).letters
            words.append(m.word(w.letters[:k] + r + w.letters[k:]))
        canon = [_reduce(w, canonical=True).letters for w in words]
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                assert words_equal(u, v) == (canon[i] == canon[j])


# ---------------------------------------------------------------------------
# a genuinely infinite amalgam: S3 *_{C3} S3 realizing inversion on C3


@pytest.fixture(scope="module")
def s3_star_s3():
    S3 = symmetric(3)
    F = fusion_from_group(sylow_p(S3, 3), S3, p=3)   # inversion fusion on C3
    Sgroup, Sfull = F.group, F.S
    emb = sylow_p(S3, 3).elements
    iota = InjHom(Sfull, full_subgroup(S3), emb)
    datum = AlperinDatum(F, [AlperinEntry(Sfull, S3, iota),
                             AlperinEntry(Sfull, S3, iota)])
    return F, datum


def test_infinite_amalgam_datum_valid(s3_star_s3):
    _, datum = s3_star_s3
    assert validate_alperin_datum(datum).valid


def test_infinite_amalgam_recovers_fusion(s3_star_s3):
    F, datum = s3_star_s3
    m = robinson_presentation(datum)
    got = recover_fusion(m, F.S, 3)
    assert fusion_equal(got, F)
    for r in (1, 2):
        assert is_subfusion(recover_fusion(m, F.S, r), F)


def test_infinite_amalgam_has_growing_ball(s3_star_s3):
    _, datum = s3_star_s3
    m = robinson_presentation(datum)
    sizes = [len(ball_enumerate(m, r)) for r in range(5)]
    assert sizes[0] == 1
    # ten nonidentity letters, but the two copies of C3-minus-identity are
    # identified through the edge: 1 + 10 - 2 = 9
    assert sizes[1] == 9
    # the amalgam is infinite: balls keep growing past both factor orders
    assert sizes[2] > sizes[1] and sizes[3] > sizes[2] and sizes[4] > sizes[3]
    assert sizes[4] > 2 * 6


def test_infinite_amalgam_alternating_words_nontrivial(s3_star_s3):
    _, datum = s3_star_s3
    m = robinson_presentation(datum)
    # reflections lie outside the amalgamated C3, so alternating products
    # have infinite order; check a few powers stay nontrivial
    inner, outer, phi, back, _ = m.graph_edges[0]
    refl1 = next(k for k in range(1, 6)
                 if k not in back
                 and m.vertices[outer].element_order(k) == 2)
    refl2 = next(k for k in range(1, 6)
                 if k not in phi
                 and m.vertices[inner].element_order(k) == 2)
    w = m.word([(m.vertex_letters[outer][refl1], 1),
                (m.vertex_letters[inner][refl2], 1)])
    power = w
    for _ in range(4):
        assert not is_identity(power)
        power = power.concat(w)
    assert not is_identity(w.concat(w.inverse()).concat(w))
    assert is_identity(w.concat(w.inverse()))


# ---------------------------------------------------------------------------
# the tabulated transversal and the incremental ball against the oracle of
# tests/ball_oracle.py: a from-scratch reduction per word, min over the edge
# subgroup per syllable


def _l3_2_amalgam():
    """F_{D8}(L3(2)) as the amalgam of D8 and N_L(V) for both Klein fours."""
    def shift(x):
        return 7 if x == 7 else (x + 1) % 7

    def invert(x):
        return 0 if x == 7 else 7 if x == 0 else -pow(x, -1, 7) % 7

    G = build_group_from_permutations(
        [tuple(f(x) for x in range(8)) for f in (shift, invert)], name="L3(2)")
    F = fusion_from_group(sylow_p(G, 2), G, p=2)
    Sgroup, emb = F.group, sylow_p(G, 2).elements
    entries = [AlperinEntry(F.S, Sgroup, InjHom(F.S, F.S, F.S.elements))]
    for V in lattice(Sgroup).subgroups:
        if V.order != 4 or any(Sgroup.element_order(x) > 2
                               for x in V.elements):
            continue
        NG = normalizer(G, Subgroup(G, [emb[x] for x in V.elements]))
        pos = {x: i for i, x in enumerate(NG.elements)}
        N = normalizer(Sgroup, V)
        L = subgroup_as_group(NG)
        entries.append(AlperinEntry(V, L, InjHom(
            N, full_subgroup(L), [pos[emb[x]] for x in N.elements])))
    return robinson_presentation(AlperinDatum(F, entries))


def _d8_partial_letters():
    """HNN extension of D8 by an involution swap and a Klein-four map."""
    D8 = dihedral8()
    S = full_subgroup(D8)
    lat = lattice(D8)
    twos = [P for P in lat.subgroups if P.order == 2]
    V = next(P for P in lat.subgroups if P.order == 4
             and all(D8.element_order(x) <= 2 for x in P.elements))
    x0, x1, x2, x3 = V.elements
    return hnn_presentation(S, 2, [InjHom(twos[0], S, twos[-1].elements),
                                   InjHom(V, S, (x0, x2, x1, x3))])


@pytest.fixture(scope="module")
def oracle_models(c3_model, c4_model, robinson_s4, s3_star_s3):
    V4 = klein_four()
    S = full_subgroup(V4)
    v4_two = hnn_presentation(S, 2, [InjHom(S, S, [0, 2, 3, 1]),
                                     InjHom(S, S, [0, 2, 1, 3])])
    # name -> (model, largest radius checked against the oracle ball)
    return {
        "hnn_c3": (c3_model[2], 4),
        "hnn_c4": (c4_model[1], 4),
        "hnn_v4_two": (v4_two, 4),
        "hnn_d8_partial": (_d8_partial_letters(), 4),
        "amalgam_d8_s4": (robinson_s4[2], 4),
        "amalgam_s3_s3": (robinson_presentation(s3_star_s3[1]), 4),
        "amalgam_l3_2": (_l3_2_amalgam(), 3),
    }


ORACLE_MODELS = ("hnn_c3", "hnn_c4", "hnn_v4_two", "hnn_d8_partial",
                 "amalgam_d8_s4", "amalgam_s3_s3", "amalgam_l3_2")


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_transversal_tables(oracle_models, name):
    m, _ = oracle_models[name]
    for half in m.halves:
        L = m.vertices[half.arrive]
        back = {y: x for x, y in half.sub.items()}
        assert len(half.transversal) == L.order
        for s, (rep, pushed) in enumerate(half.transversal):
            carried = back[pushed]          # in the edge subgroup at arrive
            assert L.table[carried][rep] == s
            assert rep == min(L.table[a][s] for a in half.sub)


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_ball_matches_oracle(oracle_models, name):
    m, top = oracle_models[name]
    for r in range(top + 1):
        got = [w.letters for w in ball_enumerate(m, r)]
        assert got == [w.letters for w in reference_ball(m, r)]


def test_ball_grows_without_canonicalizing_paths(oracle_models, c4_model,
                                                monkeypatch):
    # the ball multiplies on the left, on interned tails: it never extends
    # a path on the right or pushes coset parts through a whole path
    def refused(*_):
        raise AssertionError("ball_enumerate reduced a path")

    monkeypatch.setattr(models, "_canonical", refused)
    monkeypatch.setattr(models, "_extend", refused)
    for name in ORACLE_MODELS:
        m, top = oracle_models[name]
        got = [w.letters for w in ball_enumerate(m, top)]
        assert got == [w.letters for w in reference_ball(m, top)], name
    _, m = c4_model
    assert [len(ball_enumerate(m, r)) for r in range(3, 7)] == [
        140, 524, 1932, 7068]


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_reduce_matches_oracle(oracle_models, name):
    m, _ = oracle_models[name]
    rng = random.Random(2011)
    for _ in range(200):
        w = random_word(m, rng, max_letters=12)
        for canonical in (False, True):
            assert (_reduce(w, canonical=canonical).letters
                    == reference_reduce(w, canonical=canonical).letters)


def _oracle_is_identity(word):
    svals, ts = reference_reduced_path(word)
    return not ts and svals[0] == 0


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_decisions_match_oracle(oracle_models, name):
    # the compiled letter steps against the oracle's pinch loop over paths
    m, _ = oracle_models[name]
    rng = random.Random(41)
    xs = [m.s_word([x]).letters for x in range(m.s_group.order)]
    alphabet = _alphabet(m)
    answers = set()
    for _ in range(300):
        u = random_word(m, rng, max_letters=12)
        k = rng.randint(0, len(u))
        # u again with a relator spliced in, a random word, u^-1 x u for an
        # S-word x (in S when u conjugates x into S), and a x for a letter a
        twin = m.word(u.letters[:k] + rng.choice(m.relators).letters
                      + u.letters[k:])
        v = random_word(m, rng, max_letters=12)
        conj = m.word(u.inverse().letters + rng.choice(xs) + u.letters)
        short = m.word((rng.choice(alphabet),) + rng.choice(xs))
        for w in (u, v, conj, short, u.concat(u.inverse())):
            svals, ts = reference_reduced_path(w)
            assert is_identity(w) == (not ts and svals[0] == 0)
            assert base_element_of(w) == (
                None if ts else m.s_back.get(svals[0]))
        for a, b in ((u, twin), (twin, u), (u, v), (conj, short)):
            equal = words_equal(a, b)
            assert equal == _oracle_is_identity(a.concat(b.inverse()))
            answers.add(equal)
    assert answers == {False, True}


def test_words_equal_builds_no_word(oracle_models, monkeypatch):
    def refused(*_):
        raise AssertionError("words_equal built a word")

    words = {}
    for name in ORACLE_MODELS:
        m, _ = oracle_models[name]
        rng = random.Random(43)
        u = random_word(m, rng, max_letters=12)
        words[name] = (u, m.word(u.letters + u.letters), reduce_word(u))
    monkeypatch.setattr(models.ModelWord, "inverse", refused)
    monkeypatch.setattr(models.ModelWord, "concat", refused)
    for name, (u, uu, r) in words.items():
        assert words_equal(u, r) and words_equal(r, u), name
        assert words_equal(uu, u) == is_identity(u), name


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_recover_matches_oracle(oracle_models, name):
    m, top = oracle_models[name]
    S = full_subgroup(m.s_group)
    top = min(top, 2) if name == "amalgam_l3_2" else top
    got = [recover_fusion(m, S, r) for r in range(top + 1)]
    for r, R in enumerate(got):
        assert fusion_equal(R, reference_recover_fusion(m, S, r))
    assert all(fusion_equal(got[1], R) for R in got[2:])


@pytest.mark.parametrize("name", ["hnn_d8_partial", "amalgam_d8_s4"])
def test_recover_reduces_each_letter_conjugate_once(oracle_models, name,
                                                    monkeypatch):
    m, _ = oracle_models[name]
    S = full_subgroup(m.s_group)
    calls = []

    def counted(word):
        calls.append(word)
        return base_element_of(word)

    def refused(*_):
        raise AssertionError("recover_fusion enumerated a ball")

    monkeypatch.setattr(models, "ball_enumerate", refused)
    monkeypatch.setattr(models, "base_element_of", counted)
    for r, want in ((0, 0), (1, len(_alphabet(m)) * S.order),
                    (3, len(_alphabet(m)) * S.order)):
        calls.clear()
        recover_fusion(m, S, r)
        assert len(calls) == want


@functools.cache
def _gl3_2_maps():
    """S = C2^3 and every map of the system GL3(2) generates on it."""
    S = full_subgroup(elementary(2, 3))

    def linear(basis):               # the images of the basis 1, 2, 4
        return InjHom(S, S, [functools.reduce(
            int.__xor__, (y for i, y in enumerate(basis) if x >> i & 1), 0)
            for x in S.elements])

    # a Singer cycle (x^3 = x + 1) and a transvection generate GL3(2)
    F = generate_fusion(S, 2, [linear((2, 4, 3)), linear((1, 3, 4))])
    return S, list(F.morphisms())


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.data())
def test_recover_random_gl3_2_models(data):
    S, maps = _gl3_2_maps()
    phis = data.draw(st.lists(st.sampled_from(maps), max_size=3))
    m = hnn_presentation(S, 2, phis)
    got = recover_fusion(m, S, 1)
    assert fusion_equal(got, reference_recover_fusion(m, S, 2))
    assert fusion_equal(got, generate_fusion(S, 2, phis))


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(st.data())
def test_ball_random_gl3_2_models(data):
    # one map with a proper source at least, so that the edge subgroups are
    # proper and left multiplication both pushes coset parts and pinches
    S, maps = _gl3_2_maps()
    proper = [h for h in maps if h.source.order < S.order]
    phis = ([data.draw(st.sampled_from(proper))]
            + data.draw(st.lists(st.sampled_from(maps), max_size=2)))
    m = hnn_presentation(S, 2, data.draw(st.permutations(phis)))
    for r in range(4):
        ball = ball_enumerate(m, r)
        assert ([w.letters for w in ball]
                == [w.letters for w in reference_ball(m, r)])
    found = {w.letters: w for w in ball}
    for w in ball:
        inverse = w.inverse()
        twin = found[reference_reduce(inverse, canonical=True).letters]
        assert words_equal(inverse, twin)
