"""Fusion systems stored as Hom_F(P, S): the closure against the pair-keyed
and the index-p references, transporter systems against the closure of all
their maps, a system rebuilt without one map of each kind the closure adds,
the closure's independence of how its maps are given, and GL4(2) on C2^4."""

import functools
import itertools
import random

import pytest
from closure_oracle import (
    reference_closure_homsets,
    reference_generate_homsets,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionwb import fusion, groups, models
from fusionwb.catalog import (
    cyclic,
    dihedral8,
    direct_product,
    elementary,
    klein_four,
    symmetric,
)
from fusionwb.cohomology import Site
from fusionwb.corpus import corpus_dir, load_corpus
from fusionwb.errors import NotACategory
from fusionwb.fusion import (
    FusionSystem,
    SylowFailure,
    fusion_from_group,
    generate_fusion,
    is_saturated,
)
from fusionwb.groups import (
    Group,
    InjHom,
    conjugation_images,
    conjugations,
    full_subgroup,
    lattice,
    sylow_p,
)
from fusionwb.io import describe_fusion, load_datum, load_fusion_spec
from fusionwb.models import recover_fusion, robinson_presentation


def _linear(S, p, mat):
    """The automorphism of S acting by mat on the coordinates of Site(S, p)."""
    site = Site(S, p)
    elem_of = {v: x for x, v in site.coords.items()}
    n = site.rank
    return InjHom(S, S, [
        elem_of[tuple(sum(mat[i][j] * site.coords[x][j] for j in range(n)) % p
                      for i in range(n))]
        for x in S.elements])


def _corpus_spec(name):
    spec = load_fusion_spec(corpus_dir() / f"{name}.fus")
    return full_subgroup(spec.group), spec.p, spec.phis


def _automizers(p, rank, mats):
    S = full_subgroup(elementary(p, rank))
    return S, p, [_linear(S, p, m) for m in mats]


def _d8_klein_fours():
    """An isomorphism between the two Klein fours of D8: a generator that
    is not an automorphism of S, so the closure needs inverses."""
    D8 = dihedral8()
    V1, V2 = [V for V in lattice(D8).subgroups if V.order == 4
              and all(D8.element_order(x) <= 2 for x in V.elements)]
    return full_subgroup(D8), 2, [InjHom(V1, V2, V2.elements)]


def _robinson_recovery():
    """The maps recover_fusion closes for the D8/S4 amalgam at r = 3."""
    spec = load_datum(corpus_dir() / "d8_s4.datum")
    F, datum = spec.fusion, spec.datum
    seen = []

    def spy(S, p, generators):
        seen.append((S, p, list(generators)))
        return generate_fusion(S, p, generators)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "generate_fusion", spy)
        recover_fusion(robinson_presentation(datum), F.S, 3)
    return seen[-1]


SYSTEMS = {
    "c3_inversion": lambda: _corpus_spec("c3_inversion"),
    "v4_gl2": lambda: _corpus_spec("v4_gl2"),
    "v4_involution": lambda: _corpus_spec("v4_involution"),
    "v4_rho": lambda: _corpus_spec("v4_rho"),
    # x^3 + x + 1 companion matrix: a Singer cycle of order 7
    "c2e3_singer": lambda: _automizers(
        2, 3, [[[0, 0, 1], [1, 0, 1], [0, 1, 0]]]),
    "c3e2_q8": lambda: _automizers(
        3, 2, [[[0, 2], [1, 0]], [[1, 1], [1, 2]]]),
    "d8_klein_fours": _d8_klein_fours,
    "d8_s4_recovered_r3": _robinson_recovery,
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_closure_matches_pair_keyed_reference(name):
    S, p, gens = SYSTEMS[name]()
    F = generate_fusion(S, p, gens)
    ref = reference_generate_homsets(S, p, gens)
    assert len(F.homsets) == len(F.subgroups)
    for P in F.subgroups:
        for Q in F.subgroups:
            got = [h.images for h in F.hom(P, Q)]
            assert got == sorted(h.images for h in ref[(P.elements, Q.elements)])
    total = sum(len(v) for v in ref.values())
    assert describe_fusion(F).endswith(f" {total} morphisms")


# the systems of the stable-series benchmark that SYSTEMS lacks: the 4-cycle
# of the coordinates of C2^4 here, F_S(S4 x C2) among TRANSPORTER_CASES
INDEX_P_SYSTEMS = {**SYSTEMS, "c2e4_shift": lambda: _automizers(
    2, 4, [[[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]])}


def _images(F):
    return {key: list(homs) for key, homs in F.homsets.items()}


@pytest.mark.parametrize("name", INDEX_P_SYSTEMS)
def test_closure_matches_index_p_reference(name):
    S, p, gens = INDEX_P_SYSTEMS[name]()
    assert _images(generate_fusion(S, p, gens)) == reference_closure_homsets(
        S, p, gens)


@pytest.mark.parametrize("name", INDEX_P_SYSTEMS)
def test_hom_into_s_rebuilds_the_stored_image_tuples(name):
    F = generate_fusion(*INDEX_P_SYSTEMS[name]())
    for P in F.subgroups:
        assert F.hom(P, F.S) == tuple(
            InjHom(P, F.S, images) for images in F.homsets[P.elements])


def _relabelled(G, seed):
    """G with its elements other than the identity renamed at random."""
    rng = random.Random(seed)
    new = [0] + rng.sample(range(1, G.order), G.order - 1)
    old = {y: x for x, y in enumerate(new)}
    return Group([[new[G.table[old[a]][old[b]]] for b in G.elements()]
                  for a in G.elements()], name=f"{G.name}'")


def _transporter_cases():
    """name -> (G, p) for every corpus group at p = 2 and 3, S4 x C2, and a
    relabelled C3 x D8, where some c_g by g outside S equals a c_s and comes
    first in G's order but not in S's."""
    corpus = load_corpus()
    cases = {f"{name}-p{p}": (corpus.groups[name], p)
             for name in corpus.names for p in (2, 3)}
    cases["S4xC2-p2"] = (direct_product(symmetric(4), cyclic(2)), 2)
    cases["C3xD8-relabelled-p2"] = (
        _relabelled(direct_product(cyclic(3), dihedral8()), 1), 2)
    return cases


TRANSPORTER_CASES = _transporter_cases()


def _transporter(name):
    """F_S(G) and every transporter map c_g : P -> S, from a pass over G of
    the test's own."""
    G, p = TRANSPORTER_CASES[name]
    S = sylow_p(G, p)
    F = fusion_from_group(S, G, p=p)
    found = conjugation_images(G, F.subgroups, dict(enumerate(S.elements)))
    maps = [InjHom(P, F.S, images) for P in F.subgroups
            for images in found[P.elements]]
    return F, maps


@pytest.mark.parametrize("name", TRANSPORTER_CASES)
def test_transporter_system_matches_the_closure_of_its_maps(name):
    F, maps = _transporter(name)
    want = reference_closure_homsets(F.S, F.p, maps)
    assert _images(F) == want
    assert want == {key: sorted(h.images for h in maps
                                if h.source.elements == key) for key in want}


@pytest.mark.parametrize("name", TRANSPORTER_CASES)
def test_closure_of_random_transporter_maps_matches_reference(name):
    F, maps = _transporter(name)
    rng = random.Random(name)
    for _ in range(20):
        some = rng.sample(maps, rng.randint(0, min(len(maps), 6)))
        assert _images(generate_fusion(F.S, F.p, some)) == (
            reference_closure_homsets(F.S, F.p, some))


@pytest.mark.parametrize("name", TRANSPORTER_CASES)
def test_transporter_fills_the_conjugation_table_of_s(name, monkeypatch):
    # the pass over G is the only one: neither the build nor saturation
    # conjugates S again, and S's table is the one a pass over S gives
    G, p = TRANSPORTER_CASES[name]

    def refuse(*args):
        raise AssertionError("a second conjugation pass")

    monkeypatch.setattr(groups, "conjugation_images", refuse)
    F = fusion_from_group(sylow_p(G, p), G, p=p)
    is_saturated(F)
    fresh = conjugation_images(F.group, F.subgroups)
    table = conjugations(F.group)
    assert table == fresh
    assert all(list(table[key]) == list(fresh[key]) for key in fresh)


# --- the closure in the constructor, one dropped map per kind ---------------


def _v4(*maps):
    """generate_fusion on V4 from automorphisms given by their images."""
    S = full_subgroup(klein_four())
    return generate_fusion(S, 2, [InjHom(S, S, m) for m in maps])


def _rebuild(F, dropped):
    """FusionSystem(F.S, F.p, ...) from F's maps without those in dropped."""
    assert dropped and set(dropped) <= set(F.morphisms())
    return FusionSystem(F.S, F.p, [h for h in F.morphisms()
                                   if h not in dropped])


def test_the_constructor_returns_every_valid_system():
    for F in (_v4(), _v4((0, 2, 1, 3)), _v4((0, 2, 3, 1), (0, 2, 1, 3)),
              fusion_from_group(full_subgroup(dihedral8()), dihedral8())):
        assert FusionSystem(F.S, F.p, F.morphisms()).homsets == F.homsets


def test_category_error_is_not_unusable_input():
    assert not issubclass(NotACategory, ValueError)


def test_a_map_into_a_subgroup_is_stored_as_a_map_into_s():
    F = _v4((0, 2, 1, 3))
    a, b = F.subgroup((0, 1)), F.subgroup((0, 2))
    into_b = FusionSystem(F.S, F.p, [InjHom(a, b, b.elements)])
    into_s = FusionSystem(F.S, F.p, [InjHom(a, F.S, b.elements)])
    assert into_b.homsets == into_s.homsets
    assert b.elements in into_b.homsets[a.elements]
    assert all(h.target == F.S for h in into_b.morphisms())


def test_the_closure_restores_a_dropped_s_conjugation():
    F = fusion_from_group(full_subgroup(dihedral8()), dihedral8())
    S = F.S.elements
    assert len(F.homsets[S]) == 4          # Inn(D8)
    assert F.homsets[S][0] == S            # keep the identity
    assert _rebuild(F, F.hom(F.S, F.S)[1:]).homsets == F.homsets


def test_the_closure_restores_a_dropped_inverse():
    F = _v4((0, 2, 3, 1))                   # Aut_F(V4) = {1, rho, rho^2}
    assert len(F.homsets[(0, 1, 2, 3)]) == 3
    assert _rebuild(F, F.hom(F.S, F.S)[2:]).homsets == F.homsets
    # rho^2 is also rho o rho; the maps from one Klein four of D8 onto the
    # other come back only as inverses
    F = generate_fusion(*_d8_klein_fours())
    V1, V2 = (key for key, homs in F.homsets.items()
              if len(key) == 4 and len(homs) == 4)
    dropped = [h for h in F.hom(F.subgroup(V2), F.S)
               if h.image_elements() == V1]
    assert len(dropped) == 2
    assert _rebuild(F, dropped).homsets == F.homsets


def test_the_closure_restores_a_dropped_restriction():
    # tau swaps 1 and 2; the maps <1> -> <2> and <2> -> <1> come back as
    # restrictions of tau
    F = _v4((0, 2, 1, 3))
    dropped = [h for key in ((0, 1), (0, 2))
               for h in F.hom(F.subgroup(key), F.S) if h.images != key]
    assert _rebuild(F, dropped).homsets == F.homsets


def test_the_closure_restores_a_dropped_restriction_at_index_p2():
    # tau swaps two coordinates of C2^3; drop tau|K : K -> tau(K) and its
    # inverse for an order-2 K, two levels below tau on S.  They come back
    # as restrictions of the stored tau|M for an order-4 M over K.
    S, p, gens = _automizers(2, 3, [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]])
    F = generate_fusion(S, p, gens)
    K = next(P for P in F.subgroups if P.order == 2
             and len(F.homsets[P.elements]) == 2)
    tau_K = next(im for im in F.homsets[K.elements] if im != K.elements)
    dropped = [h for key in (K.elements, tuple(sorted(tau_K)))
               for h in F.hom(F.subgroup(key), F.S) if h.images != key]
    assert len(dropped) == 2
    assert _rebuild(F, dropped).homsets == F.homsets


def test_the_closure_restores_a_dropped_composite():
    # two involutions of V4 generate GL2(2); keep them but drop the rest
    F = _v4((0, 2, 1, 3), (0, 1, 3, 2))
    keep = {(0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)}
    dropped = [h for h in F.hom(F.S, F.S) if h.images not in keep]
    assert len(dropped) == 3
    assert _rebuild(F, dropped).homsets == F.homsets


def test_a_transporter_map_missing_from_its_closure_is_not_a_category(
        monkeypatch):
    # drop one automorphism of the normal Klein four V of D8 <= S4 that is
    # not an S-conjugation: Aut_S4(V) = S3 but Aut_D8(V) has order 2
    G = symmetric(4)
    S = sylow_p(G, 2)
    real = fusion.conjugation_images
    dropped = []

    def drop_one(G, subs, emb=None):
        found = real(G, subs, emb)
        V = next(P for P in subs if len(found[P.elements]) == 6)
        inner = conjugations(V.parent)[V.elements]
        images = next(im for im in found[V.elements] if im not in inner)
        del found[V.elements][images]
        dropped.append(InjHom(V, full_subgroup(V.parent), images))
        return found

    monkeypatch.setattr(fusion, "conjugation_images", drop_one)
    with pytest.raises(NotACategory) as info:
        fusion_from_group(S, G, p=2)
    assert str(info.value) == (
        f"the closure adds {dropped[0]!r} to the transporter maps")


def test_a_transporter_map_the_generators_miss_is_not_a_category(
        monkeypatch):
    # S4 at p = 2 has two double cosets D8 g D8; without the generator of
    # the second, c_g on the normal Klein four, the maps that fuse the centre
    # of D8 with the other involutions of that Klein four are missed
    real = fusion.FusionSystem
    monkeypatch.setattr(fusion, "FusionSystem",
                        lambda S, p, maps: real(S, p, maps[:-1]))
    with pytest.raises(NotACategory) as info:
        fusion_from_group(sylow_p(symmetric(4), 2), symmetric(4), p=2)
    assert str(info.value) == (
        "the closure misses the transporter map "
        "InjHom([0, 2] -> [0, 1, 2, 3, 4, 5, 6, 7]; [0, 7])")


# --- the closure does not depend on how its maps are given ------------------


@functools.cache
def _map_pools():
    """name -> (S, p, maps to draw from): every automorphism of V4 (GL2(2))
    and of C2^3 (GL3(2)), and the D8 Klein-four isomorphism."""
    pools = {"d8_klein_fours": _d8_klein_fours()}
    for n in (2, 3):
        S = full_subgroup(elementary(2, n))
        vectors = list(itertools.product(range(2), repeat=n))
        mats = [[list(row[i * n:(i + 1) * n]) for i in range(n)]
                for row in itertools.product(range(2), repeat=n * n)]
        pools[f"gl{n}_2"] = (S, 2, [
            _linear(S, 2, m) for m in mats
            if len({tuple(sum(a * b for a, b in zip(r, v)) % 2 for r in m)
                    for v in vectors}) == S.order])
    return pools


@st.composite
def _given_maps(draw):
    S, p, pool = _map_pools()[draw(st.sampled_from(
        ["gl3_2", "gl2_2", "d8_klein_fours"]))]
    maps = draw(st.lists(st.sampled_from(pool), max_size=3))
    extra = draw(st.lists(st.sampled_from(maps), max_size=3)) if maps else []
    return S, p, maps, draw(st.permutations(maps)) + extra


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(_given_maps())
def test_the_closure_ignores_order_and_repetition(case):
    S, p, maps, shuffled = case
    F = FusionSystem(S, p, maps)
    assert FusionSystem(S, p, shuffled) == F
    assert FusionSystem(S, p, F.morphisms()) == F


# --- the closure at |S| = 16 and 32 -----------------------------------------


# a transvection and the 4-cycle of the coordinates generate GL4(2)
GL4_2 = [[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]
# the companion matrix of x^5 + x^2 + 1, a Singer cycle of order 31
SINGER_C2E5 = [[[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 1],
                [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]]


@pytest.mark.parametrize("mats", [GL4_2, SINGER_C2E5],
                         ids=["gl4_2", "c2e5_singer"])
def test_the_store_holds_image_tuples_not_maps(mats, monkeypatch):
    S, p, gens = _automizers(2, len(mats[0]), mats)
    built = []
    real = InjHom.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(InjHom, "__init__", counted)
    F = generate_fusion(S, p, gens)
    assert len(built) <= len(gens)
    assert all(type(images) is tuple and len(images) == len(key)
               for key, homs in F.homsets.items() for images in homs)


def test_gl4_2_builds_and_is_not_saturated():
    S, p, gens = _automizers(2, 4, GL4_2)
    F = generate_fusion(S, p, gens)
    assert sum(map(len, F.homsets.values())) == 65536
    assert len(F.aut_set(F.S)) == 20160
    report = is_saturated(F)
    assert not report.saturated
    first = report.witnesses[0]
    assert isinstance(first, SylowFailure) and first.P.order == 4
    assert (first.aut_s_order, first.aut_f_order) == (1, 6)


def test_c2e5_singer_builds():
    S, p, gens = _automizers(2, 5, SINGER_C2E5)
    F = generate_fusion(S, p, gens)
    assert sum(map(len, F.homsets.values())) == 11564
    assert len(F.aut_set(F.S)) == 31
