"""The cached subgroup lattice and the one conjugation-map enumerator,
and the elementary abelian sites and site morphisms read off them."""

import re

import pytest

from conjugation_oracle import (
    reference_classes,
    reference_fusion_ea_morphisms,
    reference_pullback_morphisms,
    reference_quillen_morphisms,
    reference_site_morphisms,
    reference_transporter_homsets,
)
from group_oracle import (
    reference_elementary_abelian_search,
    reference_elementary_basis,
    reference_generating_sequence,
    reference_subgroups,
)
from restriction_oracle import reference_limit_terms
from fusionwb import corpus, groups, models
from fusionwb.catalog import (
    BUILDERS,
    alternating4,
    cyclic,
    dihedral8,
    direct_product,
    elementary,
    klein_four,
    sl23,
    symmetric,
)
from fusionwb.cohomology import Site, cohomology_basis
from fusionwb.corpus import corpus_dir, load_corpus
from fusionwb.fusion import (
    conjugation_homs,
    fusion_from_group,
    generate_fusion,
    is_saturated,
)
from fusionwb.groups import (
    InjHom,
    Subgroup,
    centralizer,
    conjugation_images,
    conjugations,
    full_subgroup,
    lattice,
    normalizer,
    subgroup_as_group,
    sylow_p,
)
from fusionwb.io import load_datum, load_fusion_spec
from fusionwb.stable import (
    Limit,
    _all_morphisms,
    _limit_basis,
    quillen_limits,
    quillen_morphisms,
    stable_bases,
)
from fusionwb.models import (
    AlperinDatum,
    AlperinEntry,
    _pullback_morphisms,
    validate_alperin_datum,
)

CORPUS = load_corpus()


def _pairs():
    """Every corpus pair, plus three larger Sylow subgroups."""
    out = [(CORPUS.groups[g], p) for _, g, p in CORPUS.pairs]
    S4xC2 = direct_product(symmetric(4), cyclic(2))
    S3xS3 = direct_product(symmetric(3), symmetric(3))
    return out + [(S4xC2, 2), (S3xS3, 2), (S3xS3, 3)]


def test_lattice_is_built_once_and_kept_on_the_group():
    G = symmetric(4)
    assert lattice(G) is lattice(G)
    F = fusion_from_group(sylow_p(G, 2), G, p=2)
    assert F.lattice is lattice(F.group)
    assert F.subgroups is F.lattice.subgroups


def test_subgroup_search_runs_once_per_group(monkeypatch):
    searched = []
    search = groups.subgroups

    def counting(G):
        searched.append(G)
        return search(G)

    monkeypatch.setattr(groups, "subgroups", counting)
    G = symmetric(4)
    F = fusion_from_group(sylow_p(G, 2), G, p=2)
    assert is_saturated(F).saturated
    generate_fusion(F.S, 2, list(F.morphisms()))
    assert searched == [F.group]


def _table_groups():
    """Every catalog p-group and the Sylow subgroup of every corpus pair."""
    out = [G for G in (build() for build in BUILDERS.values())
           if len(G.order_factors) == 1]
    return out + [subgroup_as_group(sylow_p(CORPUS.groups[g], p),
                                    name=f"Syl_{p}({g})")
                  for _, g, p in CORPUS.pairs]


@pytest.mark.parametrize("S", _table_groups(), ids=lambda S: S.name)
def test_conjugation_table_gives_normalizers_and_centralizers(S):
    conj = conjugations(S)
    assert conj is conjugations(S)
    for P in lattice(S).subgroups:
        found = conj[P.elements]
        for images, gs in found.items():
            assert gs == sorted(gs)
            assert all(tuple(S.conj(g, x) for x in P.elements) == images
                       for g in gs)
        firsts = [gs[0] for gs in found.values()]
        assert firsts == sorted(firsts)
        assert sorted(g for gs in found.values() for g in gs) == list(
            S.elements())
        inside = sorted(g for images, gs in found.items()
                        if P.as_set().issuperset(images) for g in gs)
        assert inside == list(normalizer(S, P).elements)
        assert found[P.elements] == list(centralizer(S, P).elements)


def test_conjugation_pass_runs_once_per_group(monkeypatch):
    passes = []
    real = groups.conjugation_images

    def counting(G, subs, emb=None):
        passes.append(G)
        return real(G, subs, emb)

    monkeypatch.setattr(groups, "conjugation_images", counting)
    S = full_subgroup(klein_four())
    F = generate_fusion(S, 2, [InjHom(S, S, [0, 2, 3, 1])])
    assert is_saturated(F).saturated
    assert passes == [S.parent]


@pytest.mark.parametrize("name", CORPUS.names)
def test_below_and_above_match_brute_force(name):
    G = CORPUS.groups[name]
    lat = lattice(G)
    subs = groups.subgroups(G)
    assert [P.elements for P in lat.subgroups] == [P.elements for P in subs]
    for P in subs:
        assert lat.by_key[P.elements].elements == P.elements
        below = [Q.elements for Q in subs
                 if Q != P and set(Q.elements) <= set(P.elements)]
        above = [Q.elements for Q in subs
                 if set(P.elements) <= set(Q.elements)]
        assert [Q.elements for Q in lat.below[P.elements]] == below
        # the overgroups, read off below as describe_fusion counts them
        assert [Q.elements for Q in subs
                if Q == P or P in lat.below[Q.elements]] == above


@pytest.mark.parametrize("G, p", _pairs(),
                         ids=lambda x: str(getattr(x, "name", x)))
def test_conjugation_homs_match_the_transporter_loop(G, p):
    S = sylow_p(G, p)
    ref = reference_transporter_homsets(S, G, p)
    F = fusion_from_group(S, G, p=p)
    for (pk, qk), homs in ref.items():
        assert ([h.images for h in F.hom(F.subgroup(pk), F.subgroup(qk))]
                == [h.images for h in homs])
    homs = conjugation_homs(G, dict(enumerate(S.elements)), F.subgroups)
    keys = []
    for h in homs:
        key = (h.source.elements, h.target.elements)
        if not keys or keys[-1] != key:
            keys.append(key)
    assert keys == [key for key, homs in ref.items() if homs]
    assert len(homs) == sum(len(v) for v in ref.values())


@pytest.mark.parametrize("G, p", _pairs(),
                         ids=lambda x: str(getattr(x, "name", x)))
def test_transporter_classes_match_union_find(G, p):
    F = fusion_from_group(sylow_p(G, p), G, p=p)
    assert F.conjugacy_classes() == reference_classes(F)


@pytest.mark.parametrize("name", ["c3_inversion", "v4_gl2", "v4_involution",
                                  "v4_rho"])
def test_generated_classes_match_union_find(name):
    F = load_fusion_spec(corpus_dir() / f"{name}.fus").fusion()
    assert F.conjugacy_classes() == reference_classes(F)


@pytest.fixture(scope="module")
def datums():
    d8_s4 = load_datum(corpus_dir() / "d8_s4.datum").datum
    S3 = symmetric(3)
    F3 = fusion_from_group(sylow_p(S3, 3), S3, p=3)
    iota = InjHom(F3.S, full_subgroup(S3), sylow_p(S3, 3).elements)
    s3_s3 = AlperinDatum(F3, [AlperinEntry(F3.S, S3, iota)] * 2)
    # the trivial system on V4 against L = A4: the order-3 automorphism
    # pulls back and is not in F
    V4 = klein_four()
    FV = fusion_from_group(full_subgroup(V4), V4, p=2)
    A4 = alternating4()
    iota = InjHom(FV.S, full_subgroup(A4), sylow_p(A4, 2).elements)
    v4_a4 = AlperinDatum(FV, [AlperinEntry(FV.S, A4, iota)])
    L = direct_product(V4, cyclic(3))
    iota = InjHom(FV.S, full_subgroup(L), [0, 3, 6, 9])
    v4_c3 = AlperinDatum(FV, [AlperinEntry(FV.S, L, iota)])
    return {"d8_s4": d8_s4, "s3_s3": s3_s3, "v4_a4": v4_a4, "v4_c3": v4_c3}


@pytest.mark.parametrize("name", ["d8_s4", "s3_s3", "v4_a4", "v4_c3"])
def test_pullback_matches_the_old_loop(datums, name):
    datum = datums[name]
    for entry in datum.entries:
        got = _pullback_morphisms(datum.F, entry)
        want = reference_pullback_morphisms(datum.F, entry)
        assert got == want


def test_subfusion_witness_is_the_first_pulled_back_map(datums):
    datum = datums["v4_a4"]
    F = datum.F
    pulled = reference_pullback_morphisms(F, datum.entries[0])
    first_bad = next(h for h in pulled
                     if h not in F.hom(h.source, h.target))
    report = validate_alperin_datum(datum)
    witness = [f for f in report.failures if f.clause == "SubfusionFailure"]
    assert [f.detail for f in witness] == [
        f"pulled-back morphism {first_bad!r} is not in F"]


def test_generation_gets_each_pulled_back_map_once(datums, monkeypatch):
    # conjugation pulls back 55 and 79 maps on the two D8/S4 entries, one
    # per subgroup holding each image; 28 differ in source or images, and
    # generate_fusion needs each of them once
    datum = datums["d8_s4"]
    handed = []

    def counted(S, p, maps):
        handed.extend(maps)
        return generate_fusion(S, p, maps)

    monkeypatch.setattr(models, "generate_fusion", counted)
    assert [len(_pullback_morphisms(datum.F, e)) for e in datum.entries] \
        == [55, 79]
    assert validate_alperin_datum(datum).valid
    assert len(handed) == 28
    assert len({(h.source.elements, h.images) for h in handed}) == 28


def _p_groups():
    """Every corpus p-group, plus C2^5, D8xD8 and C3^3."""
    out = [(G, next(iter(G.order_factors))) for G in CORPUS.groups.values()
           if len(G.order_factors) == 1]
    D8xD8 = direct_product(dihedral8(), dihedral8())
    return out + [(elementary(2, 5), 2), (D8xD8, 2), (elementary(3, 3), 3)]


@pytest.mark.parametrize("G, p", _p_groups(),
                         ids=lambda x: str(getattr(x, "name", x)))
def test_elementary_abelians_of_a_p_group_match_the_search(G, p):
    search = groups._elementary_abelian_search
    got = groups.elementary_abelians(G, p)
    assert [V.elements for V in got] == [V.elements for V in search(G, p)]
    assert all(V is lattice(G).by_key[V.elements] for V in got)
    q = next(q for q in (2, 3, 5) if G.order % q)
    assert ([V.elements for V in groups.elementary_abelians(G, q)]
            == [V.elements for V in search(G, q)] == [(0,)])


def test_elementary_abelians_search_only_off_p_groups(monkeypatch):
    searched = []
    search = groups._elementary_abelian_search

    def counting(G, p):
        searched.append((G.name, p))
        return search(G, p)

    monkeypatch.setattr(groups, "_elementary_abelian_search", counting)
    G = symmetric(4)
    groups.elementary_abelians(G, 2)
    groups.elementary_abelians(G, 3)
    assert searched == [(G.name, 2), (G.name, 3)]
    assert G._lattice is None
    S = groups.subgroup_as_group(sylow_p(G, 2))
    groups.elementary_abelians(S, 2)
    assert len(searched) == 2


def _searched_groups():
    """Every catalog and corpus group, plus C2^5 and D8xD8."""
    return ([make() for make in BUILDERS.values()]
            + list(CORPUS.groups.values())
            + [elementary(2, 5), direct_product(dihedral8(), dihedral8())])


@pytest.mark.parametrize("G", _searched_groups(), ids=lambda G: G.name)
def test_one_closure_search_and_one_generator_pick_match_the_old_code(G):
    # the lattice, in order, and the subgroups below each; every site
    # basis, at every prime; and the generators is_isomorphic maps
    assert ([P.elements for P in groups.subgroups(G)]
            == [P.elements for P in reference_subgroups(G)])
    subs = lattice(G).subgroups
    assert lattice(G).below == {
        P.elements: [Q for Q in subs
                     if Q.order < P.order and P.contains_subgroup(Q)]
        for P in subs}
    for p in sorted(G.order_factors):
        for V in groups.elementary_abelians(G, p):
            assert Site(V, p).basis == reference_elementary_basis(V, p)
    assert (list(groups.generating_sequence(full_subgroup(G)))
            == reference_generating_sequence(G))


@pytest.mark.parametrize("G", _searched_groups(), ids=lambda G: G.name)
def test_searched_subgroups_pass_the_subgroup_check(G):
    # the lattice and the elementary abelian search build their subgroups
    # closed, so they skip Subgroup's checks; each one still passes them
    subs = list(lattice(G).subgroups)
    for p in sorted(G.order_factors):
        subs += groups._elementary_abelian_search(G, p)
    for P in subs:
        assert Subgroup(G, P.elements).elements == P.elements


@pytest.mark.parametrize("G", [symmetric(4), symmetric(5), sl23(),
                               direct_product(symmetric(4), cyclic(2))],
                         ids=lambda G: G.name)
def test_elementary_abelian_search_matches_the_old_search(G):
    for p in sorted(G.order_factors):
        assert ([V.elements for V in groups._elementary_abelian_search(G, p)]
                == [V.elements
                    for V in reference_elementary_abelian_search(G, p)])


def test_corpus_check_cross_checks_the_elementary_abelians(monkeypatch):
    real = groups.elementary_abelians
    monkeypatch.setattr(corpus, "elementary_abelians",
                        lambda G, p: real(G, p)[:-1])
    report = corpus.corpus_check()
    assert len(report.failures) == 1
    assert report.failures[0].startswith("group-invariants: ")
    assert "group-invariants: AssertionError: " in report.failures[0]
    assert re.search(r": elementary abelians differ from the search "
                     r"\(corpus\.py:\d+\)$", report.failures[0])


def _triples(homs):
    return [(phi.images, sw.key, sv.key) for phi, sw, sv in homs]


def _quillen_groups():
    S4xC2 = direct_product(symmetric(4), cyclic(2))
    return [(G, p) for G in (alternating4(), symmetric(4), S4xC2, symmetric(5))
            for p in sorted(G.order_factors)]


def _terms(sites, d, rows):
    """Each degree-d coordinate row over sites as {site key: terms of its
    component}."""
    families = []
    for row in rows:
        family = {}
        for s in sites:
            basis = cohomology_basis(s, d)
            family[s.key] = {mono: c for mono, c in zip(basis, row) if c}
            row = row[len(basis):]
        families.append(family)
    return families


@pytest.mark.parametrize("G, p", _quillen_groups(),
                         ids=lambda x: str(getattr(x, "name", x)))
def test_quillen_morphisms_match_the_per_site_loop(G, p):
    # the limit on the F-maximal sites equals, term by term, the limit
    # with unknowns on every site over the per-site conjugation loop, and
    # row for row the earlier plan with unknowns on every class
    # representative; the dimension, counted on the constraints, agrees
    sites = quillen_morphisms(G, p)[0]
    ref_sites = [Site(V, p) for V in groups._elementary_abelian_search(G, p)]
    assert [s.key for s in sites] == [s.key for s in ref_sites]
    ref = reference_quillen_morphisms(G, p, ref_sites)
    plan = Limit(*reference_site_morphisms(
        sites, conjugation_images(G, [s.V for s in sites]), p))
    for q in quillen_limits(G, p, range(7)):
        assert _terms(q.sites, q.degree, q.families) == \
            reference_limit_terms(ref_sites, ref, q.degree, p)
        assert q.families == _limit_basis(plan, q.degree, p)
        assert q.dimension == len(q.families)


def _transporter(G):
    return fusion_from_group(sylow_p(G, 2), G, p=2)


SYSTEMS = {
    **{name: lambda name=name: load_fusion_spec(
        corpus_dir() / f"{name}.fus").fusion()
       for name in ("c3_inversion", "v4_gl2", "v4_involution", "v4_rho")},
    "S4": lambda: _transporter(symmetric(4)),
    "D8xC2": lambda: _transporter(direct_product(dihedral8(), cyclic(2))),
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_fusion_ea_morphisms_match_the_old_builder(name):
    F = SYSTEMS[name]()
    ref_sites = [Site(V, F.p)
                 for V in groups._elementary_abelian_search(F.group, F.p)]
    sites, homs, pulls = _all_morphisms(F)
    assert [s.key for s in sites] == [s.key for s in ref_sites]
    assert pulls == ()
    ref = reference_fusion_ea_morphisms(F, ref_sites, generating=False)
    # the same morphisms; within a source site they now come by images
    assert sorted(_triples(homs)) == sorted(_triples(ref))
    assert len(homs) == len(ref)
    # the limit on class representatives equals, term by term, the limit
    # with unknowns on every site over the old generating set
    old = reference_fusion_ea_morphisms(F, ref_sites)
    for d, families in enumerate(stable_bases(F, 8)):
        assert _terms(sites, d, [fam.coords for fam in families]) == \
            reference_limit_terms(ref_sites, old, d, F.p)
