import pytest
from conjugation_oracle import image_subgroup, inclusion_hom

from fusionwb.catalog import (
    alternating4,
    cyclic,
    dihedral8,
    klein_four,
    named_group,
    sl23,
    symmetric,
)
from fusionwb.errors import MismatchedBase, NotSylow
from fusionwb.fusion import (
    SylowFailure,
    aut_group,
    centric_subgroups,
    fully_centralized,
    fully_normalized,
    fusion_equal,
    fusion_from_group,
    generate_fusion,
    is_saturated,
    is_subfusion,
    out_f,
    strongly_closed,
    transporter,
)
from fusionwb.groups import (
    InjHom,
    Subgroup,
    centralizer,
    full_subgroup,
    is_isomorphic,
    sylow_p,
)


def inner_fusion(G, p):
    return fusion_from_group(full_subgroup(G), G, p=p)


@pytest.fixture(scope="module")
def f_a4():
    A4 = alternating4()
    return fusion_from_group(sylow_p(A4, 2), A4)


@pytest.fixture(scope="module")
def f_s4():
    S4 = symmetric(4)
    return fusion_from_group(sylow_p(S4, 2), S4)


def test_transporter_fusion_on_c2_self():
    F = inner_fusion(cyclic(2), 2)
    for P in F.subgroups:
        for Q in F.subgroups:
            homs = F.hom(P, Q)
            if set(P.elements) <= set(Q.elements):
                # a single identity/inclusion map
                assert [h.images for h in homs] == [P.elements]
            else:
                assert homs == ()


def test_a4_automizer_count_against_transporter_oracle(f_a4):
    A4 = alternating4()
    V = sylow_p(A4, 2)
    n = len(transporter(A4, V, V))
    c = centralizer(A4, V).order
    assert n // c == 3
    assert len(f_a4.aut_set(f_a4.S)) == 3


def test_d8_self_fusion_is_inner():
    D8 = dihedral8()
    F = inner_fusion(D8, 2)
    S = F.S
    for h in F.aut_set(S):
        # every automorphism of S in F_S(S) is conjugation by some element
        assert any(tuple(F.group.conj(g, x) for x in S.elements) == h.images
                   for g in F.group.elements())


def test_fusion_requires_sylow():
    S4 = symmetric(4)
    g = next(x for x in S4.elements() if S4.element_order(x) == 2)
    small = Subgroup(S4, (0, g))    # a C2, not Sylow
    with pytest.raises(NotSylow):
        fusion_from_group(small, S4, p=2)


def test_generate_empty_is_inner():
    C3 = cyclic(3)
    S = full_subgroup(C3)
    assert fusion_equal(generate_fusion(S, 3, []), inner_fusion(C3, 3))


def test_generate_c3_inversion():
    C3 = cyclic(3)
    S = full_subgroup(C3)
    F = generate_fusion(S, 3, [InjHom(S, S, [0, 2, 1])])
    assert len(F.aut_set(S)) == 2
    images = {h.images for h in F.aut_set(S)}
    assert images == {(0, 1, 2), (0, 2, 1)}


def test_generate_v4_rho_matches_a4(f_a4):
    V4 = klein_four()
    S = full_subgroup(V4)
    F = generate_fusion(S, 2, [InjHom(S, S, [0, 2, 3, 1])])
    assert len(F.aut_set(S)) == 3
    c2s = [P for P in F.subgroups if P.order == 2]
    assert len(F.class_of(c2s[0])) == 3
    assert fusion_equal(F, f_a4)


def test_generated_closure_idempotent(f_a4):
    F = f_a4
    regen = generate_fusion(F.S, F.p, list(F.morphisms()))
    assert fusion_equal(regen, F)


@pytest.mark.parametrize("gname,p", [
    ("C2", 2), ("A4", 2), ("S4", 2), ("SL(2,3)", 2), ("S3", 3),
])
def test_transporter_systems_are_saturated(gname, p):
    G = named_group(gname)
    F = fusion_from_group(sylow_p(G, p), G, p=p)
    assert is_saturated(F).saturated


def test_inner_abelian_fusion_saturated():
    assert is_saturated(inner_fusion(cyclic(3), 3)).saturated


def test_non_saturated_witness_exact():
    V4 = klein_four()
    S = full_subgroup(V4)
    F = generate_fusion(S, 2, [InjHom(S, S, [0, 2, 1, 3])])
    rep = is_saturated(F)
    assert not rep.saturated
    assert rep.witnesses == [SylowFailure(S, 1, 2)]


def test_conjugacy_and_normalized_predicates(f_a4):
    classes = f_a4.conjugacy_classes()
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 3]
    assert fully_normalized(f_a4, f_a4.S)
    for P in f_a4.subgroups:
        if P.order == 2:
            assert fully_normalized(f_a4, P)
            assert fully_centralized(f_a4, P)


def test_d8_inner_reflections_fused():
    D8 = dihedral8()
    F = inner_fusion(D8, 2)
    refl = [P for P in F.subgroups
            if P.order == 2 and centralizer(F.group, P).order == 4]
    assert len(refl) == 4
    cls = F.class_of(refl[0])
    assert len(cls) == 2   # the two reflections conjugate inside S


def test_centric_subgroups(f_s4):
    cents = centric_subgroups(f_s4)
    assert [P.order for P in cents] == [4, 4, 4, 8]
    # S is always centric; abelian S is the only centric subgroup of itself
    V4 = klein_four()
    F = inner_fusion(V4, 2)
    assert centric_subgroups(F) == [F.S]


def test_centric_closed_under_conjugacy_and_overgroups(f_s4):
    cents = {P.elements for P in centric_subgroups(f_s4)}
    for key in cents:
        P = f_s4.subgroup(key)
        for Q in f_s4.class_of(P):
            assert Q.elements in cents
        for R in f_s4.subgroups:
            if R.contains_subgroup(P):
                assert R.elements in cents


def test_out_f_of_v4_in_a4(f_a4):
    Q = out_f(f_a4, f_a4.S)
    assert Q.order == 3
    assert is_isomorphic(Q, cyclic(3))


def test_out_f_is_trivial_for_d8_in_s4(f_s4):
    assert out_f(f_s4, f_s4.S).order == 1


def test_aut_group_structure(f_s4):
    V = next(P for P in centric_subgroups(f_s4) if P.order == 4
             and len(f_s4.aut_set(P)) == 6)
    A, _ = aut_group(f_s4, V)
    assert is_isomorphic(A, symmetric(3))


def test_strongly_closed(f_a4):
    c2 = next(P for P in f_a4.subgroups if P.order == 2)
    assert not strongly_closed(f_a4, c2)
    assert strongly_closed(f_a4, f_a4.S)


def test_fusion_equal_and_subfusion(f_a4):
    assert fusion_equal(f_a4, f_a4)
    V4 = klein_four()
    inner = inner_fusion(V4, 2)
    assert is_subfusion(inner, f_a4)
    assert not is_subfusion(f_a4, inner)
    with pytest.raises(MismatchedBase):
        fusion_equal(f_a4, inner_fusion(cyclic(2), 2))


def test_hom_s_contained_and_factorization(f_s4):
    F = f_s4
    S = F.S
    for P in F.subgroups:
        inner = {tuple(F.group.conj(g, x) for x in P.elements)
                 for g in transporter(F.group, P, S)}
        have = {h.images for h in F.hom(P, S)}
        assert inner <= have
    for P in F.subgroups:
        for Q in F.subgroups:
            for h in F.hom(P, Q):
                img = image_subgroup(h)
                core = {m.images for m in F.hom(P, img)}
                assert h.images in core
                incl = inclusion_hom(img, Q)
                assert incl.images in {m.images for m in F.hom(img, Q)}


def test_sl23_fusion_essentials():
    G = sl23()
    F = fusion_from_group(sylow_p(G, 2), G)
    # Q8 is the 2-Sylow; its automizer in SL(2,3) has order 12
    assert len(F.aut_set(F.S)) == 12
    assert is_saturated(F).saturated


def test_s5_fusion_beyond_corpus():
    S5 = symmetric(5)
    F2 = fusion_from_group(sylow_p(S5, 2), S5)
    assert is_saturated(F2).saturated
    F5 = fusion_from_group(sylow_p(S5, 5), S5)
    assert is_saturated(F5).saturated
    assert len(F5.aut_set(F5.S)) == 4   # N/C = 20/5 in S5
