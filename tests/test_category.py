"""Fusion systems stored as Hom_F(P, S): the closure against the pair-keyed
reference, and the category check against one defect of each kind."""

import pytest
from closure_oracle import reference_generate_homsets
from conjugation_oracle import inclusion_hom

from fusionwb import models
from fusionwb.catalog import dihedral8, elementary, klein_four
from fusionwb.cohomology import Site
from fusionwb.corpus import corpus_dir
from fusionwb.errors import NotACategory
from fusionwb.fusion import FusionSystem, fusion_from_group, generate_fusion
from fusionwb.groups import InjHom, full_subgroup, lattice
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


# --- the category check, one defect per kind --------------------------------


def _v4(*maps):
    """generate_fusion on V4 from automorphisms given by their images."""
    S = full_subgroup(klein_four())
    return generate_fusion(S, 2, [InjHom(S, S, m) for m in maps])


def _rebuild(F, changes=()):
    """FusionSystem(F.S, F.p, ...) with the Hom(P, S) in changes replaced."""
    return FusionSystem(F.S, F.p, {**F.homsets, **dict(changes)})


def test_category_check_accepts_every_valid_system():
    for F in (_v4(), _v4((0, 2, 1, 3)), _v4((0, 2, 3, 1), (0, 2, 1, 3)),
              fusion_from_group(full_subgroup(dihedral8()), dihedral8())):
        assert _rebuild(F).homsets == F.homsets


def test_category_error_is_not_unusable_input():
    assert not issubclass(NotACategory, ValueError)


def test_category_check_rejects_a_wrong_target():
    F = _v4((0, 2, 1, 3))
    a = F.subgroup((0, 1))
    with pytest.raises(NotACategory, match="stored as a map"):
        _rebuild(F, {a.elements: [inclusion_hom(a, a)]
                        + list(F.homsets[a.elements][1:])})


def test_category_check_rejects_a_wrong_source():
    F = _v4((0, 2, 1, 3))
    with pytest.raises(NotACategory, match="stored as a map"):
        _rebuild(F, {(0, 1): F.homsets[(0, 2)]})


def test_category_check_rejects_a_missing_s_conjugation():
    F = fusion_from_group(full_subgroup(dihedral8()), dihedral8())
    S = F.S.elements
    assert len(F.homsets[S]) == 4          # Inn(D8)
    with pytest.raises(NotACategory, match="missing S-conjugation"):
        _rebuild(F, {S: F.homsets[S][:3]})


def test_category_check_rejects_a_missing_inverse():
    F = _v4((0, 2, 3, 1))                   # Aut_F(V4) = {1, rho, rho^2}
    assert len(F.homsets[(0, 1, 2, 3)]) == 3
    with pytest.raises(NotACategory, match="missing inverse"):
        _rebuild(F, {(0, 1, 2, 3): F.homsets[(0, 1, 2, 3)][:2]})


def test_category_check_rejects_a_missing_restriction():
    # tau swaps 1 and 2; without the maps <1> -> <2> and <2> -> <1> every
    # check but the restriction of tau still holds
    F = _v4((0, 2, 1, 3))
    identities = {key: [h for h in F.homsets[key] if h.images == key]
                  for key in ((0, 1), (0, 2))}
    with pytest.raises(NotACategory, match="missing restriction"):
        _rebuild(F, identities)


def test_category_check_rejects_a_missing_restriction_at_index_p2():
    # tau swaps two coordinates of C2^3; drop tau|K : K -> tau(K) and its
    # inverse for an order-2 K, two levels below tau on S.  The check finds
    # the gap at the first order-4 M over K or tau(K), as a missing
    # restriction of the stored tau|M.
    S, p, gens = _automizers(2, 3, [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]])
    F = generate_fusion(S, p, gens)
    K = next(P for P in F.subgroups if P.order == 2
             and len(F.homsets[P.elements]) == 2)
    tau_K = next(h for h in F.homsets[K.elements] if h.images != K.elements)
    dropped = (K.elements, tau_K.image_elements())
    M = next(P for P in F.subgroups if P.order == 4
             and any(P.contains_subgroup(F.subgroup(key)) for key in dropped))
    tau_M, = [h for h in F.homsets[M.elements] if h.images != M.elements]
    identities = {key: [h for h in F.homsets[key] if h.images == key]
                  for key in dropped}
    with pytest.raises(NotACategory) as info:
        _rebuild(F, identities)
    assert str(info.value) == f"missing restriction of {tau_M!r}"


def test_category_check_rejects_a_missing_composite():
    # two involutions of V4 generate GL2(2); keep them but drop the rest
    F = _v4((0, 2, 1, 3), (0, 1, 3, 2))
    keep = {(0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)}
    with pytest.raises(NotACategory, match="not closed under composition"):
        _rebuild(F, {(0, 1, 2, 3): [h for h in F.homsets[(0, 1, 2, 3)]
                                    if h.images in keep]})
