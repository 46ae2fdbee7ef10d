"""is_saturated against the per-element loop it replaced
(saturation_oracle.py), and the witness reports of each kind, pinned."""

import random

import pytest
from saturation_oracle import reference_is_saturated

from fusionwb.catalog import (
    cyclic,
    dihedral8,
    direct_product,
    elementary,
    quaternion8,
)
from fusionwb.corpus import corpus_dir
from fusionwb.fusion import (
    ExtensionFailure,
    SylowFailure,
    generate_fusion,
    is_saturated,
)
from fusionwb.groups import (
    InjHom,
    _hom_from_generators,
    full_subgroup,
    generating_sequence,
    lattice,
    subgroup_as_group,
)
from fusionwb.io import load_fusion_spec

BASES = {
    "D8": (dihedral8, 2),
    "Q8": (quaternion8, 2),
    "C2^3": (lambda: elementary(2, 3), 2),
    "C2^4": (lambda: elementary(2, 4), 2),
    "C4xC2": (lambda: direct_product(cyclic(4), cyclic(2)), 2),
    "C4xC4": (lambda: direct_product(cyclic(4), cyclic(4)), 2),
    "D8xC2": (lambda: direct_product(dihedral8(), cyclic(2)), 2),
    "Q8xC2": (lambda: direct_product(quaternion8(), cyclic(2)), 2),
    "C3^2": (lambda: elementary(3, 2), 3),
}
SYSTEMS_PER_BASE = 12


def _random_isomorphism(rng, S):
    """A map P -> Q between subgroups of S, drawn until one is an
    isomorphism: random P and Q of one order, random generator images."""
    subs = [P for P in lattice(S.parent).subgroups if P.order > 1]
    while True:
        P = rng.choice(subs)
        Q = rng.choice([Q for Q in subs if Q.order == P.order])
        Pg, Qg = subgroup_as_group(P), subgroup_as_group(Q)
        gens = generating_sequence(full_subgroup(Pg))
        choices = [[y for y in Qg.elements()
                    if Qg.element_order(y) == Pg.element_order(x)]
                   for x in gens]
        for _ in range(20 if all(choices) else 0):
            images = [rng.choice(ys) for ys in choices]
            fmap = _hom_from_generators(Pg, Qg, gens, images)
            if fmap is not None:
                return InjHom(P, Q, [Q.elements[fmap[k]]
                                     for k in range(P.order)])


def _random_systems():
    rng = random.Random(20111)
    out = []
    for make, p in BASES.values():
        S = full_subgroup(make())
        for _ in range(SYSTEMS_PER_BASE):
            gens = [_random_isomorphism(rng, S)
                    for _ in range(rng.randint(1, 2))]
            out.append(generate_fusion(S, p, gens))
    return out


def _assert_matches_oracle(F):
    rep, ref = is_saturated(F), reference_is_saturated(F)
    assert rep.witnesses == ref.witnesses
    assert rep.render() == ref.render()
    return rep


def test_random_generated_systems_match_oracle():
    systems = _random_systems()
    assert len(systems) >= 100
    reports = [_assert_matches_oracle(F) for F in systems]
    unsaturated = sum(not rep.saturated for rep in reports)
    # both verdicts occur; CentralizedFailure is compared on D8 x C2 below
    assert 0 < unsaturated < len(reports)
    kinds = {type(w) for rep in reports for w in rep.witnesses}
    assert kinds == {SylowFailure, ExtensionFailure}


@pytest.mark.parametrize("path", sorted(corpus_dir().glob("*.fus")),
                         ids=lambda path: path.stem)
def test_corpus_systems_match_oracle(path):
    _assert_matches_oracle(load_fusion_spec(path).fusion())


def test_trivial_fusion_on_order_64_matches_oracle():
    G = direct_product(direct_product(dihedral8(), cyclic(4)), cyclic(2))
    rep = _assert_matches_oracle(generate_fusion(full_subgroup(G), 2, []))
    assert rep.saturated


def _generated(G, src, images):
    by_key = lattice(G).by_key
    phi = InjHom(by_key[tuple(src)], by_key[tuple(sorted(images))], images)
    return generate_fusion(full_subgroup(G), 2, [phi])


def test_extension_witnesses_on_d8():
    rep = _assert_matches_oracle(_generated(dihedral8(), [0, 4], [0, 2]))
    assert rep.render() == "\n".join([
        "NOT saturated",
        "  no extension of [0, 2]->[0, 4] to N_phi=[0, 2, 4, 6]",
        "  no extension of [0, 6]->[0, 4] to N_phi=[0, 2, 4, 6]",
    ])


def test_every_witness_kind_on_d8_x_c2():
    G = direct_product(dihedral8(), cyclic(2))
    rep = _assert_matches_oracle(_generated(G, [0, 6, 8, 10], [0, 1, 8, 9]))
    whole = "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]"
    half = "[0, 1, 6, 7, 8, 9, 10, 11]"
    assert rep.render() == "\n".join([
        "NOT saturated",
        "  sylow axiom fails at P=[0, 1, 8, 9]: |Aut_S|=1, |Aut_F|=2",
        "  fully normalized P=[0, 6, 8, 10] is not fully centralized",
        f"  no extension of [0, 1]->[0, 9] to N_phi={whole}",
        f"  no extension of [0, 6]->[0, 1] to N_phi={half}",
        f"  no extension of [0, 6]->[0, 9] to N_phi={half}",
        f"  no extension of [0, 9]->[0, 1] to N_phi={whole}",
        f"  no extension of [0, 10]->[0, 1] to N_phi={half}",
        f"  no extension of [0, 10]->[0, 9] to N_phi={half}",
        f"  no extension of [0, 1, 8, 9]->[0, 9, 8, 1] to N_phi={whole}",
        f"  no extension of [0, 6, 8, 10]->[0, 1, 8, 9] to N_phi={half}",
        f"  no extension of [0, 6, 8, 10]->[0, 9, 8, 1] to N_phi={half}",
    ])
