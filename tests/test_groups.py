import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fusionwb.catalog import (
    BUILDERS,
    alternating4,
    cyclic,
    dihedral8,
    direct_product,
    elementary,
    klein_four,
    named_group,
    quaternion8,
    sl23,
    symmetric,
)
from fusionwb.errors import NoIdentity, NonAssociative, NotClosed, OrderBoundExceeded
from fusionwb.corpus import load_corpus
from fusionwb.fusion import aut_group, fusion_from_group
from fusionwb.groups import (
    Group,
    InjHom,
    Subgroup,
    _conjugation_table,
    _hom_from_generators,
    _perm_mul,
    _validate_table,
    build_group_from_permutations,
    centralizer,
    closure,
    conjugation_array,
    conjugation_images,
    elementary_abelians,
    generating_sequence,
    full_subgroup,
    group_from_elements,
    is_isomorphic,
    lattice,
    normalizer,
    p_part,
    prime_of,
    quotient_group,
    subgroup_as_group,
    subgroups,
    sylow_p,
)
from fusionwb.io import parse_group, parse_presentation
from fusionwb.models import p_core
from conjugation_oracle import restrict
from group_oracle import (
    conjugate_subgroup,
    reference_centralizer,
    reference_conjugation_images,
    reference_group_from_elements,
    reference_least_conjugate,
    reference_normalizer,
    reference_subgroups,
)


def brute_force_subgroups(G):
    """Oracle: close every subset of elements; exponential, only for tiny G."""
    found = set()
    elems = list(G.elements())
    for r in range(len(elems) + 1):
        for seed in itertools.combinations(elems, r):
            found.add(closure(G, seed))
        if r >= 3 and G.order > 8:
            break
    return sorted(found, key=lambda h: (len(h), h))


def test_build_from_permutations_s3():
    G = build_group_from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")
    assert G.order == 6
    assert not G.is_abelian()


def test_build_from_table_d8():
    D8 = dihedral8()
    again = Group(D8.table, name="D8copy")
    assert again == D8


def test_prime_of():
    assert prime_of(1) is None
    assert prime_of(2) == 2 and prime_of(27) == 3
    with pytest.raises(ValueError):
        prime_of(12)


def table_files(table):
    """(parser, text) for each file a table enters through: a group file, a
    presentation's sgroup and an amalgam's first factor over a C2 sgroup."""
    rows = "".join(" ".join(map(str, row)) + "\n" for row in table)
    n = len(table)
    return [
        (parse_group, f"group X order {n}\nmode table\n{rows}"),
        (parse_presentation, f"presentation kind=hnn\nsgroup order {n}\n{rows}"),
        (parse_presentation, "presentation kind=amalgam\nsgroup order 2\n"
                             f"0 1\n1 0\nsembed [0,1]\nfactor 1 order {n}\n{rows}"),
    ]


def test_nonassociative_triple_is_named():
    # the order-5 loop: a latin square with identity that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    for parse, text in table_files(table):
        with pytest.raises(NonAssociative) as exc:
            parse(text)
        a, b, c = exc.value.triple
        t = table
        assert t[t[a][b]][c] != t[a][t[b][c]]


def test_no_identity_error():
    for parse, text in table_files([[1, 0], [0, 1]]):
        with pytest.raises(NoIdentity):
            parse(text)


def test_not_closed_errors():
    for table in ([[0, 1], [1, 5]], [[0, 1, 2], [1, 2, 0]]):
        for parse, text in table_files(table):
            with pytest.raises(NotClosed):
                parse(text)


def test_generated_order_bound():
    with pytest.raises(OrderBoundExceeded):
        build_group_from_permutations(
            [tuple([1, 0] + list(range(2, 8))),
             tuple(list(range(1, 8)) + [0])])  # S8 would have order 40320


@pytest.mark.parametrize("G,count", [
    (dihedral8(), 10),
    (symmetric(3), 6),
    (cyclic(2), 2),
])
def test_subgroup_counts_match_brute_force(G, count):
    subs = subgroups(G)
    assert len(subs) == count
    oracle = brute_force_subgroups(G)
    assert [P.elements for P in subs] == oracle


def test_subgroups_closed_under_conjugation():
    for G in (symmetric(4), sl23(), alternating4()):
        keys = {P.elements for P in subgroups(G)}
        for key in keys:
            P = Subgroup(G, key)
            for g in G.elements():
                assert conjugate_subgroup(G, g, P).elements in keys


def test_centralizer_of_center_is_whole_group():
    D8 = dihedral8()
    Z = centralizer(D8, full_subgroup(D8))
    assert Z.order == 2
    assert centralizer(D8, Z) == full_subgroup(D8)


def test_normalizer_of_normal_v4_in_s4():
    S4 = symmetric(4)
    klein = [0] + [g for g in S4.elements()
                   if g and S4.element_order(g) == 2
                   and len({S4.conj(h, g) for h in S4.elements()}) == 3]
    V = Subgroup(S4, klein)
    # oracle: brute-force scan of all 24 elements
    expect = [g for g in S4.elements()
              if all(S4.conj(g, x) in V.as_set() for x in V.elements)]
    N = normalizer(S4, V)
    assert list(N.elements) == expect
    assert N == full_subgroup(S4)


def test_centralizer_of_c3_in_s3_is_itself():
    S3 = symmetric(3)
    c3 = next(P for P in subgroups(S3) if P.order == 3)
    expect = [g for g in S3.elements()
              if all(S3.table[g][x] == S3.table[x][g] for x in c3.elements)]
    C = centralizer(S3, c3)
    assert list(C.elements) == expect
    assert C == c3


def test_centralizer_inside_normalizer_everywhere():
    for G in (dihedral8(), symmetric(4), quaternion8()):
        for P in subgroups(G):
            assert normalizer(G, P).contains_subgroup(centralizer(G, P))


@pytest.mark.parametrize("G,p,order", [
    (symmetric(4), 2, 8),
    (alternating4(), 2, 4),
    (cyclic(15), 2, 1),
    (sl23(), 3, 3),
])
def test_sylow_orders(G, p, order):
    P = sylow_p(G, p)
    assert P.order == order
    assert P.order == p_part(G.order, p)


def test_sylow_of_a4_is_klein_four():
    P = sylow_p(alternating4(), 2)
    assert is_isomorphic(subgroup_as_group(P), klein_four())


def test_sylow_deterministic_least():
    S4 = symmetric(4)
    P = sylow_p(S4, 2)
    conjs = {tuple(sorted(S4.conj(g, x) for x in P.elements))
             for g in S4.elements()}
    assert len(conjs) == 3
    assert P.elements == min(conjs)


@pytest.mark.parametrize("G,p,count", [
    (klein_four(), 2, 5),
    (dihedral8(), 2, 8),
    (cyclic(9), 3, 2),
])
def test_elementary_abelian_counts(G, p, count):
    eas = elementary_abelians(G, p)
    assert len(eas) == count
    # oracle: filter the full lattice by commutativity and exponent
    expect = []
    t = G.table.tolist()
    for P in subgroups(G):
        if all(G.power(x, p) == 0 for x in P.elements) and \
           all(t[x][y] == t[y][x] for x in P.elements for y in P.elements):
            expect.append(P.elements)
    assert [V.elements for V in eas] == expect


def test_elementary_basis_spans():
    D8 = dihedral8()
    for V in elementary_abelians(D8, 2):
        basis = generating_sequence(V)
        assert len(closure(D8, basis)) == V.order


def test_is_isomorphic_examples():
    assert not is_isomorphic(cyclic(4), klein_four())
    assert not is_isomorphic(symmetric(3), cyclic(6))
    rebuilt = build_group_from_permutations([(2, 1, 0, 3), (1, 2, 3, 0)],
                                            name="D8'")
    assert rebuilt.order == 8
    assert is_isomorphic(dihedral8(), rebuilt)
    assert is_isomorphic(quaternion8(),
                         subgroup_as_group(sylow_p(sl23(), 2)))
    assert not is_isomorphic(quaternion8(), dihedral8())


def test_is_isomorphic_order_cap():
    big = cyclic(300)
    with pytest.raises(OrderBoundExceeded):
        is_isomorphic(big, big)


def _is_bijective_hom(G, H, fmap):
    """Oracle: the all-pairs check _hom_from_generators leaves out."""
    g, h = G.table.tolist(), H.table.tolist()
    return (sorted(fmap) == list(range(G.order))
            and sorted(fmap.values()) == list(range(H.order))
            and all(fmap[g[a][b]] == h[fmap[a]][fmap[b]]
                    for a in range(G.order) for b in range(G.order)))


def _isomorphism_images(G, H, gens):
    """Oracle: the generator images of every isomorphism G -> H, found by
    trying every bijection that fixes the identity."""
    found = set()
    for perm in itertools.permutations(range(1, H.order)):
        fmap = dict(zip(range(G.order), (0,) + perm))
        if _is_bijective_hom(G, H, fmap):
            found.add(tuple(fmap[g] for g in gens))
    return found


@pytest.mark.parametrize("gname, hname", [
    ("C4", "C4"), ("C4", "V4"), ("V4", "C4"), ("V4", "V4"),
    ("S3", "S3"), ("S3", "C6"), ("C6", "S3"), ("C6", "C6"),
    ("D8", "D8"), ("D8", "Q8"), ("Q8", "D8"), ("Q8", "Q8"),
])
def test_hom_from_generators_needs_no_all_pairs_check(gname, hname):
    # the edge checks f(x g) = f(x) h_g alone must decide, for every image
    # tuple of a generating sequence, whether a bijective hom extends it
    G, H = named_group(gname), named_group(hname)
    gens = generating_sequence(full_subgroup(G))
    want = _isomorphism_images(G, H, gens)
    for images in itertools.product(range(H.order), repeat=len(gens)):
        fmap = _hom_from_generators(G, H, gens, list(images))
        if fmap is None:
            assert images not in want
        else:
            assert _is_bijective_hom(G, H, fmap)
            assert tuple(fmap[g] for g in gens) == images
    # each pair of distinct names is a pair of non-isomorphic groups
    assert bool(want) == (gname == hname)


def test_quotient_s4_by_v4_is_s3():
    S4 = symmetric(4)
    klein = [0] + [g for g in S4.elements()
                   if g and S4.element_order(g) == 2
                   and len({S4.conj(h, g) for h in S4.elements()}) == 3]
    Q, cosets = quotient_group(S4, Subgroup(S4, klein))
    assert Q.order == 6
    assert cosets[0] == tuple(klein)
    assert is_isomorphic(Q, symmetric(3))


def test_injhom_validation():
    C4 = cyclic(4)
    S = full_subgroup(C4)
    InjHom(S, S, [0, 3, 2, 1])          # inversion is fine
    with pytest.raises(ValueError):
        InjHom(S, S, [0, 1, 1, 3])      # not injective
    with pytest.raises(ValueError):
        InjHom(S, S, [0, 2, 1, 3])      # not multiplicative on C4
    half = Subgroup(C4, (0, 2))
    with pytest.raises(ValueError):
        InjHom(S, half, [0, 1, 2, 3])   # image escapes the target


def test_injhom_compose_restrict_inverse():
    V4 = klein_four()
    S = full_subgroup(V4)
    rho = InjHom(S, S, [0, 2, 3, 1])
    assert rho.compose(rho).compose(rho).images == S.elements
    sub = Subgroup(V4, (0, 1))
    r = restrict(rho, sub)
    assert r.images == (0, 2)
    assert rho.inverse().images == (0, 3, 1, 2)
    core = InjHom(sub, Subgroup(V4, (0, 2)), r.images)
    assert core.is_iso_onto_target()


def test_subgroup_lagrange_and_closure_validation():
    D8 = dihedral8()
    with pytest.raises(ValueError):
        Subgroup(D8, (0, 1, 2))     # not closed
    with pytest.raises(ValueError):
        Subgroup(D8, (1, 3))        # no identity
    assert Subgroup(D8, (0,)).order == 1


def test_direct_product_and_elementary():
    G = direct_product(cyclic(2), cyclic(3))
    assert is_isomorphic(G, cyclic(6))
    E = elementary(3, 2)
    assert E.order == 9
    assert all(E.element_order(x) in (1, 3) for x in E.elements())


def test_elementary_rank_zero_is_trivial_and_negative_is_refused():
    E = elementary(2, 0)
    assert E.order == 1 and E.name == "C2^0"
    with pytest.raises(ValueError, match="rank -1 is negative"):
        elementary(2, -1)


def _digest(G):
    rows = tuple(map(tuple, G.table.tolist()))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _s4_datum_groups():
    """Syl_2(S4) as a group, S4/O_2(S4), and Aut_F(V) of the normal V4."""
    S4 = symmetric(4)
    P = sylow_p(S4, 2)
    F = fusion_from_group(P, S4, p=2)
    return {
        "Syl_2(S4)": F.group,
        "S4/V4": quotient_group(S4, Subgroup(S4, (0, 5, 15, 21)))[0],
        "Aut_F(V4)": aut_group(F, F.subgroup((0, 2, 5, 7)))[0],
    }


# sha256 of the repr of G's rows as tuples: the benchmark's recorded
# answers and the corpus files depend on each group's element numbering,
# so a new way of building a table must reproduce these
TABLE_DIGESTS = {
    "C2": "a0e10c7a00c7e25d546e124a2f6fbc687ecbbb1b2cb4a95dd2ec09a0d05e7461",
    "C3": "0b02f8857f3981776e483a979fdaadeaff0765fa625f75488158f22bdbb1a73e",
    "C4": "031f409039ede13a55cbd4c70c5d28ea75b93407fae03c0c1ffe0a30aaee6f77",
    "C6": "ba5bf2265dd7e7822657f2ba37f59b7494e1cfbac736e9f5c2c171582cf07cb2",
    "C9": "7b9e205866171a4061f901d4a4ee9b9def481b1a25477100d9617246941f49e9",
    "C15": "342c1e7452f26fec9c713ab684cb10ecde604ff62e687b931346ab9e217714d3",
    "V4": "03dc126565fc1335976f09a73e2985526987d4db9118343fcab4dcd94abe455a",
    "C3xC3": "8fd2350da88e5c6eb071817ee312f26f7d0bd58c36851ace10e54d75e2a46206",
    "D8": "8b31a76ec4c2ad4aadd4c0e5e9f0e0f50d3cc8da8116bc707db83ecd9d859d30",
    "Q8": "3cf6df33eacfff323a764ebfd700a592b4aafd3b70197f3c66ae2af59d0d616a",
    "S3": "33b3a72ca912aaaa8746e7e3b0b4532e62d18ade9273a48752753e3cc41123b6",
    "S4": "37b02a5629690de9da40fdc13ae98590792add9aba229eac42c50efe606e8b6b",
    "A4": "5ff426c979323ff2a628f0623b0b03ef986fb134bb8a665ca0f8af27d9372c47",
    "SL(2,3)": "8ebe51c1a4f03847896fdfcc4668d9e83e68f192cc70dbf5cd1f2651327c5e4e",
    "C2^4": "e18045eb2accdb2c709bc48851fe7174db628cc56886ba243f92d0b55c490f94",
    "D8xC2": "aae062a0c910faf2f918e53a9b2e79aae5e4f3860f2caf206749ae8cacf9ae5c",
    "Q8xC2": "e2ebd95bb152b4eb32ea997418bf0174254f7bbbf3228c835fa5239886d2857b",
    "SL(2,3)xC2":
        "5e139ba400fb54b972f470fd33beea28c157a017942c260dcb758d55efcd251b",
    "S4xC2": "f3f0496f3713baf36ebd772b18ca910a4b3c496d0b2738f83509f24124e67b92",
    "Q8xC4": "38a431f1a80c6143dd3e625616239e8852f269484c0d53cb0ddab1103830638b",
    "Syl_2(S4)":
        "b415b96009a20a9d6eb870494bdd8263a3d091af832c7cbf7f80f8fc809be003",
    "S4/V4": "6562874074ad95d4ec9e08f124ba2d2077a49c68cef1da8dfd81fabef712316d",
    "Aut_F(V4)":
        "04734113c8f3b77035d22c065322e0f8a39e92aeb53a92a3c6d0628d4621058d",
}


def test_catalog_tables_keep_their_numbering():
    C2, C4 = cyclic(2), cyclic(4)
    got = {name: build() for name, build in BUILDERS.items()}
    got["C2^4"] = elementary(2, 4)
    # the products perfbench/inputs.py builds
    got["D8xC2"] = direct_product(dihedral8(), C2)
    got["Q8xC2"] = direct_product(quaternion8(), C2)
    got["SL(2,3)xC2"] = direct_product(sl23(), C2)
    got["S4xC2"] = direct_product(symmetric(4), C2)
    got["Q8xC4"] = direct_product(quaternion8(), C4)
    got.update(_s4_datum_groups())
    assert {name: _digest(G) for name, G in got.items()} == TABLE_DIGESTS


def test_group_from_elements_keeps_the_given_order():
    items = [0, 3, 1, 2]
    G = group_from_elements(items, lambda a, b: (a + b) % 4)
    # element 1 is the item 3, not 1: 3 + 3 = 2 is element 3
    assert G.table[1].tolist() == [1, 3, 0, 2]
    with pytest.raises(ValueError, match="not closed under composition"):
        group_from_elements([0, 1], lambda a, b: (a + b) % 3)


def test_group_from_elements_bounds_the_order_before_composing():
    calls = []

    def compose(a, b):
        calls.append((a, b))
        return (a + b) % 513

    with pytest.raises(OrderBoundExceeded):
        group_from_elements(range(513), compose)
    assert calls == []


def psl27():
    """L3(2) = PSL(2,7) on the projective line: x -> x+1 and x -> -1/x,
    with 7 the point at infinity."""
    shift = tuple(7 if x == 7 else (x + 1) % 7 for x in range(8))
    invert = (7,) + tuple(-pow(x, -1, 7) % 7 for x in range(1, 7)) + (0,)
    return build_group_from_permutations([shift, invert], name="L3(2)")


def test_library_tables_pass_the_table_check():
    # the tables io checks at the boundary; those the library composes are
    # groups by construction, which this checks on the builders' results
    groups = [B() for B in BUILDERS.values()]
    groups += load_corpus().groups.values()
    L32 = psl27()
    assert L32.order == 168
    groups.append(L32)
    for G in (symmetric(4), sl23(), direct_product(dihedral8(), cyclic(2))):
        subs = subgroups(G)
        groups += [subgroup_as_group(P) for P in subs]
        groups += [quotient_group(G, N)[0] for N in subs
                   if all(conjugate_subgroup(G, g, N) == N
                          for g in G.elements())]
        F = fusion_from_group(sylow_p(G, 2), G, p=2)
        groups += [aut_group(F, P)[0] for P in F.subgroups]
    for G in groups:
        _validate_table(tuple(map(tuple, G.table.tolist())))


@pytest.fixture
def table_builds(monkeypatch):
    """(items, compose, group) for each group_from_elements call."""
    builds = []
    build = group_from_elements

    def recording(items, compose, name="G"):
        G = build(items, compose, name=name)
        builds.append((items, compose, G))
        return G

    for module in ("groups", "catalog", "fusion"):
        monkeypatch.setattr(f"fusionwb.{module}.group_from_elements",
                            recording)
    return builds


def test_group_from_elements_matches_the_all_pairs_builder(table_builds):
    for B in BUILDERS.values():
        B()
    psl27()
    for G in (symmetric(4), sl23()):
        for N in subgroups(G):
            if all(conjugate_subgroup(G, g, N) == N for g in G.elements()):
                quotient_group(G, N)
        F = fusion_from_group(sylow_p(G, 2), G, p=2)
        for P in F.subgroups:
            aut_group(F, P)
    assert {G.order for _, _, G in table_builds} >= {1, 2, 8, 24, 168}
    for items, compose, G in table_builds:
        assert np.array_equal(
            reference_group_from_elements(items, compose).table, G.table)


def test_group_from_elements_composes_only_with_generators():
    # L3(2)'s 168 permutations: 28,224 products make the whole table, and
    # two generator columns take 336
    perms = [(0, 1, 2, 3, 4, 5, 6, 7)]
    for x in perms:
        for g in ((1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)):
            if _perm_mul(x, g) not in perms:
                perms.append(_perm_mul(x, g))
    calls = []

    def compose(a, b):
        calls.append((a, b))
        return _perm_mul(a, b)

    G = group_from_elements(perms, compose)
    assert G.order == 168
    assert len(calls) <= 3 * G.order
    assert np.array_equal(
        G.table, reference_group_from_elements(perms, _perm_mul).table)


A5_GENS = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]        # (0 1 2 3 4), (0 1 2)
A6_GENS = [(1, 2, 3, 4, 0, 5), (0, 2, 3, 4, 5, 1)]  # (0 1 2 3 4), (1 2 3 4 5)


@pytest.mark.parametrize("G", [
    build_group_from_permutations(A5_GENS, name="A5"), symmetric(5), psl27(),
    direct_product(symmetric(4), cyclic(2))], ids=lambda G: G.name)
def test_subgroups_of_groups_that_are_not_p_groups_match_the_reference(G):
    # A5, S5 and L3(2) hold perfect subgroups, which no chain of
    # prime-index steps from the trivial subgroup reaches
    assert ([P.elements for P in subgroups(G)]
            == [P.elements for P in reference_subgroups(G)])


def test_a6_has_501_subgroups():
    A6 = build_group_from_permutations(A6_GENS, name="A6")
    subs = subgroups(A6)
    assert len(subs) == 501
    # the two classes of A5, six each, and A6
    assert [P.order for P in subs].count(60) == 12
    assert subs[-1].order == 360


@pytest.mark.parametrize("p", [1, 0, -2, 4, 6])
def test_p_part_refuses_p_below_two(p):
    with pytest.raises(ValueError):
        p_part(12, p)


def test_sylow_of_a_composite_p_is_refused():
    # p = 4 once gave the cyclic subgroup [0, 1, 16, 21] of S4
    with pytest.raises(ValueError, match="p = 4 is not a prime"):
        sylow_p(symmetric(4), 4)


def test_elementary_abelians_of_a_composite_p_are_refused():
    # p = 4 once listed the four cyclic subgroups of order 4 of S4
    with pytest.raises(ValueError, match="p = 4 is not a prime"):
        elementary_abelians(symmetric(4), 4)


def test_named_group_catalog_orders():
    orders = {"C2": 2, "C3": 3, "V4": 4, "C9": 9, "D8": 8, "Q8": 8,
              "S3": 6, "S4": 24, "A4": 12, "SL(2,3)": 24}
    for name, n in orders.items():
        assert named_group(name).order == n


# --- the conjugation array against the per-element loops --------------------


def _array_cases():
    """Every catalog and corpus group, L3(2), S4 x C2 and SL(2,3) x C2."""
    cases = {name: build() for name, build in BUILDERS.items()}
    corpus = load_corpus()
    cases.update((f"corpus-{name}", corpus.groups[name])
                 for name in corpus.names)
    cases["L3(2)"] = psl27()
    cases["S4xC2"] = direct_product(symmetric(4), cyclic(2))
    cases["SL(2,3)xC2"] = direct_product(sl23(), cyclic(2))
    return cases


ARRAY_CASES = _array_cases()


def _same_images(got, want):
    """Equal dicts, with keys and image keys in the same order."""
    assert got == want
    assert list(got) == list(want)
    assert [list(d) for d in got.values()] == [list(d) for d in want.values()]


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_conjugation_images_match_the_per_element_pass(name):
    G = ARRAY_CASES[name]
    subs = lattice(G).subgroups
    _same_images(conjugation_images(G, subs),
                 reference_conjugation_images(G, subs))
    for p in G.order_factors:
        S = sylow_p(G, p)
        lat = lattice(subgroup_as_group(S))
        emb = dict(enumerate(S.elements))
        _same_images(conjugation_images(G, lat.subgroups, emb),
                     reference_conjugation_images(G, lat.subgroups, emb))
        # an embedding of a proper subgroup Q of S only, as a datum's
        # N_S(P) is embedded into its L
        Q = lat.subgroups[-2] if len(lat.subgroups) > 1 else lat.subgroups[0]
        part = {x: emb[x] for x in Q.elements}
        below = lat.below[Q.elements] + [Q]
        _same_images(conjugation_images(G, below, part),
                     reference_conjugation_images(G, below, part))


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_normalizers_and_centralizers_match_the_per_element_scan(name):
    G = ARRAY_CASES[name]
    for P in lattice(G).subgroups:
        assert normalizer(G, P) == reference_normalizer(G, P)
        assert centralizer(G, P) == reference_centralizer(G, P)


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_sylow_and_p_core_match_the_sylow_subgroups(name):
    G = ARRAY_CASES[name]
    for p in sorted(set(G.order_factors) | {2, 3}):
        sylows = [Q for Q in lattice(G).subgroups
                  if Q.order == p_part(G.order, p)]
        # the least Sylow subgroup, from any of them
        assert sylow_p(G, p) == sylows[0] == reference_least_conjugate(
            G, sylows[-1])
        core = frozenset.intersection(*(Q.as_set() for Q in sylows))
        assert p_core(G, p).elements == tuple(sorted(core))


@pytest.mark.parametrize("build", [psl27, lambda: direct_product(
    symmetric(4), cyclic(2))], ids=["L3(2)", "S4xC2"])
def test_transporter_build_makes_one_conjugation_array_per_group(
        build, monkeypatch):
    built = []

    def counting(H):
        built.append(H)
        return _conjugation_table(H)

    monkeypatch.setattr("fusionwb.groups._conjugation_table", counting)
    G = build()
    fusion_from_group(sylow_p(G, 2), G, p=2)
    assert sum(H is G for H in built) == 1
    assert len({id(H) for H in built}) == len(built)


def _holds_rows(value, rows):
    """value is a list or tuple of Python sequences equal to rows."""
    return (isinstance(value, (list, tuple)) and len(value) == len(rows)
            and all(isinstance(r, (list, tuple)) and list(r) == row
                    for r, row in zip(value, rows)))


def test_each_table_becomes_one_array(monkeypatch):
    # a table read from a file is converted from its rows once, by the
    # table check; group_from_elements hands Group the array it builds, so
    # a composed group converts none; and no search converts a table again
    def parsed(G):
        rows = "".join(" ".join(map(str, row)) + "\n"
                       for row in G.table.tolist())
        return parse_group(f"group X order {G.order}\nmode table\n{rows}")

    converted = []      # the order of each square array built from rows

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, obj, *args, **kwargs):
            out = np.array(obj, *args, **kwargs)
            if (not isinstance(obj, np.ndarray) and out.ndim == 2
                    and out.shape[0] == out.shape[1] > 1):
                converted.append(len(out))
            return out

    monkeypatch.setattr("fusionwb.groups.np", CountingNumpy())
    built = psl27()
    assert converted == []
    read = [parsed(built), parsed(dihedral8())]
    assert converted == [168, 8]
    for G in [built, *read]:
        table = G.table
        subgroups(G)
        elementary_abelians(G, 2)
        elementary_abelians(G, 3)
        conjugation_array(G)
        sylow_p(G, 2)
        assert G.table is table
        assert type(table) is np.ndarray and table.dtype == np.intp
        assert table.flags.c_contiguous and not table.flags.writeable
        rows = table.tolist()
        assert not [name for name, value in vars(G).items()
                    if _holds_rows(value, rows)]
    assert converted == [168, 8]
    assert np.array_equal(read[0].table, built.table)


def test_an_order_512_group_holds_its_table_once():
    D8 = dihedral8()
    D8xD8 = direct_product(D8, D8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        G = direct_product(D8xD8, D8)
        built = tracemalloc.get_traced_memory()[0] - start
        conjugation_array(G)
        with_conj = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert G.order == 512
    # one 8|G|^2 = 2 MiB table, then one conjugation array of the same size
    assert built <= 2.5 * 2**20
    assert with_conj <= 4.5 * 2**20


def test_group_hash_is_the_same_in_every_process():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "from fusionwb.catalog import symmetric; print(hash(symmetric(4)))"
    printed = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        printed.add(proc.stdout)
    assert printed == {f"{hash(symmetric(4))}\n"}


def test_groups_from_rows_lists_and_arrays_are_equal():
    S4 = symmetric(4)
    rows = tuple(map(tuple, S4.table.tolist()))
    given = np.array(rows)
    same = [Group(rows), Group([list(r) for r in rows]), Group(given),
            Group(np.asfortranarray(given, dtype=np.int32))]
    given[0, 0] = 5          # Group holds a copy
    for G in same:
        assert G == S4 and hash(G) == hash(S4)
        assert G.table.dtype == np.intp and G.table.flags.c_contiguous
        assert not G.table.flags.writeable
    assert Group([[0]]) != S4 != cyclic(24)
