import itertools

import pytest

from fusionwb.catalog import (
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
from fusionwb.groups import (
    Group,
    InjHom,
    Subgroup,
    build_group_from_permutations,
    centralizer,
    closure,
    conjugate_subgroup,
    elementary_abelians,
    generating_sequence,
    full_subgroup,
    is_isomorphic,
    normalizer,
    p_part,
    prime_of,
    quotient_group,
    subgroup_as_group,
    subgroups,
    sylow_p,
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


def test_nonassociative_triple_is_named():
    # the order-5 loop: a latin square with identity that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NonAssociative) as exc:
        Group(table)
    a, b, c = exc.value.triple
    t = table
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_no_identity_error():
    with pytest.raises(NoIdentity):
        Group([[1, 0], [0, 1]])


def test_not_closed_errors():
    with pytest.raises(NotClosed):
        Group([[0, 1], [1, 5]])
    with pytest.raises(NotClosed):
        Group([[0, 1, 2], [1, 2, 0]])


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
    conjs = sylow_p(S4, 2, all_conjugates=True)
    assert len(conjs) == 3
    assert sylow_p(S4, 2).elements == min(c.elements for c in conjs)


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
    for P in subgroups(G):
        t = G.table
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
    r = rho.restrict(sub)
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
