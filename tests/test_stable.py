import itertools
import random
import re

import numpy as np
import pytest
from conjugation_oracle import inclusion_hom, reference_fusion_ea_morphisms
from elimination_oracle import reference_nullspace, reference_rref
from group_oracle import reference_check_family
from hypothesis import example, given, settings
from hypothesis import strategies as st
from restriction_oracle import (
    reference_constraints,
    reference_cup,
    reference_limit_terms,
    reference_restriction_matrix,
    reference_restrictions,
)

from fusionwb.catalog import (
    alternating4,
    cyclic,
    direct_product,
    elementary,
    klein_four,
    symmetric,
)
from fusionwb.cohomology import (
    CohoElement,
    Site,
    cohomology_basis,
    _basis,
    format_monomial,
    restriction_matrices,
    restriction_matrix,
)
from fusionwb.errors import DegreeBoundExceeded, IncompatibleFamily
from fusionwb.fusion import fusion_from_group, generate_fusion
from fusionwb.groups import (
    InjHom,
    Subgroup,
    full_subgroup,
    sylow_p,
)
from fusionwb import cohomology, corpus, stable
from fusionwb.corpus import corpus_dir
from fusionwb.io import load_fusion_spec, serialize_family
from fusionwb.linalg import canonical_kernel, nullspace, rref
from fusionwb.stable import (
    MAX_DEGREE,
    StableFamily,
    check_family,
    family_power,
    family_product,
    fusion_ea_morphisms,
    is_nilpotent,
    _constraints,
    _restrictions,
    poincare_series,
    quillen_limit_finite_group,
    quillen_limits,
    quillen_morphisms,
    stable_bases,
    stable_basis,
    stable_basis_all_morphisms,
)


# ---------------------------------------------------------------------------
# independent invariant-theory oracle: plain exponent-dict polynomials


def poly_substitute(term_exps, coeff, matrix, nvars, p):
    """Substitute x_i -> sum_j m[i][j] x_j into a monomial, mod p."""
    result = {(0,) * nvars: coeff}
    for i, e in enumerate(term_exps):
        for _ in range(e):
            nxt = {}
            for mono, c in result.items():
                for j in range(nvars):
                    if matrix[i][j] % p == 0:
                        continue
                    m2 = list(mono)
                    m2[j] += 1
                    key = tuple(m2)
                    nxt[key] = (nxt.get(key, 0) + c * matrix[i][j]) % p
            result = nxt
    return {m: c for m, c in result.items() if c % p}


def invariant_dimension(matrices, d, nvars, p):
    """Fixed subspace of the induced action on degree-d monomials."""
    monos = [m for m in itertools.product(range(d + 1), repeat=nvars)
             if sum(m) == d]
    idx = {m: i for i, m in enumerate(monos)}
    rows = []
    for mat in matrices:
        for m in monos:
            row = [0] * len(monos)
            for m2, c in poly_substitute(m, 1, mat, nvars, p).items():
                row[idx[m2]] = c
            row[idx[m]] = (row[idx[m]] - 1) % p
            if any(row):
                rows.append(row)
    return len(reference_nullspace(rows, len(monos), p))


def gl2_f2_matrices():
    mats = []
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        if (a * d - b * c) % 2:
            mats.append([[a, b], [c, d]])
    return mats


def dickson_series_coefficient(d):
    """Number of monomials in generators of degrees 2 and 3: the expansion
    of 1/((1-t^2)(1-t^3))."""
    return sum(1 for i in range(d // 2 + 1) if (d - 2 * i) % 3 == 0)


# ---------------------------------------------------------------------------
# linalg


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    red, pivots = rref(rows, 3, 5)
    assert pivots == [0, 1]
    assert len(red) == 2


def test_nullspace_canonical():
    rows = [[1, 1, 0], [0, 0, 1]]
    basis = nullspace(rows, 3, 3)
    assert basis == [[2, 1, 0]]


def _random_systems(rng, p):
    """Dense, low-rank and degenerate systems, as (rows, ncols)."""
    cases = [([], 0), ([], 4), ([[], [], []], 0), ([[0] * 5] * 4, 5)]
    for nrows, ncols in ((3, 5), (5, 5), (9, 4), (12, 7), (30, 6)):
        for _ in range(4):
            cases.append(([[rng.randrange(p) for _ in range(ncols)]
                           for _ in range(nrows)], ncols))
        # rank at most 2, with some columns zeroed: columns with no pivot
        left = [[rng.randrange(p) for _ in range(2)] for _ in range(nrows)]
        right = [[rng.randrange(p) if rng.random() < 0.7 else 0
                  for _ in range(ncols)] for _ in range(2)]
        cases.append(([[sum(a * b for a, b in zip(row, col))
                        for col in zip(*right)] for row in left], ncols))
        # entries outside [0, p), and all-zero rows between the others
        cases.append(([[rng.randrange(-2 * p, 3 * p) for _ in range(ncols)]
                       if k % 3 else [0] * ncols for k in range(nrows)],
                      ncols))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_elimination_matches_reference(p):
    rng = random.Random(1000 + p)
    for rows, ncols in _random_systems(rng, p):
        red, pivots = rref(rows, ncols, p)
        ref_red, ref_pivots = reference_rref(rows, ncols, p)
        assert pivots == ref_pivots
        assert red.tolist() == ref_red
        assert len(red) == len(ref_pivots)
        basis = nullspace(rows, ncols, p)
        assert basis == reference_nullspace(rows, ncols, p)
        assert len(basis) == ncols - len(pivots)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) % p == 0


def _random_invertible(rng, k, p):
    while True:
        m = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if len(rref(m, k, p)[1]) == k:
            return np.array(m, dtype=np.int64).reshape(k, k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_kernel_of_any_kernel_basis(p):
    # the column-reversed rref of a kernel basis, mixed by an invertible
    # matrix, is the basis nullspace gives
    rng = random.Random(2000 + p)
    for rows, ncols in _random_systems(rng, p):
        want = nullspace(rows, ncols, p)
        k = len(want)
        mixed = _random_invertible(rng, k, p) @ np.array(
            want, dtype=np.int64).reshape(k, ncols) % p
        got = canonical_kernel(mixed, ncols, p)
        assert got.shape == (k, ncols)
        assert got.tolist() == want


@st.composite
def _gf2_systems(draw):
    """(rows, ncols) at p = 2: widths about the 64-bit word boundaries,
    dense, sparse and low-rank rows, entries in [-4, 5), zero rows and zero
    columns."""
    ncols = draw(st.sampled_from([0, 1, 63, 64, 65, 128]))
    nrows = draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))

    def entry():
        return rng.randrange(-4, 5) if rng.random() < density else 0

    if draw(st.booleans()):
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    else:
        # rank at most k over the integers
        k = draw(st.integers(1, 3))
        left = [[entry() for _ in range(k)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                for row in left]
    for i in draw(st.sets(st.integers(0, 11), max_size=4)):
        if i < nrows:
            rows[i] = [0] * ncols
    for c in draw(st.sets(st.integers(0, 127), max_size=4)):
        for row in rows:
            if c < ncols:
                row[c] = 0
    return rows, ncols


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_gf2_systems())
@example(([], 0))
@example(([], 4))
@example(([[], [], []], 0))
def test_gf2_elimination_matches_reference(system):
    rows, ncols = system
    red, pivots = rref(rows, ncols, 2)
    ref_red, ref_pivots = reference_rref(rows, ncols, 2)
    assert pivots == ref_pivots
    assert all(type(c) is int for c in pivots)
    assert red.dtype == np.int32 and red.shape == (len(pivots), ncols)
    assert red.tolist() == ref_red
    assert nullspace(rows, ncols, 2) == reference_nullspace(rows, ncols, 2)
    # canonical_kernel is the rref with the columns taken from the right
    flipped = [row[::-1] for row in rows]
    assert canonical_kernel(rows, ncols, 2).tolist() == [
        row[::-1] for row in reference_rref(flipped, ncols, 2)[0][::-1]]


# ---------------------------------------------------------------------------
# cohomology of sites


def restriction_map(phi, d, p):
    """Degree-d restriction along phi : W -> V, as a list of rows."""
    return restriction_matrix(phi, Site(phi.source, p), Site(phi.target, p),
                              d).tolist()


def test_basis_p2():
    V4 = klein_four()
    s = Site(full_subgroup(V4), 2)
    monos = cohomology_basis(s, 2)
    assert [format_monomial(m, 2) for m in monos] == ["x1^2", "x1 x2", "x2^2"]
    assert [len(cohomology_basis(s, d)) for d in range(6)] == [1, 2, 3, 4, 5, 6]


def test_basis_p3():
    C3 = cyclic(3)
    s = Site(full_subgroup(C3), 3)
    assert [format_monomial(m, 3) for m in cohomology_basis(s, 1)] == ["a1"]
    assert [format_monomial(m, 3) for m in cohomology_basis(s, 2)] == ["x1"]
    C33 = elementary(3, 2)
    s2 = Site(full_subgroup(C33), 3)
    monos = cohomology_basis(s2, 3)
    assert [format_monomial(m, 3) for m in monos] == \
        ["a1 x1", "a1 x2", "a2 x1", "a2 x2"]


def test_trivial_site_basis():
    C3 = cyclic(3)
    s = Site(Subgroup(C3, (0,)), 3)
    assert len(cohomology_basis(s, 0)) == 1
    assert cohomology_basis(s, 1) == []


def test_graded_commutativity_random():
    C33 = elementary(3, 2)
    s = Site(full_subgroup(C33), 3)
    rng = random.Random(11)
    for _ in range(60):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        b1, b2 = cohomology_basis(s, d1), cohomology_basis(s, d2)
        u = CohoElement.from_terms(s, d1,
                                   {rng.choice(b1): rng.randint(1, 2)})
        v = CohoElement.from_terms(s, d2,
                                   {rng.choice(b2): rng.randint(1, 2)})
        uv = u.mul(v)
        vu = v.mul(u)
        sign = (-1) ** (d1 * d2)
        assert uv.terms == {m: sign * c % 3 for m, c in vu.terms.items()}


def test_exterior_squares_vanish():
    C33 = elementary(3, 2)
    s = Site(full_subgroup(C33), 3)
    a1 = CohoElement.from_terms(s, 1, {((1, 0), (0, 0)): 1})
    assert a1.mul(a1).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cup_product_matches_the_term_by_term_oracle(p):
    # random classes of several terms, zero factors among them, against the
    # monomial-by-monomial product; at odd p the a_i a_i, whose pair table
    # at rank 1 is empty, and every product of two a_i
    rng = random.Random(p)
    for rank in (1, 2, 3):
        s = Site(full_subgroup(elementary(p, rank)), p)
        for _ in range(40):
            x, y = [CohoElement(s, d, [rng.randrange(p) * (rng.random() < .6)
                                       for _ in cohomology_basis(s, d)])
                    for d in (rng.randint(0, 6), rng.randint(0, 6))]
            for u, v in ((x, y), (x, x), (x, CohoElement.from_terms(
                    s, y.degree, {}))):
                uv = u.mul(v)
                assert uv.degree == u.degree + v.degree
                assert all(type(c) is int and 0 <= c < p for c in uv.coords)
                assert uv.terms == reference_cup(u, v)
        if p != 2:
            gens = [CohoElement(s, 1, [int(i == j) for j in range(rank)])
                    for i in range(rank)]
            for i, ai in enumerate(gens):
                for j, aj in enumerate(gens):
                    assert ai.mul(aj).terms == reference_cup(ai, aj)
                    assert ai.mul(aj).is_zero() == (i == j)


def test_restriction_identity_and_axis():
    V4 = klein_four()
    S = full_subgroup(V4)
    ident = InjHom(S, S, S.elements)
    for d in range(4):
        m = restriction_map(ident, d, p=2)
        n = len(cohomology_basis(Site(S, 2), d))
        assert m == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    axis = Subgroup(V4, (0, 1))
    incl = inclusion_hom(axis, S)
    # in degree 1: x1 -> x, x2 -> 0 for the axis generated by basis vector 1
    m = restriction_map(incl, 1, p=2)
    assert m == [[1, 0]]


def test_restriction_of_rho_is_transpose():
    V4 = klein_four()
    S = full_subgroup(V4)
    rho = InjHom(S, S, [0, 2, 3, 1])    # basis images: 1 -> 2, 2 -> 3
    m1 = restriction_map(rho, 1, p=2)
    # rho maps v1 -> v2, v2 -> v1+v2, so M = [[0,1],[1,1]] and the
    # substitution matrix in degree 1 is exactly M
    assert m1 == [[0, 1], [1, 1]]
    # degree 2 is the symmetric square, computed by hand over F_2:
    # x1^2 -> x2^2 ; x1 x2 -> x2(x1+x2) = x1 x2 + x2^2 ; x2^2 -> x1^2+x2^2
    m2 = restriction_map(rho, 2, p=2)
    assert m2 == [[0, 0, 1], [0, 1, 0], [1, 1, 1]]


def _check_composable_pairs(F, degrees):
    """Restriction along psi o phi is R_phi R_psi for every composable pair
    of fusion morphisms; returns the number of pairs checked per degree."""
    # each map W -> V, checked again as a homomorphism
    homs = [(InjHom(sw.V, sv.V, phi.images), sw, sv)
            for phi, sw, sv in fusion_ea_morphisms(F, generating=False)[1]]
    p = F.p

    def matmul(a, b):
        if not a or not b:
            return [[0] * (len(b[0]) if b else 0) for _ in range(len(a))]
        return [[sum(a[i][t] * b[t][j] for t in range(len(b))) % p
                 for j in range(len(b[0]))] for i in range(len(a))]

    for d in degrees:
        mats = [restriction_map(phi, d, p=p) for phi, _, _ in homs]
        checked = 0
        for (phi, _, _), m_phi in zip(homs, mats):
            for (psi, _, _), m_psi in zip(homs, mats):
                if psi.source != phi.target:
                    continue
                assert restriction_map(psi.compose(phi), d, p=p) == \
                    matmul(m_phi, m_psi)
                checked += 1
    return checked


def test_restriction_functoriality_composable_pairs():
    A4 = alternating4()
    F = fusion_from_group(sylow_p(A4, 2), A4)
    assert _check_composable_pairs(F, [3]) > 10


def _linear_automorphism(S, p, mat):
    """The automorphism of S acting by mat on the coordinates of the basis
    of Site(S, p)."""
    site = Site(S, p)
    elem_of = {v: x for x, v in site.coords.items()}
    n = site.rank
    return InjHom(S, S, [
        elem_of[tuple(sum(mat[i][j] * site.coords[x][j] for j in range(n)) % p
                      for i in range(n))]
        for x in S.elements])


def test_restriction_functoriality_odd_p():
    # C3 x C3 with Q8 < GL2(3): its elements are not monomial, so the image
    # of a1 a2 is a sum of products a_j a_k whose reordering carries signs
    S = full_subgroup(elementary(3, 2))
    gens = [_linear_automorphism(S, 3, m)
            for m in ([[0, 2], [1, 0]], [[1, 1], [1, 2]])]
    F = generate_fusion(S, 3, gens)
    assert len(F.aut_set(S)) == 8
    assert _check_composable_pairs(F, range(6)) > 100
    ident = InjHom(S, S, S.elements)
    for d in range(6):
        n = len(cohomology_basis(Site(S, 3), d))
        assert restriction_map(ident, d, p=3) == \
            [[int(i == j) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# the batched restriction kernel against the per-morphism reference


def _random_homs(rng, n_w, n_v, p):
    """A zero matrix, one with two equal columns (not injective when
    n_w > 1) and two uniform ones, as an (m, n_v, n_w) list."""
    def uniform():
        return [[rng.randrange(p) for _ in range(n_w)] for _ in range(n_v)]
    repeated = [row[:1] * n_w for row in uniform()]
    return [[[0] * n_w for _ in range(n_v)], repeated, uniform(), uniform()]


# top degree checked by the larger rank: the product steps split even and
# odd degrees differently, so every degree up to the cap is checked at
# ranks up to 2
TOP_DEGREE = {1: MAX_DEGREE, 2: MAX_DEGREE, 3: 12, 4: 8}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_batched_restriction_matches_reference(p):
    rng = random.Random(7 * p)
    for n_w, n_v in itertools.product(range(1, 5), repeat=2):
        homs = _random_homs(rng, n_w, n_v, p)
        top = TOP_DEGREE[max(n_w, n_v)]
        want = [reference_restrictions(hom, n_w, n_v, p, top) for hom in homs]
        for d in range(top + 1):
            shape = (len(_basis(n_w, p, d)), len(_basis(n_v, p, d)))
            for first, last in ((0, len(homs)), (2, 3), (0, 0)):
                got = restriction_matrices(
                    np.array(homs[first:last], dtype=np.int32).reshape(
                        -1, n_v, n_w), n_w, n_v, p, d)
                assert got.shape == (last - first, *shape)
                assert got.dtype == np.int32
                for k, image in enumerate(got, first):
                    assert np.array_equal(image, want[k][d])


def test_product_steps_build_each_degree_from_two_lower_ones():
    for p, d in itertools.product((2, 3, 5), (3, 8, 13)):
        built = {0, 1} if p == 2 else {0, 1, 2}
        for k, a, b in cohomology._chain(p, d):
            assert k == a + b and a in built and b in built
            built.add(k)
        assert d in built
    # halving: O(log d) steps
    assert [k for k, _, _ in cohomology._chain(2, 40)] == \
        [2, 3, 5, 10, 20, 40]
    assert [k for k, _, _ in cohomology._chain(3, 30)] == \
        [4, 6, 8, 14, 16, 30]


@pytest.mark.parametrize("p", [2, 3])
def test_product_steps_in_slices_match_reference(monkeypatch, p):
    # a bound of 7 elements slices every step by columns and by maps
    monkeypatch.setattr(cohomology, "_STEP_ELEMENTS", 7)
    rng = random.Random(p)
    for n_w, n_v in ((1, 2), (2, 2), (3, 2), (2, 3)):
        homs = _random_homs(rng, n_w, n_v, p)
        want = [reference_restrictions(hom, n_w, n_v, p, 9) for hom in homs]
        for d in range(10):
            got = restriction_matrices(np.array(homs), n_w, n_v, p, d)
            for k, image in enumerate(got):
                assert np.array_equal(image, want[k][d])


def test_batched_restriction_of_an_empty_batch():
    for p, d in ((2, 3), (3, 4)):
        got = restriction_matrices(np.zeros((0, 2, 3), dtype=np.int32),
                                   3, 2, p, d)
        assert got.shape == (0, len(_basis(3, p, d)), len(_basis(2, p, d)))
    with pytest.raises(ValueError):
        restriction_matrices(np.zeros((0, 2, 3)), 3, 2, 2, -1)


def _automizer_system(p, rank, mats):
    S = full_subgroup(elementary(p, rank))
    return generate_fusion(S, p, [_linear_automorphism(S, p, m)
                                  for m in mats])


# The generators of the c2e4_shift and c3e2_q8 inputs of the benchmark:
# a 4-cycle of the coordinates of C2^4, and Q8 < GL2(3) on C3^2.
KERNEL_SYSTEMS = {
    "c2e4_shift": lambda: _automizer_system(
        2, 4, [[[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]),
    "c3e2_q8": lambda: _automizer_system(
        3, 2, [[[0, 2], [1, 0]], [[1, 1], [1, 2]]]),
}


# (sites, constraints, pullbacks, every morphism) of each KERNEL_SYSTEMS system
KERNEL_COUNTS = {"c2e4_shift": (67, 75, 44, 1729), "c3e2_q8": (6, 6, 3, 78)}


def _is_identity(phi, sw, sv):
    return sw.key == sv.key and phi.images == sw.key


@pytest.mark.parametrize("name", KERNEL_SYSTEMS)
def test_restriction_on_generating_morphisms(name):
    F = KERNEL_SYSTEMS[name]()
    limit = fusion_ea_morphisms(F)
    sites, homs, pulls = limit
    every = fusion_ea_morphisms(F, generating=False)
    assert (len(sites), len(homs), len(pulls), len(every[1])) == \
        KERNEL_COUNTS[name]
    pulled = {sw.key for _, sw, _ in pulls}
    solved = [s for s in sites if s.key not in pulled]
    for lim in (limit, every):
        maps = lim[1] + lim[2]
        for d in range(4):
            want = [reference_restriction_matrix(phi, sw, sv, d)
                    for phi, sw, sv in maps]
            for (phi, sw, sv), ref in zip(maps, want):
                assert np.array_equal(restriction_matrix(phi, sw, sv, d), ref)
            seen = []
            for positions, w, v, images in _restrictions(lim, d, F.p):
                seen.extend(positions.tolist())
                for k, i, j, image in zip(positions, w, v, images):
                    assert (lim[0][i], lim[0][j]) == maps[k][1:]
                    assert np.array_equal(image, want[k])
            # every map but the identities, which constrain nothing
            assert sorted(seen) == [k for k, m in enumerate(maps)
                                    if not _is_identity(*m)]
    index = {s.key: i for i, s in enumerate(sites)}
    for d in range(4):
        *_, system, pulled = _constraints(limit, d, F.p)
        assert np.array_equal(system,
                              reference_constraints(solved, homs, d, F.p))
        assert len(pulled) == len(pulls)
        for phi, sw, sr in pulls:
            r, image = pulled[index[sw.key]]
            assert sites[r] is sr
            assert np.array_equal(image,
                                  reference_restriction_matrix(phi, sw, sr, d))


def test_constraints_match_the_per_morphism_assembly():
    V4 = klein_four()
    S = full_subgroup(V4)
    S4 = symmetric(4)
    cases = [fusion_ea_morphisms(generate_fusion(
                 S, 2, [InjHom(S, S, [0, 2, 3, 1]), InjHom(S, S, [0, 2, 1, 3])]),
                 generating=False),
             fusion_ea_morphisms(fusion_from_group(sylow_p(S4, 2), S4)),
             quillen_morphisms(S4, 2), quillen_morphisms(S4, 3)]
    for limit in cases:
        sites, homs, pulls = limit
        pulled = {sw.key for _, sw, _ in pulls}
        solved = [s for s in sites if s.key not in pulled]
        p = sites[0].p
        for d in range(6):
            assert np.array_equal(_constraints(limit, d, p)[2],
                                  reference_constraints(solved, homs, d, p))


# ---------------------------------------------------------------------------
# stable bases


def test_stable_trivial_c2():
    C2 = cyclic(2)
    F = fusion_from_group(full_subgroup(C2), C2)
    assert [len(stable_basis(F, d)) for d in range(8)] == [1] * 8


def test_stable_gl2_matches_invariant_oracle_and_dickson():
    V4 = klein_four()
    S = full_subgroup(V4)
    rho = InjHom(S, S, [0, 2, 3, 1])
    tau = InjHom(S, S, [0, 2, 1, 3])
    F = generate_fusion(S, 2, [rho, tau])
    mats = gl2_f2_matrices()
    for d in range(13):
        dim = len(stable_basis(F, d))
        assert dim == invariant_dimension(mats, d, 2, 2)
        assert dim == dickson_series_coefficient(d)


def test_stable_a4_matches_invariant_oracle():
    V4 = klein_four()
    S = full_subgroup(V4)
    rho = InjHom(S, S, [0, 2, 3, 1])
    F = generate_fusion(S, 2, [rho])
    mats = [[[1, 0], [0, 1]], [[0, 1], [1, 1]], [[1, 1], [1, 0]]]
    for d in range(13):
        assert len(stable_basis(F, d)) == invariant_dimension(mats, d, 2, 2)
    assert [len(stable_basis(F, d)) for d in range(7)] == [1, 0, 1, 2, 1, 2, 3]


def test_stable_v4_inner_dimension_is_degree_plus_one():
    V4 = klein_four()
    F = fusion_from_group(full_subgroup(V4), V4, p=2)
    assert [len(stable_basis(F, d)) for d in range(7)] == list(range(1, 8))


def _terms(families):
    """Each family as {site key: terms of its component}."""
    return [{key: comp.terms for key, comp in fam.components.items()}
            for fam in families]


def test_generating_morphisms_suffice():
    V4 = klein_four()
    S = full_subgroup(V4)
    rho = InjHom(S, S, [0, 2, 3, 1])
    for gens in ([rho], [rho, InjHom(S, S, [0, 2, 1, 3])]):
        F = generate_fusion(S, 2, gens)
        for d in range(8):
            assert _terms(stable_basis(F, d)) == \
                _terms(stable_basis_all_morphisms(F, d))


def test_corpus_check_compares_the_families_not_their_number(monkeypatch):
    # the same families in another order: as many, but another basis
    real = corpus.stable_basis
    monkeypatch.setattr(corpus, "stable_basis",
                        lambda F, d: real(F, d)[::-1])
    report = corpus.corpus_check()
    assert len(report.failures) == 1
    assert re.fullmatch(r"stable: AssertionError: generating morphisms are "
                        r"not sufficient \(corpus\.py:\d+\)",
                        report.failures[0])


def _corpus_system(name):
    return load_fusion_spec(corpus_dir() / f"{name}.fus").fusion()


def _transporter(G):
    return fusion_from_group(sylow_p(G, 2), G, p=2)


# The systems of the stable-series benchmark, with the top degree checked:
# 8 up to rank 3, 4 at rank 4.  s4xc2 is F_S(S4 x C2), S = D8 x C2.
SERIES_SYSTEMS = {
    "v4_gl2": (lambda: _corpus_system("v4_gl2"), 8),
    "v4_rho": (lambda: _corpus_system("v4_rho"), 8),
    "c2e3_singer": (lambda: _automizer_system(
        2, 3, [[[0, 0, 1], [1, 0, 1], [0, 1, 0]]]), 8),
    "c3e2_q8": (KERNEL_SYSTEMS["c3e2_q8"], 8),
    "s4xc2": (lambda: _transporter(direct_product(symmetric(4), cyclic(2))),
              8),
    "c2e4_shift": (KERNEL_SYSTEMS["c2e4_shift"], 4),
}


@pytest.mark.parametrize("name", SERIES_SYSTEMS)
def test_elimination_on_the_series_systems(name):
    # the packed path at p = 2 on the benchmark's constraint systems
    F = SERIES_SYSTEMS[name][0]()
    limit = fusion_ea_morphisms(F)
    for d in range(5):
        system = _constraints(limit, d, F.p)[2]
        red, pivots = rref(system, system.shape[1], F.p)
        assert (red.tolist(), pivots) == reference_rref(
            system.tolist(), system.shape[1], F.p)


@pytest.mark.parametrize("name", SERIES_SYSTEMS)
def test_class_reduced_limit_matches_every_site(name):
    # term by term: the old generating set with unknowns on every site, and
    # every morphism through the library's own solver
    build, top = SERIES_SYSTEMS[name]
    F = build()
    sites = fusion_ea_morphisms(F)[0]
    old = reference_fusion_ea_morphisms(F, sites)
    for d, families in enumerate(stable_bases(F, top)):
        terms = _terms(families)
        assert terms == reference_limit_terms(sites, old, d, F.p)
        assert terms == _terms(stable_basis_all_morphisms(F, d))


@pytest.mark.parametrize("name", ["v4_rho", "c2e3_singer", "c3e2_q8"])
def test_stable_dimension_is_the_reynolds_rank(name):
    # F generated by A = Aut_F(S) on S = V with p not dividing |A|: the
    # stable elements are H^d(V)^A, the image of sum_{g in A} g^*, so their
    # dimension is that sum's rank, with no elimination over the system
    F = SERIES_SYSTEMS[name][0]()
    site = Site(F.S, F.p)
    autos = F.aut_set(F.S)
    assert fusion_ea_morphisms(F)[0][-1].key == F.S.elements   # S = V
    assert len(autos) % F.p
    for d, families in enumerate(stable_bases(F, 12)):
        reynolds = sum(reference_restriction_matrix(g, site, site, d)
                       for g in autos) % F.p
        rows, _ = reference_rref(reynolds.tolist(), reynolds.shape[1], F.p)
        assert len(families) == len(rows)


def _verdict(check, fam):
    try:
        return check(fam)
    except IncompatibleFamily as exc:
        return str(exc)


@pytest.mark.parametrize("name", SERIES_SYSTEMS)
def test_check_family_matches_the_per_morphism_check(name):
    # every basis family up to degree 4, and each with one coefficient
    # moved at one site, by turns, gets the old verdict and message
    F = SERIES_SYSTEMS[name][0]()
    refused = 0
    for d, families in enumerate(stable_bases(F, 4)):
        for k, fam in enumerate(families):
            assert check_family(fam) is reference_check_family(fam) is True
            sites = [s for s in fam.sites if cohomology_basis(s, d)]
            site = sites[k % len(sites)]
            mono = cohomology_basis(site, d)[k % len(cohomology_basis(site, d))]
            comps = dict(fam.components)
            terms = dict(comps[site.key].terms)
            terms[mono] = terms.get(mono, 0) + 1
            comps[site.key] = CohoElement.from_terms(site, d, terms)
            moved = StableFamily(F, d, comps, fam.sites)
            verdict = _verdict(check_family, moved)
            assert verdict == _verdict(reference_check_family, moved)
            refused += verdict is not True
    assert refused


def test_check_family_refuses_a_family_declared_at_the_wrong_degree():
    F = SERIES_SYSTEMS["v4_rho"][0]()
    fam = stable_basis(F, 2)[0]
    wrong = StableFamily(F, 4, fam.components, fam.sites)
    assert reference_check_family(wrong)
    with pytest.raises(IncompatibleFamily, match="is not of degree 4"):
        check_family(wrong)


def test_unknowns_sit_on_class_representatives():
    F = KERNEL_SYSTEMS["c2e4_shift"]()
    sites, homs, pulls = fusion_ea_morphisms(F)
    keys = {s.key for s in sites}
    reps = {cls[0].elements for cls in F.conjugacy_classes()
            if cls[0].elements in keys}
    assert (len(sites), len(reps)) == (67, 23)
    # every other site is pulled back along the least map onto its
    # representative, and the constraints join representatives only
    assert sorted(sw.key for _, sw, _ in pulls) == sorted(keys - reps)
    for phi, sw, sv in pulls:
        onto = [h.images for h in F.homsets[sw.key]
                if h.image_elements() == sv.key]
        assert sv.key in reps and phi.images == min(onto)
    assert all(sw.key in reps and sv.key in reps for _, sw, sv in homs)
    triples = {(phi.images, sw.key, sv.key) for phi, sw, sv in homs}
    assert len(triples) == len(homs) < len(reference_fusion_ea_morphisms(
        F, sites))


def test_c2e4_shift_series_to_degree_eight():
    F = KERNEL_SYSTEMS["c2e4_shift"]()
    assert poincare_series(F, 8) == [1, 1, 3, 5, 10, 14, 22, 30, 43]


def _mat_inverse(m, p):
    n = len(m)
    red, _ = rref([list(row) + [int(i == j) for j in range(n)]
                   for i, row in enumerate(m)], 2 * n, p)
    return red[:, n:].tolist()


def _mat_mul(a, b, p):
    return (np.array(a) @ np.array(b) % p).tolist()


# name -> (p, rank, automizer generators, top degree)
CONJUGATED_SYSTEMS = {
    "c2e3_singer": (2, 3, [[[0, 0, 1], [1, 0, 1], [0, 1, 0]]], 8),
    "c2e4_shift": (2, 4, [[[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0],
                           [0, 0, 1, 0]]], 6),
    "c3e2_q8": (3, 2, [[[0, 2], [1, 0]], [[1, 1], [1, 2]]], 8),
}


@pytest.mark.parametrize("name", CONJUGATED_SYSTEMS)
def test_poincare_series_is_invariant_under_gl_conjugation(name):
    p, rank, mats, top = CONJUGATED_SYSTEMS[name]
    want = poincare_series(_automizer_system(p, rank, mats), top)
    rng = random.Random(name)
    for _ in range(2):
        g = _random_invertible(rng, rank, p).tolist()
        conj = [_mat_mul(_mat_mul(g, m, p), _mat_inverse(g, p), p)
                for m in mats]
        assert conj != mats
        assert poincare_series(_automizer_system(p, rank, conj), top) == want


def test_poincare_series():
    C3 = cyclic(3)
    F = fusion_from_group(full_subgroup(C3), C3)
    assert poincare_series(F, 9) == [1] * 10
    V4 = klein_four()
    S = full_subgroup(V4)
    FGL = generate_fusion(S, 2, [InjHom(S, S, [0, 2, 3, 1]),
                                 InjHom(S, S, [0, 2, 1, 3])])
    dims = poincare_series(FGL, 12)
    assert dims == [dickson_series_coefficient(d) for d in range(13)]


def test_quillen_limits_of_a_composite_p_are_refused():
    # p = 4 once failed deep inside, on an element of order 2 in a "site"
    with pytest.raises(ValueError, match="p = 4 is not a prime"):
        quillen_limits(symmetric(4), 4, [1])


def _count_calls(monkeypatch, name):
    """Wrap stable.<name> so that each call appends its arguments to the
    returned list."""
    calls, real = [], getattr(stable, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stable, name, counting)
    return calls


def test_degree_cap(monkeypatch):
    # the degrees are checked before the sites and maps of a cold system
    # are built
    builds = _count_calls(monkeypatch, "_site_morphisms")
    F = KERNEL_SYSTEMS["c2e4_shift"]()
    with pytest.raises(DegreeBoundExceeded):
        stable_basis(F, 41)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        stable_basis(F, -1)
    with pytest.raises(DegreeBoundExceeded):
        poincare_series(F, 50)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        quillen_limits(symmetric(4), 2, [3, -1])
    assert builds == []


def test_sites_and_maps_are_built_once_per_fusion_system(monkeypatch):
    builds = _count_calls(monkeypatch, "_site_morphisms")
    F = SERIES_SYSTEMS["c2e3_singer"][0]()
    limit = fusion_ea_morphisms(F)
    assert fusion_ea_morphisms(F) is limit
    dims = [len(stable_basis(F, d)) for d in range(7)]
    assert [len(fams) for fams in stable_bases(F, 6)] == dims
    assert poincare_series(F, 6) == dims
    assert len(builds) == 1
    assert all(fam.sites is limit[0] for fam in stable_basis(F, 4))


def test_every_morphism_is_built_once_per_fusion_system(monkeypatch):
    C33 = elementary(3, 2)
    F = fusion_from_group(full_subgroup(C33), C33, p=3)
    fams = stable_basis(F, 3)
    assert fams
    searches = _count_calls(monkeypatch, "elementary_abelians")
    for _ in range(2):
        for fam in fams:
            assert check_family(fam)
            is_nilpotent(fam)
    assert len(searches) == 1
    assert fusion_ea_morphisms(F, generating=False) is \
        fusion_ea_morphisms(F, generating=False)


def test_quillen_maps_are_built_once_per_group_and_prime(monkeypatch):
    builds = _count_calls(monkeypatch, "_site_morphisms")
    S4 = symmetric(4)
    for p in (2, 3):
        for d in range(4):
            quillen_limit_finite_group(S4, p, d)
    assert [args[2] for args in builds] == [2, 3]
    assert quillen_morphisms(S4, 3) is quillen_morphisms(S4, 3)


# name -> a fresh system, for the warm-equals-cold check
WARM_SYSTEMS = {
    "v4_gl2": lambda: _corpus_system("v4_gl2"),
    "c3_inversion": lambda: _corpus_system("c3_inversion"),
    "c2e3_singer": SERIES_SYSTEMS["c2e3_singer"][0],
    "c2e4_shift": KERNEL_SYSTEMS["c2e4_shift"],
}


@pytest.mark.parametrize("name", WARM_SYSTEMS)
def test_a_warm_system_answers_as_a_cold_one(name):
    warm = WARM_SYSTEMS[name]()
    for fams in stable_bases(warm, 8):
        for fam in fams:
            assert check_family(fam)
    for generating in (True, False):
        limit = fusion_ea_morphisms(warm, generating)
        assert isinstance(limit, tuple) and len(limit) == 3
        assert all(type(part) is tuple for part in limit)
    for d in range(9):
        cold = WARM_SYSTEMS[name]()
        assert [serialize_family(f) for f in stable_basis(warm, d)] == \
            [serialize_family(f) for f in stable_basis(cold, d)]


def test_degree_forty_at_the_cap():
    V4 = klein_four()
    S = full_subgroup(V4)
    F = generate_fusion(S, 2, [InjHom(S, S, [0, 2, 3, 1]),
                               InjHom(S, S, [0, 2, 1, 3])])
    assert len(stable_basis(F, 40)) == dickson_series_coefficient(40)


def test_families_multiply():
    V4 = klein_four()
    S = full_subgroup(V4)
    F = generate_fusion(S, 2, [InjHom(S, S, [0, 2, 3, 1])])
    for d1, d2 in ((2, 2), (2, 3), (3, 3)):
        for f1 in stable_basis(F, d1):
            for f2 in stable_basis(F, d2):
                prod = family_product(f1, f2)
                assert check_family(prod)
                assert prod.degree == d1 + d2


def test_quillen_limits():
    V4 = klein_four()
    assert [quillen_limit_finite_group(V4, 2, d).dimension
            for d in range(6)] == [1, 2, 3, 4, 5, 6]
    C6 = cyclic(6)
    assert [quillen_limit_finite_group(C6, 3, d).dimension
            for d in range(6)] == [1] * 6


def test_quillen_matches_stable_for_a4_and_s4():
    V4 = klein_four()
    S = full_subgroup(V4)
    FA = generate_fusion(S, 2, [InjHom(S, S, [0, 2, 3, 1])])
    A4 = alternating4()
    for d in range(10):
        assert quillen_limit_finite_group(A4, 2, d).dimension == \
            len(stable_basis(FA, d))
    S4 = symmetric(4)
    FS = fusion_from_group(sylow_p(S4, 2), S4)
    for d in range(8):
        assert quillen_limit_finite_group(S4, 2, d).dimension == \
            len(stable_basis(FS, d))


# ---------------------------------------------------------------------------
# nilpotence


@pytest.fixture(scope="module")
def f33():
    C33 = elementary(3, 2)
    return fusion_from_group(full_subgroup(C33), C33, p=3)


def test_nilpotent_exterior_class(f33):
    fams = stable_basis(f33, 1)
    assert len(fams) == 2
    for fam in fams:
        assert is_nilpotent(fam)
        assert family_power(fam, 2).is_zero()


def test_non_nilpotent_polynomial_class(f33):
    # degree 2 carries x1, x2 and the exterior class a1 a2
    fams = stable_basis(f33, 2)
    assert len(fams) == 3
    flags = [is_nilpotent(fam) for fam in fams]
    assert sorted(flags) == [False, False, True]
    for fam, flag in zip(fams, flags):
        assert family_power(fam, 3).is_zero() == flag


def test_antisymmetric_class_squares_to_zero(f33):
    site = next(s for s in (Site(V, 3) for V in
                            [f33.S]) if s.rank == 2)
    u = CohoElement.from_terms(site, 3, {((1, 0), (0, 1)): 1,
                                         ((0, 1), (1, 0)): -1})
    assert u.mul(u).is_zero()
    assert u.poly_projection().is_zero()


def test_nilpotence_matches_cubing_exhaustively(f33):
    for d in range(9):
        for fam in stable_basis(f33, d):
            assert is_nilpotent(fam) == family_power(fam, 3).is_zero()
            if not is_nilpotent(fam):
                assert any(not c.poly_projection().is_zero()
                           for c in fam.components.values())


def test_p2_nilpotent_iff_zero():
    V4 = klein_four()
    F = fusion_from_group(full_subgroup(V4), V4, p=2)
    for d in range(5):
        for fam in stable_basis(F, d):
            assert not is_nilpotent(fam)
        zero = StableFamily(F, d, {s.key: CohoElement.from_terms(s, d, {})
                                   for s in stable_basis(F, 0)[0].sites},
                            stable_basis(F, 0)[0].sites)
        assert is_nilpotent(zero)


def test_family_power_needs_a_positive_exponent(f33):
    fam = stable_basis(f33, 2)[0]
    assert family_power(fam, 1) is fam
    for k in (0, -1):
        with pytest.raises(ValueError):
            family_power(fam, k)


def test_family_product_refuses_a_degree_above_the_cap(monkeypatch):
    V4 = klein_four()
    x = stable_basis(fusion_from_group(full_subgroup(V4), V4, p=2), 1)[0]
    top = family_power(x, MAX_DEGREE)
    assert top.degree == MAX_DEGREE and check_family(top)
    with pytest.raises(DegreeBoundExceeded, match="degree 41 exceeds cap 40"):
        family_product(top, x)
    # family_power refuses before its first product
    calls = []

    def counted(f1, f2):
        calls.append(f1.degree)
        return family_product(f1, f2)

    monkeypatch.setattr(stable, "family_product", counted)
    with pytest.raises(DegreeBoundExceeded, match="degree 45 exceeds cap 40"):
        family_power(x, 45)
    assert calls == []
    assert family_power(x, 3).degree == 3 and calls == [1, 2]


def test_family_product_refuses_families_over_different_systems(f33):
    path = corpus_dir() / "v4_gl2.fus"
    F = load_fusion_spec(path).fusion()
    trivial = fusion_from_group(F.S, F.group, p=2)
    x = stable_basis(F, 2)[0]
    for y in (stable_basis(trivial, 1)[0], stable_basis(f33, 1)[0]):
        with pytest.raises(IncompatibleFamily, match="different fusion"):
            family_product(x, y)
    # an equal system built again is the same system
    same = stable_basis(load_fusion_spec(path).fusion(), 2)[0]
    assert family_product(x, same).F is F
    assert check_family(family_product(x, same))


def test_incompatible_family_rejected(f33):
    fam = stable_basis(f33, 2)[0]
    broken = dict(fam.components)
    top = f33.S.elements
    site = next(s for s in fam.sites if s.key == top)
    broken[top] = CohoElement.from_terms(site, 4, {((0, 0), (2, 0)): 1})
    bad = StableFamily(f33, 2, broken, fam.sites)
    with pytest.raises(IncompatibleFamily):
        is_nilpotent(bad)
