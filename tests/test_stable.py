import dataclasses
import gc
import itertools
import math
import random
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conjugation_oracle import (
    inclusion_hom,
    reference_fusion_ea_morphisms,
    reference_greedy_generators,
    reference_site_morphisms,
)
from elimination_oracle import reference_nullspace, reference_rref
from group_oracle import reference_check_family
from hypothesis import example, given, settings
from hypothesis import strategies as st
from restriction_oracle import (
    _merge_exterior,
    reference_constraints,
    reference_cup,
    reference_limit_terms,
    reference_polynomial_part,
    reference_products,
    reference_restriction_matrix,
    reference_restrictions,
)

from fusionwb.catalog import (
    alternating4,
    cyclic,
    dihedral8,
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
    MAX_TABLE_ORDER,
    InjHom,
    Subgroup,
    full_subgroup,
    sylow_p,
)
from fusionwb import cohomology, corpus, linalg, stable
from fusionwb.corpus import corpus_dir
from fusionwb.io import load_fusion_spec, serialize_family
from fusionwb.linalg import canonical_kernel, nullspace, rref
from fusionwb.stable import (
    MAX_DEGREE,
    StableFamily,
    _all_morphisms,
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
    """Dense, low-rank and degenerate systems, as (rows, ncols); some wider
    than 64 columns, so more than one machine word at every field width."""
    cases = [([], 0), ([], 4), ([], 70), ([[], [], []], 0),
             ([[0] * 5] * 4, 5)]
    for nrows, ncols in ((3, 5), (5, 5), (9, 4), (12, 7), (30, 6), (6, 65),
                         (40, 130)):
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 509])
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 509])
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


def test_packed_fields_reduce_mod_p_by_one_multiply():
    # x M >> S is x // p for every field value x < p^2 that a row op makes,
    # and x M stays below 2^(S + b) <= 2^w, b the bits of p: so in a row of
    # w-bit fields the quotients land in the low b bits of their own fields
    for p in range(3, MAX_TABLE_ORDER + 1, 2):
        if any(p % r == 0 for r in range(3, math.isqrt(p) + 1, 2)):
            continue
        w, mul, shift, b = linalg._reducer(p)
        x = np.arange(p * p, dtype=np.int64)
        assert np.array_equal(x * mul >> shift, x // p)
        assert p < 2 ** b and shift + b <= w and w in (8, 16, 32, 64)
        assert int((x * mul).max()) < 2 ** (shift + b)


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


PRODUCT_RANKS = [(2, n) for n in range(6)] + [
    (p, n) for p in (3, 5) for n in range(4)]


@pytest.mark.parametrize("p,n", PRODUCT_RANKS)
def test_product_tables_match_the_pair_loop(p, n):
    # the pair tables of the kernel's product steps and of mul, built on
    # whole arrays, against the loop over every pair of monomials
    for a in range(13):
        for b in range(13 - a):
            got = cohomology._products(n, p, a, b)
            want = reference_products(n, p, a, b)
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                else:
                    assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_describe_matches_the_term_rendering(p):
    # describe reads the cached terms; the terms rendered one by one are
    # the reference, on seeded coordinates (ranks past the table cap at
    # p = 5 on a site that only carries its rank and prime)
    rng = random.Random(p)
    for n in range(5):
        site = type("RankSite", (), {"rank": n, "p": p})()
        for d in range(7):
            size = len(_basis(n, p, d))
            for density in (0, .3, 1):
                x = CohoElement(site, d, [
                    rng.randrange(1, p) if rng.random() < density else 0
                    for _ in range(size)])
                want = " ".join(f"{format_monomial(mono, p)}:{c}"
                                for mono, c in x.terms.items()) or "0"
                assert x.describe() == want


def _basis_count(n, p, d):
    """The size of the degree-d basis of a rank-n site, counted: at odd p,
    k of the a_i and a polynomial part of degree (d - k) / 2."""
    if p == 2:
        return math.comb(d + n - 1, n - 1) if n else int(d == 0)
    return sum(math.comb(n, k) * (math.comb((d - k) // 2 + n - 1, n - 1)
                                  if n else int(d == k))
               for k in range(min(n, d) + 1) if (d - k) % 2 == 0)


def test_float64_pullback_and_product_codes_fit_every_site():
    # a pullback sums B_R products of two entries in [0, p) in float64, so
    # it is exact while (p - 1)^2 B_R < 2^53; the product tables add codes
    # below 2^n (a + b + 1)^n in int64, and the closed form from a rank-1
    # site multiplies n entries in [0, p) in int64.  Every site of a group
    # under the table cap, at every degree up to the cap, stays inside all
    # three.
    for n in range(4):
        for p in (2, 3, 5):
            assert [_basis_count(n, p, d) for d in range(13)] == \
                [len(_basis(n, p, d)) for d in range(13)]
    primes = [q for q in range(2, MAX_TABLE_ORDER + 1)
              if all(q % r for r in range(2, math.isqrt(q) + 1))]
    for p in primes:
        n = 0
        while p ** n <= MAX_TABLE_ORDER:
            top = max(_basis_count(n, p, d) for d in range(MAX_DEGREE + 1))
            assert (p - 1) ** 2 * top < 2 ** 53
            assert 2 ** n * (MAX_DEGREE + 1) ** n < 2 ** 63
            assert (p - 1) ** n < 2 ** 63
            n += 1


def test_no_restriction_out_of_a_site_with_no_class(monkeypatch):
    # at d >= 1 the trivial site has no class, so no map out of it is
    # restricted; at d = 0 it has one, and its maps are, and the Limit
    # keeps their degree-0 stack alone
    calls = []
    real = stable.Limit.stack

    def counting(limit, i, d, pulls=False):
        calls.append((limit.shapes[i][0][0], d))
        return real(limit, i, d, pulls)

    monkeypatch.setattr(stable.Limit, "stack", counting)
    for make in KERNEL_SYSTEMS.values():
        F = make()
        for d in range(5):
            calls.clear()
            stable_basis(F, d)
            assert calls
            assert any(n_w == 0 for n_w, _ in calls) == (d == 0)
        limit = fusion_ea_morphisms(F)
        kept = [len(stacks) for (i, _), stacks in limit._stacks.items()
                if limit.shapes[i][0][0] == 0]
        assert kept and set(kept) == {1}


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
            for phi, sw, sv in _all_morphisms(F)[1]]
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 509])
def test_restriction_from_a_rank_one_site_matches_reference(p):
    # the closed form: every degree up to the cap, at p = 509 only a few
    top = MAX_DEGREE if p < 509 else 6
    rng = random.Random(11 * p)
    for n_v in range(1, 5):
        homs = _random_homs(rng, 1, n_v, p)
        homs.append([[rng.randrange(1, p)] for _ in range(n_v)])
        want = [reference_restrictions(hom, 1, n_v, p, top) for hom in homs]
        for d in range(top + 1):
            got = restriction_matrices(np.array(homs, dtype=np.int32),
                                       1, n_v, p, d)
            assert got.shape == (len(homs), 1, len(_basis(n_v, p, d)))
            assert got.dtype == np.int32
            for k, image in enumerate(got):
                assert np.array_equal(image, want[k][d])


def test_a_rank_one_stack_runs_no_product_step(monkeypatch):
    steps = _counting_steps(monkeypatch)
    rng = random.Random(5)
    for p, n_w in itertools.product((2, 3), (1, 2)):
        homs = np.array(_random_homs(rng, n_w, 3, p), dtype=np.int32)
        for d in range(1, 9):
            restriction_matrices(homs, n_w, 3, p, d)
    assert steps and {n_w for _, n_w, _, _ in steps} == {2}


def _counting_steps(monkeypatch):
    """Patch cohomology._product_step so that each step appends its
    (len(low), n_w, a, b) to the returned list."""
    steps, real = [], cohomology._product_step

    def counting(low, high, n_w, n_v, p, a, b):
        steps.append((len(low), n_w, a, b))
        return real(low, high, n_w, n_v, p, a, b)

    monkeypatch.setattr(cohomology, "_product_step", counting)
    return steps


def test_product_steps_build_each_degree_from_two_lower_ones(monkeypatch):
    # degree k is one product step over degree k - 1 at p = 2, (1, k - 1),
    # and over degree k - 2 at odd p, (2, k - 2), after the (1, 1) step
    # that gives the a_i a_j of degree 2: each step reads degrees built
    # before it, one step per degree above 1
    steps = _counting_steps(monkeypatch)
    rng = random.Random(3)
    for p, d in itertools.product((2, 3, 5), (3, 8, 13)):
        homs = np.array(_random_homs(rng, 2, 2, p), dtype=np.int32)
        del steps[:]
        restriction_matrices(homs, 2, 2, p, d)
        built = {0, 1} if p == 2 else {0, 1, 2}
        splits = [(a, b) for _, _, a, b in steps]
        for a, b in splits[p != 2:]:
            assert a in built and b in built
            built.add(a + b)
        assert d in built
        assert len(splits) == d - 1
        if p == 2:
            assert splits == [(1, k - 1) for k in range(2, d + 1)]
        else:
            assert splits == [(1, 1)] + [(2, k - 2) for k in range(3, d + 1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_basis_is_every_monomial_in_decreasing_order(p):
    # by definition: every (eps, alpha) with sum(eps) + x sum(alpha) = d,
    # x the degree of a polynomial generator, eps zero at p = 2
    x = 1 if p == 2 else 2
    for n in range(5):
        by_degree = {}
        for eps in itertools.product((0,) if p == 2 else (0, 1), repeat=n):
            for alpha in itertools.product(range(10 // x + 1), repeat=n):
                d = sum(eps) + x * sum(alpha)
                by_degree.setdefault(d, set()).add((eps, alpha))
        for d in range(11):
            got = _basis(n, p, d)
            assert set(got) == by_degree.get(d, set())
            assert all(m1 > m2 for m1, m2 in zip(got, got[1:]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_product_step_splits_multiply_to_their_monomial(p):
    # every step of the kernel up to degree 12, (1, k - 1) at p = 2 and
    # (2, k - 2) at odd p, and at odd p the a_i a_j of degree 2: split j is
    # a pair that multiplies to monomial j with sign +1, and the splits
    # cover a prefix of the basis of degree a + b
    if p == 2:
        steps = {(1, k - 1) for k in range(2, 13)}
    else:
        steps = {(1, 1)} | {(2, k - 2) for k in range(3, 13)}
    for n in range(5):
        for a, b in sorted(steps):
            low, high = _basis(n, p, a), _basis(n, p, b)
            up = _basis(n, p, a + b)
            c1, c2 = cohomology._splits(n, p, a, b)
            if p == 2 or a % 2 == 0:
                assert len(c1) == len(up)
            else:
                assert len(c1) == math.comb(n, 2)
                assert all(sum(eps) == 2 for eps, _ in up[:len(c1)])
            for j, (u, v) in enumerate(zip(c1.tolist(), c2.tolist())):
                (e1, a1), (e2, a2) = low[u], high[v]
                sign, eps = _merge_exterior(e1, e2)
                assert sign == 1
                assert (eps, tuple(s + t for s, t in zip(a1, a2))) == up[j]


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


# (sites, constraints, pulls, every morphism) of each KERNEL_SYSTEMS system:
# S = V is the one F-maximal site, with two generators of Q8 or one shift,
# and every other site is filled from one rank up or pulled along iota
KERNEL_COUNTS = {"c2e4_shift": (67, 1, 66, 1729), "c3e2_q8": (6, 2, 5, 78)}


def _is_identity(phi, sw, sv):
    return sw.key == sv.key and phi.images == sw.key


@pytest.mark.parametrize("name", KERNEL_SYSTEMS)
def test_restriction_on_generating_morphisms(name):
    F = KERNEL_SYSTEMS[name]()
    limit = fusion_ea_morphisms(F)
    sites, homs, pulls = limit
    every = _all_morphisms(F)
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
            for k, positions, w, v, images in _restrictions(lim, d, F.p):
                # the constraints of a shape come first, then its pullbacks
                assert (positions[:k] < len(lim[1])).all()
                assert (positions[k:] >= len(lim[1])).all()
                seen.extend(positions.tolist())
                for m, i, j, image in zip(positions, w, v, images):
                    assert (lim[0][i], lim[0][j]) == maps[m][1:]
                    assert np.array_equal(image, want[m])
            # every map but the identities, which constrain nothing, and
            # those out of a site with no degree-d class
            assert sorted(seen) == [m for m, (phi, sw, sv) in enumerate(maps)
                                    if not _is_identity(phi, sw, sv)
                                    and cohomology_basis(sw, d)]
    index = {s.key: i for i, s in enumerate(sites)}
    assert limit.free.tolist() == [s in solved for s in sites]
    for d in range(4):
        widths, system, pulled = _constraints(limit, d, F.p)
        assert widths.tolist() == [len(cohomology_basis(s, d)) for s in sites]
        assert np.array_equal(system,
                              reference_constraints(solved, homs, d, F.p))
        pulled = {w: (r, image) for ws, rs, images in pulled
                  for w, r, image in zip(ws.tolist(), rs.tolist(), images)}
        # every pull out of a site with a degree-d class: the trivial site,
        # filled from a line, has none above degree 0
        live = [(phi, sw, sr) for phi, sw, sr in pulls
                if cohomology_basis(sw, d)]
        assert len(pulled) == len(live) == len(pulls) - (d > 0)
        for phi, sw, sr in live:
            r, image = pulled[index[sw.key]]
            assert sites[r] is sr
            assert np.array_equal(image,
                                  reference_restriction_matrix(phi, sw, sr, d))


def test_constraints_match_the_per_morphism_assembly():
    V4 = klein_four()
    S = full_subgroup(V4)
    S4 = symmetric(4)
    cases = [_all_morphisms(generate_fusion(
                 S, 2, [InjHom(S, S, [0, 2, 3, 1]), InjHom(S, S, [0, 2, 1, 3])])),
             fusion_ea_morphisms(fusion_from_group(sylow_p(S4, 2), S4)),
             quillen_morphisms(S4, 2), quillen_morphisms(S4, 3)]
    for limit in cases:
        sites, homs, pulls = limit
        pulled = {sw.key for _, sw, _ in pulls}
        solved = [s for s in sites if s.key not in pulled]
        p = sites[0].p
        for d in range(6):
            assert np.array_equal(_constraints(limit, d, p)[1],
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
        system = _constraints(limit, d, F.p)[1]
        red, pivots = rref(system, system.shape[1], F.p)
        assert (red.tolist(), pivots) == reference_rref(
            system.tolist(), system.shape[1], F.p)


GOLDEN = Path(__file__).parent / "golden"


def _spec_system(path):
    return lambda: load_fusion_spec(path).fusion()


# name -> (a fresh system, the top degree checked): the series systems,
# which hold the benchmark's, the corpus and golden .fus files, and
# trivial D8 x C2, each to degree 6 at least
ORACLE_SYSTEMS = {
    **{name: (build, max(top, 6))
       for name, (build, top) in SERIES_SYSTEMS.items()},
    **{f"{path.parent.name}_{path.stem}": (_spec_system(path), 6)
       for directory in (corpus_dir(), GOLDEN)
       for path in sorted(directory.glob("*.fus"))},
    "d8xc2_trivial": (lambda: _trivial(direct_product(dihedral8(),
                                                      cyclic(2))), 6),
}


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_class_reduced_limit_matches_every_site(name):
    # term by term: the old generating set with unknowns on every site, and
    # every morphism through the library's own solver; row for row, the
    # earlier plan with unknowns on every class representative; and the
    # count on the constraints alone gives as many
    build, top = ORACLE_SYSTEMS[name]
    F = build()
    sites = fusion_ea_morphisms(F)[0]
    old = reference_fusion_ea_morphisms(F, sites)
    plan = stable.Limit(*reference_site_morphisms(sites, F.homsets, F.p))
    bases = stable_bases(F, top)
    for d, families in enumerate(bases):
        terms = _terms(families)
        assert terms == reference_limit_terms(sites, old, d, F.p)
        assert terms == _terms(stable_basis_all_morphisms(F, d))
        assert [fam.coords for fam in families] == \
            stable._limit_basis(plan, d, F.p)
    assert poincare_series(F, top) == [len(fams) for fams in bases]


def _dickson_gl3_2(d):
    """The coefficient of t^d in 1/((1 - t^4)(1 - t^6)(1 - t^7))."""
    return sum(1 for a in range(d // 4 + 1) for b in range(d // 6 + 1)
               if (d - 4 * a - 6 * b) >= 0 and (d - 4 * a - 6 * b) % 7 == 0)


# a Singer cycle (x^3 = x + 1) and a transvection generate GL3(2)
GL3_2 = [[[0, 0, 1], [1, 0, 1], [0, 1, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]]


def test_poincare_series_closed_forms():
    # H^*(C2^n) under trivial fusion on C2^n, C(n + d - 1, d), counted to
    # degree 8 at n = 6, where a row over every site would not fit; trivial
    # D8 x D8, whose F-maximal sites are the four V4 x V4, C(d + 3, 3); and
    # GL3(2) on C2^3, the Dickson invariants of degrees 4, 6 and 7
    for n in range(2, 7):
        F = _trivial(elementary(2, n))
        top = 8 if n == 6 else 6
        want = [math.comb(n + d - 1, d) for d in range(top + 1)]
        assert poincare_series(F, top) == want
        if n < 6:
            top = 6 if n < 5 else 4
            assert [len(fams) for fams in stable_bases(F, top)] == \
                want[:top + 1]
    F = _trivial(direct_product(dihedral8(), dihedral8()))
    assert poincare_series(F, 12) == [math.comb(d + 3, 3) for d in range(13)]
    F = _automizer_system(2, 3, GL3_2)
    assert poincare_series(F, 21) == [_dickson_gl3_2(d) for d in range(22)]
    assert [len(fams) for fams in stable_bases(F, 8)] == \
        [_dickson_gl3_2(d) for d in range(9)]


def test_two_generators_per_automizer():
    # GL3(2) and GL4(2) are each generated by a pair the seeded search
    # finds, where the greedy set keeps 5 and 9; C2^3, which no pair
    # generates, keeps the greedy set
    GL4_2 = [[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
             [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]
    for mats, greedy in ((GL3_2, 5), (GL4_2, 9)):
        F = _automizer_system(2, len(mats[0]), mats)
        key = F.S.elements
        autos = [h for h in F.homsets[key] if tuple(sorted(h)) == key]
        gens = stable._generators(key, autos)
        assert len(gens) == 2 and _generated(key, gens) == set(autos)
        assert len(reference_greedy_generators(key, autos)) == greedy
        assert stable._generators(key, autos) == gens
    key = tuple(range(8))
    translations = [tuple(x ^ c for x in key) for c in key]
    gens = stable._generators(key, translations)
    assert gens == reference_greedy_generators(key, translations)
    assert len(gens) == 3 and _generated(key, gens) == set(translations)


def _counting_stacks(monkeypatch):
    """Patch stable.restriction_stack so that each stack the Limit starts,
    at degree 0, appends its hom matrices to the returned list."""
    stacks, real = [], stable.restriction_stack

    def counting(homs, n_w, n_v, p, lower):
        if not lower:
            stacks.append(np.array(homs))
        return real(homs, n_w, n_v, p, lower)

    monkeypatch.setattr(stable, "restriction_stack", counting)
    return stacks


def _parts(limit, pulls):
    """The hom matrices of the constraints of each shape of limit, or of
    its pulls if pulls, leaving out an empty part."""
    return [mats[k:] if pulls else mats[:k]
            for _, k, _, _, _, mats in limit.shapes
            if (k < len(mats) if pulls else k)]


def test_a_count_restricts_along_the_constraints_alone(monkeypatch):
    # poincare_series and a Quillen dimension solve on the constraints:
    # no canonical basis, and no stack along a fill or a pull; a solve for
    # the bases after the count starts only the pull stacks, as the Limit
    # keeps those of the constraints
    kernels = _count_calls(monkeypatch, "canonical_kernel")
    stacks = _counting_stacks(monkeypatch)
    steps = _counting_steps(monkeypatch)
    F = SERIES_SYSTEMS["s4xc2"][0]()
    for limit, count in (
            (fusion_ea_morphisms(F), lambda: poincare_series(F, 6)),
            (quillen_morphisms(symmetric(4), 2), lambda: [
                quillen_limit_finite_group(symmetric(4), 2, d).dimension
                for d in range(7)])):
        constraints = _parts(limit, pulls=False)
        del stacks[:], steps[:]
        count()
        assert kernels == []
        assert stacks and all(any(np.array_equal(stack, mats)
                                  for mats in constraints)
                              for stack in stacks)
        assert steps and {m for m, *_ in steps} <= set(map(len, constraints))
    del stacks[:], steps[:]
    stable_bases(F, 6)
    pulls = _parts(fusion_ea_morphisms(F), pulls=True)
    assert len(kernels) == 7
    assert len(stacks) == len(pulls) and all(
        any(np.array_equal(stack, mats) for mats in pulls) for stack in stacks)
    assert steps and {m for m, *_ in steps} <= set(map(len, pulls))


def test_a_solve_runs_one_product_step_per_stack_and_degree(monkeypatch):
    # a solve to degree 8 on a rank-3 system at p = 2 runs one product step
    # per stack out of a source of rank 2 or more and per degree 2..8, the
    # constraints and the pulls of a shape being two stacks; a repeated
    # solve, a solve at a lower degree, a count and a check run none
    steps = _counting_steps(monkeypatch)
    for name in ("c2e3_singer", "s4xc2"):
        F = SERIES_SYSTEMS[name][0]()
        limit = fusion_ea_morphisms(F)
        del steps[:]
        bases = stable_bases(F, 8)
        parts = [(shape, k, len(mats)) for shape, k, *_, mats in limit.shapes
                 if shape[0] >= 2]
        stacks = sum((k > 0) + (k < n) for _, k, n in parts)
        assert stacks and len(steps) == stacks * 7
        assert Counter((a, b) for *_, a, b in steps) == \
            {(1, k - 1): stacks for k in range(2, 9)}
        del steps[:]
        assert stable_bases(F, 8) == bases
        stable_basis(F, 5)
        poincare_series(F, 8)
        assert all(check_family(fam) for fam in bases[8])
        assert steps == []


def test_a_second_check_restricts_nothing(monkeypatch):
    # check_family reads the stacks the Limit keeps: the first check at a
    # degree builds them, a second check at that degree, of the same family
    # or another, or a nilpotence test, runs no product step and starts no
    # restriction
    F = KERNEL_SYSTEMS["c2e4_shift"]()
    limit = fusion_ea_morphisms(F)
    zero = StableFamily(F, 3, (0,) * limit.bounds(3)[-1])
    steps = _counting_steps(monkeypatch)
    stacks = _counting_stacks(monkeypatch)
    matrices = []
    monkeypatch.setattr(cohomology, "restriction_matrices",
                        lambda *args: matrices.append(args))
    assert check_family(zero)
    assert steps and stacks
    del steps[:], stacks[:]
    fams = stable_basis(F, 3)
    assert fams and (steps, stacks) == ([], [])
    for fam in [zero] + fams:
        assert check_family(fam)
        is_nilpotent(fam)
    assert (steps, stacks, matrices) == ([], [], [])


# the systems whose kept stacks are checked against the reference: the
# series systems, two Quillen categories at p = 2 and trivial C3 x C3
KEPT_SYSTEMS = {
    **{name: lambda build=build: fusion_ea_morphisms(build())
       for name, (build, _) in SERIES_SYSTEMS.items()},
    "quillen_s4": lambda: quillen_morphisms(symmetric(4), 2),
    "quillen_a4": lambda: quillen_morphisms(alternating4(), 2),
    "c3e2_trivial": lambda: fusion_ea_morphisms(_trivial(elementary(3, 2),
                                                         p=3)),
}


@pytest.mark.parametrize("name", KEPT_SYSTEMS)
def test_kept_stacks_match_the_reference(name, monkeypatch):
    # every degree 0..8 (0..12 at p = 3) asked ascending, descending, in a
    # seeded shuffle, and as a count then a solve at each degree: each
    # stack read is the reference's, in the store dtype, every degree
    # passed is kept, and each stack runs one product step per degree
    # above 1
    base = KEPT_SYSTEMS[name]()
    p = base[0][0].p
    top = 8 if p == 2 else 12
    want = {}
    for (n_w, n_v), k, positions, _, _, mats in base.shapes:
        for m, hom in zip(positions.tolist(), mats):
            want[m] = reference_restrictions(hom, n_w, n_v, p, top)
    descending = list(range(top, -1, -1))
    shuffled = random.Random(name).sample(descending, top + 1)
    steps = _counting_steps(monkeypatch)
    for order in (range(top + 1), descending, shuffled, "count"):
        limit = stable.Limit(*base)
        del steps[:]
        for d in range(top + 1) if order == "count" else order:
            if order == "count":
                dim = stable._dimension(limit, d, p)
                assert len(stable._limit_basis(limit, d, p)) == dim
            for _, positions, _, _, images in _restrictions(limit, d, p):
                assert images.dtype == cohomology.stack_dtype(p) == np.uint8
                for m, image in zip(positions.tolist(), images):
                    assert np.array_equal(image, want[m][d])
        ranks = [limit.shapes[i][0][0] for i, _ in limit._stacks]
        for n_w, kept in zip(ranks, limit._stacks.values()):
            assert len(kept) == (top + 1 if n_w else 1)
        assert len(steps) == sum(n_w >= 2 for n_w in ranks) * (top - 1)


@pytest.mark.parametrize("name", KEPT_SYSTEMS)
def test_kept_answers_match_a_fresh_limit(name):
    # every degree 0..8 asked ascending, descending, in a seeded shuffle,
    # and as a count at every degree then a solve at every degree: each
    # basis and count the Limit keeps, read once and again, is that of a
    # fresh Limit solved at that degree alone
    base = KEPT_SYSTEMS[name]()
    p, top = base[0][0].p, 8
    want = [tuple(stable._limit_basis(stable.Limit(*base), d, p))
            for d in range(top + 1)]
    descending = list(range(top, -1, -1))
    shuffled = random.Random(name).sample(descending, top + 1)
    for order in (range(top + 1), descending, shuffled, "count"):
        limit = stable.Limit(*base)
        if order == "count":
            assert [limit.count(d) for d in range(top + 1)] == \
                [len(rows) for rows in want]
            order = range(top + 1)
        for d in order:
            assert limit.basis(d) == want[d]
            assert limit.count(d) == len(want[d])
        assert [limit.basis(d) for d in range(top + 1)] == want


def _counting_solves(monkeypatch):
    """A Counter of the constraint systems stable builds (_constraints),
    the reductions linalg runs (rref, whether nullspace, canonical_kernel
    or a count calls it) and the canonical_kernel calls."""
    calls = Counter()

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(stable, "_constraints",
                        counting("_constraints", stable._constraints))
    for name in ("rref", "canonical_kernel"):
        wrapped = counting(name, getattr(linalg, name))
        monkeypatch.setattr(linalg, name, wrapped)
        monkeypatch.setattr(stable, name, wrapped)
    return calls


def test_a_degree_is_solved_once_per_limit(monkeypatch):
    # the Limit keeps each degree's basis and count: a repeated solve at a
    # solved degree builds no system and reduces nothing, a count after a
    # solve reduces nothing, a solve after a count solves once, and the
    # brute-force reference, on a new Limit per call, solves every time
    calls = _counting_solves(monkeypatch)
    top = 6
    F = SERIES_SYSTEMS["s4xc2"][0]()
    bases = stable_bases(F, top)
    assert calls["_constraints"] == calls["canonical_kernel"] == top + 1
    calls.clear()
    assert stable_bases(F, top) == bases
    assert [stable_basis(F, d) for d in range(top + 1)] == bases
    assert poincare_series(F, top) == [len(fams) for fams in bases]
    assert calls == {}
    for _ in range(2):
        assert _terms(stable_basis_all_morphisms(F, 3)) == _terms(bases[3])
        assert calls["_constraints"] == calls["canonical_kernel"] == 1
        calls.clear()
    F = SERIES_SYSTEMS["s4xc2"][0]()
    dims = poincare_series(F, top)
    assert calls["_constraints"] == calls["rref"] == top + 1
    assert calls["canonical_kernel"] == 0
    calls.clear()
    assert poincare_series(F, top) == dims and calls == {}
    assert [len(fams) for fams in stable_bases(F, top)] == dims
    assert calls["_constraints"] == calls["canonical_kernel"] == top + 1
    calls.clear()
    stable_bases(F, top)
    poincare_series(F, top)
    assert calls == {}


def test_quillen_families_are_read_from_the_limit(monkeypatch):
    # quillen_limits counts; the first read of families solves each degree
    # once, and a second read, of the same limits or of new ones at the
    # same degrees, solves nothing and counts nothing
    calls = _counting_solves(monkeypatch)
    S4 = symmetric(4)
    qs = quillen_limits(S4, 2, range(6))
    assert calls["canonical_kernel"] == 0
    calls.clear()
    assert [len(q.families) for q in qs] == [q.dimension for q in qs]
    assert calls["_constraints"] == calls["canonical_kernel"] == 6
    calls.clear()
    for q in qs + quillen_limits(S4, 2, range(6)):
        assert q.families == list(quillen_morphisms(S4, 2).basis(q.degree))
    assert calls == {}


def test_kept_families_are_frozen_and_handed_out_in_new_lists():
    # the families a Limit keeps are shared by every caller, so none can be
    # changed, and a change to a returned list is not seen by the next call
    F = SERIES_SYSTEMS["c2e3_singer"][0]()
    fams = stable_basis(F, 4)
    want = [fam.coords for fam in fams]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fams[0].coords = (0,) * len(want[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        fams[0].degree = 5
    fams.reverse()
    fams.pop()
    bases = stable_bases(F, 4)
    bases[4].clear()
    bases.pop()
    assert [fam.coords for fam in stable_basis(F, 4)] == want
    assert [len(fams) for fams in stable_bases(F, 4)] == \
        poincare_series(F, 4)
    q = quillen_limit_finite_group(symmetric(4), 2, 4)
    q.families.clear()
    assert len(q.families) == q.dimension == 3


def test_a_dropped_system_is_collected():
    # the kept families refer to F, which holds its Limit: a cycle that
    # the garbage collector frees once F is dropped
    F = SERIES_SYSTEMS["c2e3_singer"][0]()
    assert stable_bases(F, 4)[4][0].components
    dropped = weakref.ref(F)
    del F
    gc.collect()
    assert dropped() is None


def test_product_steps_at_p_7_reduce_in_int32():
    # at p = 7 the products of a_i a_j classes carry a sign, so a product
    # of two stored entries can be negative and a sum of them can pass 255:
    # each step multiplies and sums in int32 and keeps the result mod p in
    # uint8
    rng = random.Random(7)
    homs = _random_homs(rng, 2, 3, 7) + [
        [[rng.randrange(1, 7) for _ in range(2)] for _ in range(3)]
        for _ in range(4)]
    want = [reference_restrictions(hom, 2, 3, 7, 8) for hom in homs]
    stacks = []
    for d in range(9):
        images = cohomology.restriction_stack(np.array(homs), 2, 3, 7, stacks)
        stacks.append(images)
        assert images.dtype == np.uint8
        assert np.array_equal(restriction_matrices(np.array(homs), 2, 3, 7, d),
                              images)
        for k, image in enumerate(images):
            assert np.array_equal(image, want[k][d])


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


def _changes(fam, k, every):
    """The row positions at which the k-th family of its degree is changed:
    every one, or one by turns, at the k-th site with a class and its k-th
    monomial."""
    d, sites = fam.degree, fam.sites
    widths = [len(cohomology_basis(s, d)) for s in sites]
    if every:
        return range(sum(widths))
    nonzero = [i for i, width in enumerate(widths) if width]
    i = nonzero[k % len(nonzero)]
    return [sum(widths[:i]) + k % widths[i]]


def _changed(fam, i):
    """fam with the coordinate at row position i raised by one, mod p."""
    row = list(fam.coords)
    row[i] = (row[i] + 1) % fam.F.p
    return StableFamily(fam.F, fam.degree, tuple(row))


# the systems whose every one-coordinate change is checked, with the number
# of changes; the other two, where that takes the reference seconds, get
# one change per family, by turns
CHANGES_CHECKED = {"v4_gl2": 26, "v4_rho": 33, "c2e3_singer": 232,
                   "c3e2_q8": 21}
# the number of changed families both checks accept
CHANGES_ACCEPTED = {**dict.fromkeys(SERIES_SYSTEMS, 0), "c3e2_q8": 1}


@pytest.mark.parametrize("name", SERIES_SYSTEMS)
def test_check_family_matches_the_per_morphism_check(name):
    # every basis family up to degree 4, and each with one coordinate
    # raised by one (_changes), gets the verdict of the check over every
    # fusion morphism; the message names a map of the class-reduced limit,
    # which the reference does not have, so only verdicts are compared
    F = SERIES_SYSTEMS[name][0]()
    every = reference_fusion_ea_morphisms(F, fusion_ea_morphisms(F)[0],
                                          generating=False)

    def reference(fam):
        return reference_check_family(fam, every)

    verdicts = []
    for d, families in enumerate(stable_bases(F, 4)):
        for k, fam in enumerate(families):
            assert check_family(fam) is reference(fam) is True
            for i in _changes(fam, k, name in CHANGES_CHECKED):
                moved = _changed(fam, i)
                verdict = _verdict(check_family, moved) is True
                assert verdict == (_verdict(reference, moved) is True)
                verdicts.append(verdict)
    assert verdicts.count(True) == CHANGES_ACCEPTED[name]
    if name in CHANGES_CHECKED:
        assert len(verdicts) == CHANGES_CHECKED[name]


# the systems whose every basis family, changed at one site at a time, both
# checks must refuse
REFUSAL_SYSTEMS = {
    "c2e4_shift": KERNEL_SYSTEMS["c2e4_shift"],
    "c3e2_q8": KERNEL_SYSTEMS["c3e2_q8"],
    "s4xc2": SERIES_SYSTEMS["s4xc2"][0],
    "d8xc2_trivial": lambda: _trivial(direct_product(dihedral8(), cyclic(2))),
}


@pytest.mark.parametrize("name", REFUSAL_SYSTEMS)
def test_check_family_refuses_a_change_at_any_site(name):
    # check_family reads only the constraints and pulls of the Limit, so
    # it must still see a change at every site: each basis family of
    # degrees 1 to 4 with its last coordinate at one site raised by one,
    # for every site in turn.  That monomial has at most one a_i, so it
    # restricts to a nonzero class on a line, and no such row is compatible.
    # The reference reads the morphisms into and out of the changed site,
    # the only ones along which the row changed
    F = REFUSAL_SYSTEMS[name]()
    sites = fusion_ea_morphisms(F)[0]
    every = reference_fusion_ea_morphisms(F, sites, generating=False)
    through = {s.key: [(phi, sw, sv) for phi, sw, sv in every
                       if s.key in (sw.key, sv.key)] for s in sites}
    refused, bases = 0, stable_bases(F, 4)
    for d, families in enumerate(bases[1:], start=1):
        bounds = fusion_ea_morphisms(F).bounds(d)
        for fam in families:
            for site, end, width in zip(sites, bounds[1:], np.diff(bounds)):
                if not width:
                    continue
                moved = _changed(fam, end - 1)
                with pytest.raises(IncompatibleFamily):
                    check_family(moved)
                with pytest.raises(IncompatibleFamily):
                    reference_check_family(moved, through[site.key])
                refused += 1
    # every site but the trivial one has a class in each degree 1 to 4
    assert refused == sum(map(len, bases[1:])) * (len(sites) - 1) > 0


def test_check_family_refuses_a_family_declared_at_the_wrong_degree():
    # a degree-2 row declared at degree 4 has too few coordinates
    F = SERIES_SYSTEMS["v4_rho"][0]()
    fam = stable_basis(F, 2)[0]
    wrong = StableFamily(F, 4, fam.coords)
    assert len(fam.coords) == sum(len(cohomology_basis(s, 2))
                                  for s in fam.sites) == 6
    with pytest.raises(IncompatibleFamily, match="row not of degree 4"):
        reference_check_family(wrong)
    with pytest.raises(IncompatibleFamily, match="is not of degree 4"):
        check_family(wrong)


def _trivial(G, p=2):
    return fusion_from_group(full_subgroup(G), G, p=p)


def _orbit_count(F, u, v):
    """The number of Aut_F(V)-orbits on the maps U -> V, by the whole
    automizer: distinct sets {g o h : g in Aut_F(V)}."""
    autos = F.aut_set(F.subgroup(v))
    into = [h for h in F.homsets[u] if set(v).issuperset(h)]
    return len({frozenset(tuple(g.image_of(y) for y in h) for g in autos)
                for h in into})


def _generated(key, gens):
    """The group that the image tuples gens, automorphisms of the site with
    elements key, generate, by a search from the identity."""
    pos = {x: i for i, x in enumerate(key)}
    seen, todo = {key}, [key]
    for f in todo:
        for g in gens:
            gf = tuple(g[pos[y]] for y in f)
            if gf not in seen:
                seen.add(gf)
                todo.append(gf)
    return seen


def test_unknowns_sit_on_class_representatives():
    # unknowns on the F-maximal representatives and on those whose maps
    # into them fall into two or more orbits; every other representative
    # filled from a representative one rank up that is free or filled
    # before it; every other site pulled along the least map onto its
    # representative
    for F, free_ranks in (
            (KERNEL_SYSTEMS["c2e4_shift"](), {4: 1}),
            (SERIES_SYSTEMS["s4xc2"][0](), {3: 2, 2: 1, 1: 3, 0: 1}),
            (_trivial(direct_product(dihedral8(), dihedral8())),
             {4: 4, 3: 4, 2: 17, 1: 11, 0: 1})):
        limit = fusion_ea_morphisms(F)
        sites, homs, pulls = limit
        keys = {s.key for s in sites}
        reps = {cls[0].elements for cls in F.conjugacy_classes()
                if cls[0].elements in keys}
        maximal = {s.key for s in sites
                   if not any(t.V.order > s.V.order
                              and t.V.contains_subgroup(s.V) for t in sites)}
        f_maximal = {key for key in reps if all(
            P.elements in maximal for P in F.class_of(F.subgroup(key)))}
        orbits = {u: sum(_orbit_count(F, u, v) for v in f_maximal)
                  for u in reps - f_maximal}
        free = {s.key for s, f in zip(sites, limit.free) if f}
        assert free == f_maximal | {u for u, n in orbits.items() if n > 1}
        assert Counter(s.rank for s in sites if s.key in free) == free_ranks
        # (a) generators of Aut_F(V) on each F-maximal V, at most two here;
        # (b) one map per orbit out of each other free site
        for v in f_maximal:
            gens = [phi.images for phi, sw, sv in homs if sw.key == v]
            assert len(gens) <= 2
            assert all(sv.key == v for _, sw, sv in homs if sw.key == v)
            assert _generated(v, gens) == {
                h for h in F.homsets[v] if tuple(sorted(h)) == v}
        for u in free - f_maximal:
            out = [(phi, sv) for phi, sw, sv in homs if sw.key == u]
            assert len(out) == orbits[u]
            assert all(sv.key in f_maximal for _, sv in out)
        # every other site is pulled back along the least map onto its
        # representative, or filled from a representative one rank up
        pulled = Counter(sw.key for _, sw, _ in pulls)
        assert set(pulled) == keys - free and set(pulled.values()) == {1}
        for phi, sw, sv in pulls:
            assert sv.key in reps
            if sw.key in reps:
                assert sv.V.order == sw.V.order * F.p
                assert phi.images in F.homsets[sw.key]
            else:
                onto = [images for images in F.homsets[sw.key]
                        if tuple(sorted(images)) == sv.key]
                assert phi.images == min(onto)
        # in the order of the shapes, a pull reads a site set before it
        ready = set(np.flatnonzero(limit.free).tolist())
        order = [(r, w) for _, k, _, w, r, _ in limit.shapes
                 for w, r in zip(w[k:].tolist(), r[k:].tolist())]
        assert len(order) == len(pulls)
        for r, w in order:
            assert r in ready and w not in ready
            ready.add(w)


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


def _refuse_degrees(F, G):
    with pytest.raises(DegreeBoundExceeded):
        stable_basis(F, 41)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        stable_basis(F, -1)
    with pytest.raises(DegreeBoundExceeded):
        poincare_series(F, 50)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        quillen_limits(G, 2, [3, -1])
    with pytest.raises(DegreeBoundExceeded):
        quillen_limit_finite_group(G, 2, MAX_DEGREE + 1)


def test_degree_cap(monkeypatch):
    # the degrees are checked before the sites and maps of a cold system
    # are built, and still before anything a warm one keeps is read
    builds = _count_calls(monkeypatch, "_site_morphisms")
    F, S4 = KERNEL_SYSTEMS["c2e4_shift"](), symmetric(4)
    _refuse_degrees(F, S4)
    assert builds == []
    stable_bases(F, 3)
    poincare_series(F, 4)
    for q in quillen_limits(S4, 2, range(4)):
        assert len(q.families) == q.dimension
    _refuse_degrees(F, S4)


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


def test_a_solve_builds_no_class_until_components_are_read(monkeypatch):
    # a family is its coordinate row: counting the series, checking a
    # family or telling its nilpotence builds no CohoElement
    built, init = [], CohoElement.__init__

    def counting(self, *args):
        built.append(args[0].key)
        init(self, *args)

    monkeypatch.setattr(CohoElement, "__init__", counting)
    F = KERNEL_SYSTEMS["c2e4_shift"]()
    assert poincare_series(F, 8) == [1, 1, 3, 5, 10, 14, 22, 30, 43]
    assert [q.dimension for q in quillen_limits(symmetric(4), 2, range(6))] \
        == [1, 1, 2, 3, 3, 4]
    fams = stable_basis(F, 3)
    assert all(check_family(fam) and not is_nilpotent(fam) for fam in fams)
    assert built == []
    assert len(fams[0].components) == 67
    assert built == [s.key for s in fams[0].sites]
    assert fams[0].components is fams[0].components


def test_every_morphism_is_built_once_per_fusion_system(monkeypatch):
    # check_family and is_nilpotent read the Limit the solve built: one
    # build and one elementary abelian search per system, none per check
    builds = _count_calls(monkeypatch, "_site_morphisms")
    searches = _count_calls(monkeypatch, "elementary_abelians")
    C33 = elementary(3, 2)
    F = fusion_from_group(full_subgroup(C33), C33, p=3)
    fams = stable_basis(F, 3)
    assert fams
    for _ in range(2):
        for fam in fams:
            assert check_family(fam)
            is_nilpotent(fam)
    assert (len(builds), len(searches)) == (1, 1)


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
    for limit in (fusion_ea_morphisms(warm), _all_morphisms(warm)):
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
    assert not reference_polynomial_part(u)


def test_nilpotence_matches_cubing_exhaustively(f33):
    for d in range(9):
        for fam in stable_basis(f33, d):
            assert is_nilpotent(fam) == family_power(fam, 3).is_zero()
            if not is_nilpotent(fam):
                assert any(reference_polynomial_part(c)
                           for c in fam.components.values())


def test_p2_nilpotent_iff_zero():
    V4 = klein_four()
    F = fusion_from_group(full_subgroup(V4), V4, p=2)
    for d in range(5):
        for fam in stable_basis(F, d):
            assert not is_nilpotent(fam)
        zero = StableFamily(F, d, tuple(
            c for s in stable_basis(F, 0)[0].sites
            for c in CohoElement.from_terms(s, d, {}).coords))
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
    # a degree-4 class at S in a degree-2 family
    fam = stable_basis(f33, 2)[0]
    broken = dict(fam.components)
    top = f33.S.elements
    site = next(s for s in fam.sites if s.key == top)
    broken[top] = CohoElement.from_terms(site, 4, {((0, 0), (2, 0)): 1})
    bad = StableFamily(f33, 2, tuple(c for comp in broken.values()
                                     for c in comp.coords))
    with pytest.raises(IncompatibleFamily):
        is_nilpotent(bad)
