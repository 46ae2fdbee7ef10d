import itertools
import random
import re

import numpy as np
import pytest
from conjugation_oracle import inclusion_hom, reference_fusion_ea_morphisms
from elimination_oracle import reference_nullspace, reference_rref
from group_oracle import reference_check_family
from restriction_oracle import (
    reference_constraints,
    reference_limit_terms,
    reference_restriction,
    reference_restriction_matrix,
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
from fusionwb.errors import (
    DegreeBoundExceeded,
    IncompatibleFamily,
    NotElementaryAbelian,
)
from fusionwb.fusion import fusion_from_group, generate_fusion
from fusionwb.groups import (
    InjHom,
    Subgroup,
    full_subgroup,
    sylow_p,
)
from fusionwb import corpus
from fusionwb.corpus import corpus_dir
from fusionwb.io import load_fusion_spec
from fusionwb.linalg import canonical_kernel, nullspace, rref
from fusionwb.stable import (
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


# ---------------------------------------------------------------------------
# cohomology of sites


def restriction_map(phi, d, p):
    """Degree-d restriction along phi : W -> V, as a list of rows."""
    return restriction_matrix(phi, Site(phi.source, p), Site(phi.target, p),
                              d).tolist()


def test_site_rejects_non_elementary():
    C4 = cyclic(4)
    with pytest.raises(NotElementaryAbelian):
        Site(full_subgroup(C4), 2)
    D8 = dihedral8()
    with pytest.raises(NotElementaryAbelian):
        Site(full_subgroup(D8), 2)


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
        u = CohoElement(s, {rng.choice(b1): rng.randint(1, 2)})
        v = CohoElement(s, {rng.choice(b2): rng.randint(1, 2)})
        uv = u.mul(v)
        vu = v.mul(u)
        sign = (-1) ** (d1 * d2)
        assert uv.terms == {m: sign * c % 3 for m, c in vu.terms.items()}


def test_exterior_squares_vanish():
    C33 = elementary(3, 2)
    s = Site(full_subgroup(C33), 3)
    a1 = CohoElement(s, {((1, 0), (0, 0)): 1})
    assert a1.mul(a1).is_zero()


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_batched_restriction_matches_reference(p):
    rng = random.Random(7 * p)
    for n_w, n_v in itertools.product(range(1, 5), repeat=2):
        homs = _random_homs(rng, n_w, n_v, p)
        for d in range(7):
            got = restriction_matrices(np.array(homs), n_w, n_v, p, d)
            shape = (len(_basis(n_w, p, d)), len(_basis(n_v, p, d)))
            assert got.shape == (len(homs), *shape)
            assert got.dtype == np.int32
            for hom, image in zip(homs, got):
                assert np.array_equal(
                    image, reference_restriction(hom, n_w, n_v, p, d))


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


@pytest.mark.parametrize("name", KERNEL_SYSTEMS)
def test_restriction_on_generating_morphisms(name):
    F = KERNEL_SYSTEMS[name]()
    sites, homs, pulls = fusion_ea_morphisms(F)
    assert len(homs) > 10 and pulls
    pulled = {sw.key for _, sw, _ in pulls}
    solved = [s for s in sites if s.key not in pulled]
    maps = homs + pulls
    for d in range(4):
        want = [reference_restriction_matrix(phi, sw, sv, d)
                for phi, sw, sv in maps]
        for (phi, sw, sv), ref in zip(maps, want):
            assert np.array_equal(restriction_matrix(phi, sw, sv, d), ref)
        seen = []
        for positions, images in _restrictions(maps, d, F.p):
            seen.extend(positions.tolist())
            for k, image in zip(positions, images):
                assert np.array_equal(image, want[k])
        assert sorted(seen) == list(range(len(maps)))
        *_, system, images = _constraints(solved, homs, d, F.p, pulls)
        assert np.array_equal(system,
                              reference_constraints(solved, homs, d, F.p))
        assert len(images) == len(pulls)
        for image, ref in zip(images, want[len(homs):]):
            assert np.array_equal(image, ref)


def test_constraints_match_the_per_morphism_assembly():
    V4 = klein_four()
    S = full_subgroup(V4)
    S4 = symmetric(4)
    cases = [fusion_ea_morphisms(generate_fusion(
                 S, 2, [InjHom(S, S, [0, 2, 3, 1]), InjHom(S, S, [0, 2, 1, 3])]),
                 generating=False),
             fusion_ea_morphisms(fusion_from_group(sylow_p(S4, 2), S4)),
             quillen_morphisms(S4, 2), quillen_morphisms(S4, 3)]
    for sites, homs, _ in cases:
        p = sites[0].p
        for d in range(6):
            assert np.array_equal(_constraints(sites, homs, d, p)[3],
                                  reference_constraints(sites, homs, d, p))


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
            comps[site.key] = CohoElement(site, terms)
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


def test_degree_cap():
    C2 = cyclic(2)
    F = fusion_from_group(full_subgroup(C2), C2)
    with pytest.raises(DegreeBoundExceeded):
        stable_basis(F, 41)
    with pytest.raises(DegreeBoundExceeded):
        poincare_series(F, 50)


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
    u = CohoElement(site, {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): -1})
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
        zero = StableFamily(F, d, {s.key: CohoElement.zero(s)
                                   for s in stable_basis(F, 0)[0].sites},
                            stable_basis(F, 0)[0].sites)
        assert is_nilpotent(zero)


def test_family_power_needs_a_positive_exponent(f33):
    fam = stable_basis(f33, 2)[0]
    assert family_power(fam, 1) is fam
    for k in (0, -1):
        with pytest.raises(ValueError):
            family_power(fam, k)


def test_incompatible_family_rejected(f33):
    fam = stable_basis(f33, 2)[0]
    broken = dict(fam.components)
    top = f33.S.elements
    site = next(s for s in fam.sites if s.key == top)
    broken[top] = CohoElement(site, {((0, 0), (2, 0)): 1})
    bad = StableFamily(f33, 2, broken, fam.sites)
    with pytest.raises(IncompatibleFamily):
        is_nilpotent(bad)
