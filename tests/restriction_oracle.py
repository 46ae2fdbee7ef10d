"""Reference restriction kernel and stable-elements limit.

The library builds restriction matrices for a whole stack of hom matrices
of one shape at once, each degree as a product of two lower ones, or in
closed form from a rank-1 site (cohomology.restriction_matrices), assembles the stable-elements
constraint system into one preallocated array, and solves it with
unknowns on one site per F-class only.  The tests keep the per-morphism
kernel that peels one generator per degree, the per-morphism block
assembly, and the limit with one block of unknowns on every site, as the
oracles for all three, the monomial-by-monomial cup product as the
oracle for CohoElement.mul, which runs on the kernel's product tables, and
the pair-by-pair loop that the library once built those tables with.
"""

import functools

import numpy as np

from fusionwb.cohomology import _basis, _index, cohomology_basis
from fusionwb.linalg import nullspace


def _bump(e, i, by):
    return e[:i] + (e[i] + by,) + e[i + 1:]


def _generator_degree(exterior, p):
    return 1 if exterior or p == 2 else 2


@functools.lru_cache(maxsize=None)
def _peels(n, p, d):
    """Each degree-d monomial as its first generator times the rest.

    The first generator is the lowest exterior a_i if there is one (then
    a_i times the rest is the monomial with sign +1), else the lowest x_i.
    Returns, per kind present (True for exterior), the arrays: positions of
    the monomials, index i of their generator, positions of the rests in
    the basis of degree d minus the generator's degree.
    """
    groups = {}
    for c, (eps, alpha) in enumerate(_basis(n, p, d)):
        exterior = 1 in eps
        if exterior:
            i = eps.index(1)
            rest = (_bump(eps, i, -1), alpha)
        else:
            i = next(t for t, e in enumerate(alpha) if e)
            rest = (eps, _bump(alpha, i, -1))
        rest_index = _index(n, p, d - _generator_degree(exterior, p))
        groups.setdefault(exterior, []).append((c, i, rest_index[rest]))
    return tuple((exterior, *(np.array(col, dtype=np.intp)
                              for col in zip(*rows)))
                 for exterior, rows in groups.items())


@functools.lru_cache(maxsize=None)
def _left_products(n, p, d, exterior):
    """Left multiplication of the degree-d basis by each generator j.

    Per j: the monomials with a nonzero product (an index, or every one),
    the positions of the products in the basis one generator up, and their
    signs.  a_j kills a monomial holding a_j and passes the a_t with t < j;
    x_j is injective with sign +1.
    """
    basis = _basis(n, p, d)
    up = _index(n, p, d + _generator_degree(exterior, p))
    out = []
    for j in range(n):
        if not exterior:
            dst = [up[(eps, _bump(alpha, j, 1))] for eps, alpha in basis]
            out.append((slice(None), np.array(dst, dtype=np.intp), 1))
            continue
        src = [k for k, (eps, _) in enumerate(basis) if not eps[j]]
        dst = [up[(_bump(basis[k][0], j, 1), basis[k][1])] for k in src]
        sign = [-1 if sum(basis[k][0][:j]) % 2 else 1 for k in src]
        out.append((np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
                    np.array(sign, dtype=np.int32)[:, None]))
    return tuple(out)


def reference_hom_matrix(phi, site_w, site_v):
    """Columns are coordinates of phi(w_j) in the target site's basis."""
    cols = []
    for w in site_w.basis:
        cols.append(site_v.coords[phi.image_of(w)])
    # M[i][j] = coefficient of v_i in phi(w_j)
    return [[cols[j][i] for j in range(site_w.rank)]
            for i in range(site_v.rank)]


def reference_restriction(hom, n_w, n_v, p, d):
    """Images of every degree-d basis monomial of a rank-n_v site along the
    map with rank_V x rank_W matrix hom, built one degree at a time."""
    return reference_restrictions(hom, n_w, n_v, p, d)[d]


def reference_restrictions(hom, n_w, n_v, p, d):
    """reference_restriction at every degree 0..d, as a list: the images of
    each degree are the image of the first generator times those of the
    rest, one degree below or two."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    hom = np.array(hom, dtype=np.int32).reshape(n_v, n_w)
    images = [np.ones((1, 1), dtype=np.int32)]
    for k in range(1, d + 1):
        img = np.zeros((len(_basis(n_w, p, k)), len(_basis(n_v, p, k))),
                       dtype=np.int32)
        for exterior, cols, gens, rests in _peels(n_v, p, k):
            below = k - _generator_degree(exterior, p)
            rest_images = images[below][:, rests]
            coeffs = hom[gens]
            part = np.zeros((len(img), len(cols)), dtype=np.int32)
            products = _left_products(n_w, p, below, exterior)
            for j in np.flatnonzero(coeffs.any(axis=0)):
                src, dst, sign = products[j]
                part[dst] += sign * rest_images[src] * coeffs[:, j]
            img[:, cols] = part
        images.append(img % p)
    return images


def reference_restriction_matrix(phi, site_w, site_v, d):
    """Images along phi: W -> V of every degree-d basis monomial of site_v."""
    return reference_restriction(reference_hom_matrix(phi, site_w, site_v),
                                 site_w.rank, site_v.rank, site_v.p, d)


def reference_constraints(sites, homs, d, p):
    """The nonzero rows of the stable-elements system, one block per
    morphism phi: W -> V saying that the restriction of the V component
    equals the W component, concatenated in the order of homs."""
    bases = {s.key: cohomology_basis(s, d) for s in sites}
    offsets = {}
    total = 0
    for s in sites:
        offsets[s.key] = total
        total += len(bases[s.key])
    blocks = [np.zeros((0, total), dtype=np.int32)]
    for phi, sw, sv in homs:
        n_w = len(bases[sw.key])
        if not n_w or (sw.key == sv.key and phi.images == sw.key):
            continue
        block = np.zeros((n_w, total), dtype=np.int32)
        ov, ow = offsets[sv.key], offsets[sw.key]
        block[:, ov:ov + len(bases[sv.key])] = reference_restriction_matrix(
            phi, sw, sv, d)
        diag = np.arange(n_w)
        block[diag, ow + diag] = (block[diag, ow + diag] - 1) % p
        blocks.append(block[block.any(axis=1)])
    return np.concatenate(blocks)


def reference_limit_terms(sites, homs, d, p):
    """The limit with one block of unknowns on every site: per canonical
    kernel vector of reference_constraints, the terms of each component,
    as {site key: {monomial: coefficient}}."""
    bases = [(s.key, cohomology_basis(s, d)) for s in sites]
    total = sum(len(basis) for _, basis in bases)
    families = []
    for vec in nullspace(reference_constraints(sites, homs, d, p), total, p):
        family = {}
        for key, basis in bases:
            family[key] = {mono: c for mono, c in zip(basis, vec) if c}
            vec = vec[len(basis):]
        families.append(family)
    return families


def reference_cup(x, y):
    """The cup product of two classes on one site as {monomial: nonzero
    coefficient mod p}, term by term: a product with a repeated a_i is
    zero, the others take the sign of the transpositions that sort their
    a_i (one per a_j of y before an a_i of x with j < i) and add their
    polynomial exponents."""
    p = x.site.p
    out = {}
    for (e1, a1), c1 in x.terms.items():
        for (e2, a2), c2 in y.terms.items():
            if any(i and j for i, j in zip(e1, e2)):
                continue
            swaps = sum(e2[j] for i in range(len(e1)) if e1[i]
                        for j in range(i))
            mono = (tuple(i | j for i, j in zip(e1, e2)),
                    tuple(i + j for i, j in zip(a1, a2)))
            out[mono] = out.get(mono, 0) + (-1) ** swaps * c1 * c2
    return {mono: c % p for mono, c in out.items() if c % p}


def _merge_exterior(e1, e2):
    """Sign and union of exterior exponents; None on a repeated generator."""
    if any(x and y for x, y in zip(e1, e2)):
        return None
    inversions = sum(sum(e2[:i]) for i, x in enumerate(e1) if x)
    return (-1) ** inversions, tuple(x | y for x, y in zip(e1, e2))


def reference_products(n, p, a, b):
    """cohomology._products pair by pair: (u, v, sign, starts, reached)."""
    up = _index(n, p, a + b)
    rows = []
    for u, (e1, a1) in enumerate(_basis(n, p, a)):
        for v, (e2, a2) in enumerate(_basis(n, p, b)):
            merged = _merge_exterior(e1, e2)
            if merged is not None:
                sign, eps = merged
                alpha = tuple(x + y for x, y in zip(a1, a2))
                rows.append((up[(eps, alpha)], u, v, sign))
    rows.sort()
    t, u, v, sign = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    starts = np.flatnonzero(np.diff(t, prepend=-1))
    sign = None if (sign == 1).all() else sign.astype(np.int32)[:, None]
    return u, v, sign, starts, t[starts]


def reference_polynomial_part(x):
    """The terms of a class that lie in F_p[V], with no exterior factor."""
    return {(eps, alpha): c for (eps, alpha), c in x.terms.items()
            if 1 not in eps}
