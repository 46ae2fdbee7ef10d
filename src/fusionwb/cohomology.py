"""Graded-commutative cohomology of elementary abelian p-groups.

At p = 2 a rank-n site carries the polynomial algebra F_2[x_1..x_n] with the
x_i in degree 1.  At odd p it carries Lambda(a_1..a_n) (x) F_p[x_1..x_n] with
a_i in degree 1 and x_i in degree 2.  A monomial is a pair (eps, alpha) of
exponent tuples for the exterior and polynomial parts; eps stays zero at p=2.
"""

from __future__ import annotations

import functools

import numpy as np

from .groups import generating_sequence


class Site:
    """An elementary abelian subgroup with a chosen ordered basis; V is one
    that elementary_abelians returned, and is not checked again."""

    def __init__(self, V, p):
        t = V.parent.table
        self.V = V
        self.p = p
        self.basis = generating_sequence(V)
        self.rank = len(self.basis)
        coords = {}
        combos = [((), 0)]
        for b in self.basis:
            new = []
            for vec, elem in combos:
                y = elem
                for c in range(p):
                    new.append((vec + (c,), y))
                    y = t[y][b]
            combos = new
        for vec, elem in combos:
            coords[elem] = vec
        self.coords = coords

    @property
    def key(self):
        return self.V.elements

    def __repr__(self):
        return f"Site({list(self.V.elements)}, p={self.p})"


def monomial_degree(mono, p):
    eps, alpha = mono
    if p == 2:
        return sum(alpha)
    return sum(eps) + 2 * sum(alpha)


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def cohomology_basis(site, d):
    """Monomials of total degree d, in decreasing lexicographic order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return list(_basis(site.rank, site.p, d))


# The tables below depend only on (rank, p, degree), not on the site, so
# they are built once per process and shared by every site and morphism.

@functools.lru_cache(maxsize=None)
def _basis(n, p, d):
    if p == 2:
        zero = (0,) * n
        return tuple((zero, alpha) for alpha in _compositions(d, n))
    monos = []
    for k in range(min(n, d) + 1):
        if (d - k) % 2:
            continue
        for eps in _eps_tuples(n, k):
            for alpha in _compositions((d - k) // 2, n):
                monos.append((eps, alpha))
    monos.sort(reverse=True)
    return tuple(monos)


@functools.lru_cache(maxsize=None)
def _index(n, p, d):
    return {mono: k for k, mono in enumerate(_basis(n, p, d))}


def _bump(e, i, by):
    return e[:i] + (e[i] + by,) + e[i + 1:]


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


def _generator_degree(exterior, p):
    return 1 if exterior or p == 2 else 2


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


def _eps_tuples(n, k):
    if k == 0:
        yield (0,) * n
        return
    if n < k:
        return
    for rest in _eps_tuples(n - 1, k):
        yield (0,) + rest
    for rest in _eps_tuples(n - 1, k - 1):
        yield (1,) + rest


def _merge_exterior(e1, e2):
    """Sign and union of exterior exponents; None on a repeated generator."""
    merged = []
    inversions = 0
    seen_right = 0
    for i in range(len(e1)):
        if e1[i] and e2[i]:
            return None
        merged.append(e1[i] | e2[i])
    ones2 = [i for i, v in enumerate(e2) if v]
    for i, v in enumerate(e1):
        if v:
            inversions += sum(1 for j in ones2 if j < i)
    return (-1) ** inversions, tuple(merged)


class CohoElement:
    """A cohomology class on one site: monomials with nonzero F_p coefficients."""

    def __init__(self, site, terms):
        self.site = site
        p = site.p
        clean = {}
        for mono, c in terms.items():
            c %= p
            if c:
                clean[mono] = c
        self.terms = clean

    @classmethod
    def zero(cls, site):
        return cls(site, {})

    def is_zero(self):
        return not self.terms

    def degree(self):
        """The common degree of all terms; None when zero."""
        degs = {monomial_degree(m, self.site.p) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def mul(self, other):
        p = self.site.p
        out = {}
        for (e1, a1), c1 in self.terms.items():
            for (e2, a2), c2 in other.terms.items():
                merged = _merge_exterior(e1, e2)
                if merged is None:
                    continue
                sign, eps = merged
                alpha = tuple(x + y for x, y in zip(a1, a2))
                key = (eps, alpha)
                out[key] = out.get(key, 0) + sign * c1 * c2
        return CohoElement(self.site, out)

    def poly_projection(self):
        """Image in F_p[V]: all exterior coordinates set to zero."""
        n = self.site.rank
        zero = (0,) * n
        return CohoElement(self.site, {m: c for m, c in self.terms.items()
                                       if m[0] == zero})

    def coords_in(self, basis):
        return [self.terms.get(mono, 0) for mono in basis]

    def __eq__(self, other):
        if not isinstance(other, CohoElement):
            return NotImplemented
        return self.site.key == other.site.key and self.terms == other.terms

    __hash__ = None

    def describe(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            parts.append(f"{format_monomial(mono, self.site.p)}:{self.terms[mono]}")
        return " ".join(parts)

    def __repr__(self):
        return f"CohoElement({self.describe()})"


def format_monomial(mono, p):
    eps, alpha = mono
    factors = []
    for i, e in enumerate(eps):
        if e:
            factors.append(f"a{i + 1}")
    for i, e in enumerate(alpha):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    return " ".join(factors) if factors else "1"


def hom_matrix(phi, site_w, site_v):
    """Columns are coordinates of phi(w_j) in the target site's basis.

    M[i][j] = coefficient of v_i in phi(w_j), as an int32 rank_V x rank_W
    array.
    """
    cols = [site_v.coords[phi.image_of(w)] for w in site_w.basis]
    return np.array(cols, dtype=np.int32).reshape(site_w.rank, site_v.rank).T


def restriction_matrices(homs, n_w, n_v, p, d):
    """Images of every degree-d basis monomial of a rank-n_v site along each
    of a stack of maps from a rank-n_w site.

    homs is an (m, n_v, n_w) stack of hom matrices (see hom_matrix) with
    entries in [0, p).  Returns the (m, B_w, B_v) int32 stack of images,
    entries in [0, p): column c of image k is the image of the c-th
    monomial of the degree-d basis of the target, in coordinates of the
    degree-d basis of the source.  phi* is a ring map, so the image of a
    monomial is phi*(g) times the image of the rest, for g its first
    generator: phi*(a_i) = sum_j M[i][j] a_j and phi*(x_i) = sum_j M[i][j]
    x_j.  The images of each degree are built once, a degree at a time,
    from those of the degree one generator down, for the whole stack at
    once.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    m = len(homs)
    homs = np.asarray(homs, dtype=np.int32).reshape(m, n_v, n_w)
    images = [np.ones((m, 1, 1), dtype=np.int32)]
    for k in range(1, d + 1):
        img = np.zeros((m, len(_basis(n_w, p, k)), len(_basis(n_v, p, k))),
                       dtype=np.int32)
        for exterior, cols, gens, rests in _peels(n_v, p, k):
            below = k - _generator_degree(exterior, p)
            rest_images = images[below][:, :, rests]
            coeffs = homs[:, gens]
            part = np.zeros((m, img.shape[1], len(cols)), dtype=np.int32)
            products = _left_products(n_w, p, below, exterior)
            for j in np.flatnonzero(coeffs.any(axis=(0, 1))):
                src, dst, sign = products[j]
                part[:, dst] += (sign * rest_images[:, src]
                                 * coeffs[:, None, :, j])
            img[:, :, cols] = part
        images.append(img % p)
    return images[d]


def restriction_matrix(phi, site_w, site_v, d):
    """Images along phi: W -> V of every degree-d basis monomial of site_v:
    restriction_matrices on the one hom matrix of phi."""
    return restriction_matrices(hom_matrix(phi, site_w, site_v)[None],
                                site_w.rank, site_v.rank, site_v.p, d)[0]


def restrict_element(phi, site_w, site_v, elem):
    """Pull a class on the target site back along phi: W -> V."""
    p = site_v.p
    by_degree = {}
    for mono, c in elem.terms.items():
        by_degree.setdefault(monomial_degree(mono, p), {})[mono] = c
    terms = {}
    for d, part in by_degree.items():
        vec = np.array(CohoElement(site_v, part).coords_in(
            _basis(site_v.rank, p, d)), dtype=np.int32)
        image = restriction_matrix(phi, site_w, site_v, d) @ vec % p
        terms.update(zip(_basis(site_w.rank, p, d), image.tolist()))
    return CohoElement(site_w, terms)
