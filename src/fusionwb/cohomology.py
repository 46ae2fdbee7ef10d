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


# Bound on the elements of the maps x pairs x columns temporaries of one
# product step; a larger step runs in slices of the stack and the columns.
_STEP_ELEMENTS = 1 << 20


@functools.lru_cache(maxsize=None)
def _splits(n, p, a, b):
    """Each degree-(a+b) monomial c as c1 c2, c1 of degree a taking
    polynomial generators first, then the lowest exterior ones, and c2 the
    rest: the arrays of the positions of c1 and c2 in the bases of degrees
    a and b.  The a_i of c1 come before those of c2, so c = c1 c2 with
    sign +1.

    Every monomial has such a split when a is even or p = 2.  At odd p
    with a = b = 1 only the a_i a_j have one; they come first in the basis
    of degree 2, and the x_i after them are left out.
    """
    x = 1 if p == 2 else 2      # the degree of a polynomial generator
    low, high = _index(n, p, a), _index(n, p, b)
    rows = []
    for eps, alpha in _basis(n, p, a + b):
        left = a
        alpha1 = []
        for e in alpha:
            alpha1.append(min(e, left // x))
            left -= x * alpha1[-1]
        eps1 = []
        for e in eps:
            eps1.append(min(e, left))
            left -= eps1[-1]
        if left:
            continue
        rest = (tuple(e - f for e, f in zip(eps, eps1)),
                tuple(e - f for e, f in zip(alpha, alpha1)))
        rows.append((low[(tuple(eps1), tuple(alpha1))], high[rest]))
    return np.array(rows, dtype=np.intp).reshape(-1, 2).T


@functools.lru_cache(maxsize=None)
def _products(n, p, a, b):
    """Products of the degree-a and degree-b basis monomials.

    Returns the arrays u, v of the positions of every pair with u v != 0,
    sorted by the position of u v in the basis of degree a + b, their
    signs (None when all are +1), the start of each run of equal products,
    and the product of each run.
    """
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


@functools.lru_cache(maxsize=None)
def _chain(p, d):
    """The product steps (k, a, b), k = a + b, that build degree d from
    degrees 1 and, at odd p, 2, in increasing k: k splits near k/2, as
    a = floor(k/2) at p = 2 and a = max(2, 2 floor(k/4)) at odd p, so that
    every monomial has a factor of degree a.
    """
    base = 1 if p == 2 else 2
    steps, todo = {}, [d]
    while todo:
        k = todo.pop()
        if k > base and k not in steps:
            a = k // 2 if p == 2 else max(2, 2 * (k // 4))
            steps[k] = (a, k - a)
            todo += steps[k]
    return sorted((k, *ab) for k, ab in steps.items())


def _product_step(low, high, n_w, n_v, p, a, b):
    """The images of the degree-(a+b) monomials that _splits splits, from
    the stacks low and high of the images of degrees a and b: column c is
    phi*(c1) phi*(c2), summed over the pairs of _products, a slice of the
    stack and of the columns at a time."""
    c1, c2 = _splits(n_v, p, a, b)
    u, v, sign, starts, reached = _products(n_w, p, a, b)
    m = len(low)
    out = np.zeros((m, len(_basis(n_w, p, a + b)), len(c1)), dtype=np.int32)
    if not (len(u) and len(c1)):
        return out
    width = max(1, min(len(c1), _STEP_ELEMENTS // len(u)))
    rows = max(1, _STEP_ELEMENTS // (len(u) * width))
    for i in range(0, m, rows):
        maps = slice(i, i + rows)
        for j in range(0, len(c1), width):
            cols = slice(j, j + width)
            terms = low[maps, :, c1[cols]][:, u]
            terms *= high[maps, :, c2[cols]][:, v]
            if sign is not None:
                terms *= sign
            out[maps, reached, cols] = np.add.reduceat(terms, starts, axis=1,
                                                       dtype=np.int32)
    return out % p


def restriction_matrices(homs, n_w, n_v, p, d):
    """Images of every degree-d basis monomial of a rank-n_v site along each
    of a stack of maps from a rank-n_w site.

    homs is an (m, n_v, n_w) stack of hom matrices (see hom_matrix) with
    entries in [0, p).  Returns the (m, B_w, B_v) int32 stack of images,
    entries in [0, p): column c of image k is the image of the c-th
    monomial of the degree-d basis of the target, in coordinates of the
    degree-d basis of the source.  phi* is a ring map, so phi*(c) =
    phi*(c1) phi*(c2) whenever c = c1 c2.  Degree 1 is the transposed hom
    matrix (phi*(a_i) = sum_j M[i][j] a_j, phi*(x_i) = sum_j M[i][j] x_j),
    and so is the x_j-by-x_i block of degree 2 at odd p, whose a_i a_j
    come from degree 1; every other degree is one product step of two
    lower ones (_chain), for the whole stack at once, so a call takes
    O(log d) steps on the halving chain.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    m = len(homs)
    homs = np.asarray(homs, dtype=np.int32).reshape(m, n_v, n_w)
    images = {0: np.ones((m, 1, 1), dtype=np.int32),
              1: homs.transpose(0, 2, 1).copy()}
    if p != 2 and d >= 2:
        # the x_i come last in the degree-2 basis, after the a_i a_j
        ext = _product_step(images[1], images[1], n_w, n_v, p, 1, 1)
        img = images[2] = np.zeros(
            (m, len(_basis(n_w, p, 2)), len(_basis(n_v, p, 2))), dtype=np.int32)
        img[:, :, :ext.shape[2]] = ext
        img[:, img.shape[1] - n_w:, ext.shape[2]:] = images[1]
    for k, a, b in _chain(p, d):
        images[k] = _product_step(images[a], images[b], n_w, n_v, p, a, b)
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
