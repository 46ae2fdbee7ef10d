"""Graded-commutative cohomology of elementary abelian p-groups.

At p = 2 a rank-n site carries the polynomial algebra F_2[x_1..x_n] with the
x_i in degree 1.  At odd p it carries Lambda(a_1..a_n) (x) F_p[x_1..x_n] with
a_i in degree 1 and x_i in degree 2.  A monomial is a pair (eps, alpha) of
exponent tuples for the exterior and polynomial parts; eps stays zero at p=2.
A class is its degree and its coordinate tuple in the basis of that degree;
the restriction kernel's product steps and the cup product read one product
table per pair of degrees, _products, and restrictions from a rank-1 site
read one exponent table per degree and one power table per p instead.  The
kernel (restriction_stack) builds the images of each degree from those of
the degree below, or two below at odd p, by one product step, so a caller
that keeps the stacks, as stable.Limit does, pays one step per new degree.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .groups import format_elems, generating_sequence


class Site:
    """An elementary abelian subgroup with a chosen ordered basis; V is one
    that elementary_abelians returned, and is not checked again."""

    def __init__(self, V, p):
        self.V = V
        self.key = V.elements
        self.p = p
        self.basis = generating_sequence(V)
        self.rank = len(self.basis)
        cols = [V.parent.table[:, b].tolist() for b in self.basis]
        coords = {}
        combos = [((), 0)]
        for col in cols:
            new = []
            for vec, elem in combos:
                y = elem
                for c in range(p):
                    new.append((vec + (c,), y))
                    y = col[y]
            combos = new
        for vec, elem in combos:
            coords[elem] = vec
        self.coords = coords

    def __repr__(self):
        return f"Site({list(self.V.elements)}, p={self.p})"

    @functools.cached_property
    def label(self):
        """The site's elements as text (format_elems), formatted once, as
        every family over the site is written with them."""
        return format_elems(self.key)


def monomial_degree(mono, p):
    eps, alpha = mono
    if p == 2:
        return sum(alpha)
    return sum(eps) + 2 * sum(alpha)


def cohomology_basis(site, d):
    """Monomials of total degree d, in decreasing lexicographic order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return list(_basis(site.rank, site.p, d))


# The tables below depend only on (rank, p, degree), not on the site, so
# they are built once per process and shared by every site and morphism.

@functools.lru_cache(maxsize=None)
def _basis(n, p, d):
    x = 1 if p == 2 else 2      # the degree of a polynomial generator
    monos = []
    # k of the a_i (none at p = 2), and d - k a multiple of x
    for k in range(d % x, 1 if p == 2 else min(n, d) + 1, x):
        for ext in itertools.combinations(range(n), k):
            eps = tuple(int(i in ext) for i in range(n))
            for poly in itertools.combinations_with_replacement(range(n),
                                                                (d - k) // x):
                monos.append((eps, tuple(poly.count(i) for i in range(n))))
    monos.sort(reverse=True)
    return tuple(monos)


@functools.lru_cache(maxsize=None)
def _index(n, p, d):
    return {mono: k for k, mono in enumerate(_basis(n, p, d))}


def basis_size(n, p, d):
    """The number of degree-d monomials on a rank-n site."""
    return len(_basis(n, p, d))


@functools.lru_cache(maxsize=None)
def _terms(n, p, d):
    """Per coefficient c in 0..p-1, the term "monomial:c" of each monomial
    of the degree-d basis, in basis order (none at c = 0)."""
    labels = [format_monomial(mono, p) for mono in _basis(n, p, d)]
    return ((),) + tuple(tuple(f"{label}:{c}" for label in labels)
                         for c in range(1, p))


@functools.lru_cache(maxsize=None)
def polynomial_mask(n, p, d):
    """For each monomial of the degree-d basis, whether it lies in F_p[V]
    (has no exterior factor)."""
    return tuple(1 not in eps for eps, _ in _basis(n, p, d))


def _codes(n, p, d, radix):
    """The degree-d basis as (exterior exponents, codes): a (B, n) int64
    array, and per monomial the digits eps then alpha, first index first,
    read in mixed radix 2 and radix (above every exponent in play).  So the
    codes decrease along the basis, and the code of a product with no
    repeated a_i is the sum of the codes of its factors.  Every code is
    below 2^n radix^n, which fits int64 for n <= 9 and radix <= 63."""
    weights = np.array([2 ** (n - 1 - i) * radix ** n for i in range(n)]
                       + [radix ** (n - 1 - i) for i in range(n)],
                       dtype=np.int64)
    basis = _basis(n, p, d)
    digits = np.array(basis, dtype=np.int64).reshape(len(basis), 2 * n)
    return digits[:, :n], digits @ weights


class CohoElement:
    """A degree-d class on one site: its coordinates in cohomology_basis(site,
    d), a tuple of ints in [0, p)."""

    __slots__ = ("site", "degree", "coords")

    def __init__(self, site, degree, coords):
        self.site = site
        self.degree = degree
        self.coords = tuple(coords)

    @classmethod
    def from_terms(cls, site, degree, terms):
        """The class sum c m over terms {monomial m: c}, every m of degree."""
        index = _index(site.rank, site.p, degree)
        coords = [0] * len(index)
        for mono, c in terms.items():
            if mono not in index:
                raise ValueError(f"{mono} is not of degree {degree}")
            coords[index[mono]] += c
        return cls(site, degree, (c % site.p for c in coords))

    @property
    def terms(self):
        """{monomial: nonzero coefficient}."""
        basis = _basis(self.site.rank, self.site.p, self.degree)
        return {mono: c for mono, c in zip(basis, self.coords) if c}

    def is_zero(self):
        return not any(self.coords)

    def mul(self, other):
        """The cup product, through the table _products that the
        restriction kernel's product steps use."""
        n, p = self.site.rank, self.site.p
        a, b = self.degree, other.degree
        u, v, sign, starts, reached = _products(n, p, a, b)
        out = np.zeros(len(_basis(n, p, a + b)), dtype=np.int64)
        if len(u):
            terms = np.array(self.coords)[u] * np.array(other.coords)[v]
            if sign is not None:
                terms *= sign[:, 0]
            out[reached] = np.add.reduceat(terms, starts)
        return CohoElement(self.site, a + b, (out % p).tolist())

    def __eq__(self, other):
        if not isinstance(other, CohoElement):
            return NotImplemented
        return (self.site.key, self.degree, self.coords) == \
            (other.site.key, other.degree, other.coords)

    __hash__ = None

    def describe(self):
        """The nonzero terms as "monomial:c", in basis order, or "0"."""
        terms = _terms(self.site.rank, self.site.p, self.degree)
        coords = self.coords
        if self.site.p == 2:            # every nonzero coordinate is 1
            out = " ".join(itertools.compress(terms[1], coords))
        else:
            out = " ".join([terms[c][i] for i, c in enumerate(coords) if c])
        return out or "0"

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
    """Each degree-(a+b) monomial c with a factor of degree a as c1 c2, the
    first pair of c's run in _products: the positions of c1 and c2 in the
    bases of degrees a and b.  _products lists the pairs u ascending, in
    np.nonzero order, and sorts them stably by product, so c1 is the
    lexicographically largest factor of c of degree a.  Swapping an a_i of
    c2 with a later one of c1 would give a larger c1, so the a_i of c1 come
    first and c = c1 c2 with sign +1.  The runs cover every monomial of
    degree a + b when p = 2 or a is even; at odd p with a = b = 1, exactly
    the a_i a_j, which come first in the basis of degree 2.
    """
    u, v, _, starts, _ = _products(n, p, a, b)
    return u[starts], v[starts]


@functools.lru_cache(maxsize=None)
def _products(n, p, a, b):
    """Products of the degree-a and degree-b basis monomials.

    Returns the arrays u, v of the positions of every pair with u v != 0,
    sorted by the position of u v in the basis of degree a + b, their
    signs (None when all are +1), the start of each run of equal products,
    and the product of each run.
    """
    e1, code1 = _codes(n, p, a, a + b + 1)
    e2, code2 = _codes(n, p, b, a + b + 1)
    up = _codes(n, p, a + b, a + b + 1)[1][::-1]
    u, v = np.nonzero(e1 @ e2.T == 0)   # no a_i in both
    # the a_j of v that pass an a_i of u on the way to index order
    inversions = (e1 @ (np.cumsum(e2, axis=1) - e2).T)[u, v]
    t = len(up) - 1 - np.searchsorted(up, code1[u] + code2[v])
    order = np.argsort(t, kind="stable")
    t, u, v = t[order], u[order], v[order]
    sign = 1 - 2 * (inversions[order] % 2)
    starts = np.flatnonzero(np.diff(t, prepend=-1))
    sign = None if (sign == 1).all() else sign.astype(np.int32)[:, None]
    return u, v, sign, starts, t[starts]


def stack_dtype(p):
    """The smallest unsigned dtype that holds p - 1, in which the kernel
    keeps its stacks: uint8 for every p < 256."""
    return np.min_scalar_type(p - 1)


def _product_step(low, high, n_w, n_v, p, a, b):
    """The images of the degree-(a+b) monomials that _splits splits, from
    the stacks low and high of the images of degrees a and b: column c is
    phi*(c1) phi*(c2), c = c1 c2 read off the target's product table and
    summed over the pairs of the source's, a slice of the stack and of the
    columns at a time, in int32, and kept mod p as stack_dtype(p)."""
    c1, c2 = _splits(n_v, p, a, b)
    u, v, sign, starts, reached = _products(n_w, p, a, b)
    m = len(low)
    out = np.zeros((m, len(_basis(n_w, p, a + b)), len(c1)),
                   dtype=stack_dtype(p))
    if not (len(u) and len(c1)):
        return out
    width = max(1, min(len(c1), _STEP_ELEMENTS // len(u)))
    rows = max(1, _STEP_ELEMENTS // (len(u) * width))
    for i in range(0, m, rows):
        maps = slice(i, i + rows)
        for j in range(0, len(c1), width):
            cols = slice(j, j + width)
            terms = low[maps, :, c1[cols]][:, u].astype(np.int32)
            terms *= high[maps, :, c2[cols]][:, v]
            if sign is not None:
                terms *= sign
            out[maps, reached, cols] = np.add.reduceat(
                terms, starts, axis=1, dtype=np.int32) % p
    return out


@functools.lru_cache(maxsize=None)
def _exponents(n, p, d):
    """Per monomial (eps, alpha) of the degree-d basis and per i, the
    column of _powers(p) that holds m^(alpha_i + eps_i) mod p: the exponent
    itself if it is 0, else its class in 1..p-1 (m^(p-1) = 1 for m != 0),
    and column p, of zeros, on a monomial with two a_i or more; a
    (B, n) intp array."""
    basis = _basis(n, p, d)
    digits = np.array(basis, dtype=np.intp).reshape(len(basis), 2, n)
    exps = digits.sum(axis=1)
    exps = np.where(exps > 0, (exps - 1) % (p - 1) + 1, 0)
    exps[digits[:, 0].sum(axis=1) > 1] = p
    return exps


@functools.lru_cache(maxsize=None)
def _powers(p):
    """powers[m, e] = m^e mod p for m, e in 0..p-1, and powers[m, p] = 0;
    a (p, p + 1) int64 array."""
    powers = np.zeros((p, p + 1), dtype=np.int64)
    powers[:, 0] = 1
    for e in range(1, p):
        powers[:, e] = powers[:, e - 1] * np.arange(p) % p
    return powers


def restriction_stack(homs, n_w, n_v, p, lower):
    """Images of every degree-d basis monomial of a rank-n_v site along
    each of a stack of maps from a rank-n_w site, d = len(lower), given
    lower, those of every degree below d.

    homs is an (m, n_v, n_w) stack of hom matrices (see hom_matrix) with
    entries in [0, p).  Returns the (m, B_w, B_v) stack of images in
    stack_dtype(p), entries in [0, p): column c of image k is the image of
    the c-th monomial of the degree-d basis of the target, in coordinates
    of the degree-d basis of the source.  phi* is a ring map, so phi*(c) =
    phi*(c1) phi*(c2) whenever c = c1 c2.  Degree 1 is the transposed hom
    matrix (phi*(a_i) = sum_j M[i][j] a_j, phi*(x_i) = sum_j M[i][j] x_j),
    and so is the x_j-by-x_i block of degree 2 at odd p, whose a_i a_j
    come from degree 1.  Every higher degree is one product step, for the
    whole stack at once: (1, d - 1) at p = 2, where every monomial of
    degree d >= 2 has a factor of degree 1, and (2, d - 2) at odd p, where
    every monomial of degree d >= 3 has one of degree 2, an x_i or an
    a_i a_j.  So a caller that keeps the stacks, as stable.Limit does,
    pays one step per new degree.  From a rank-1 site, whose basis in each
    degree is one monomial, x^k or a x^k, phi*(x_i) = m_i x and phi*(a_i)
    = m_i a, so the image of (eps, alpha) is the product of the
    m_i^(alpha_i + eps_i), or 0 if it has two a_i or more: it is read off
    _powers at _exponents, with no product step and no lower degree, and
    is exact as long as (p - 1)^n_v < 2^63, as on every site
    (p^n_v <= 512).
    """
    d, m = len(lower), len(homs)
    homs = np.asarray(homs, dtype=np.int32).reshape(m, n_v, n_w)
    dtype = stack_dtype(p)
    if n_w == 1:
        factors = _powers(p)[homs.transpose(0, 2, 1), _exponents(n_v, p, d)]
        return (factors.prod(axis=2) % p).astype(dtype)[:, None]
    if d == 0:
        return np.ones((m, 1, 1), dtype=dtype)
    if d == 1:
        return homs.transpose(0, 2, 1).astype(dtype)
    if p != 2 and d == 2:
        # the x_i come last in the degree-2 basis, after the a_i a_j
        ext = _product_step(lower[1], lower[1], n_w, n_v, p, 1, 1)
        img = np.zeros((m, len(_basis(n_w, p, 2)), len(_basis(n_v, p, 2))),
                       dtype=dtype)
        img[:, :, :ext.shape[2]] = ext
        img[:, img.shape[1] - n_w:, ext.shape[2]:] = lower[1]
        return img
    a = 1 if p == 2 else 2
    return _product_step(lower[a], lower[d - a], n_w, n_v, p, a, d - a)


def restriction_matrices(homs, n_w, n_v, p, d):
    """The degree-d restriction_stack along homs, as int32: from a rank-1
    site the closed form alone, else every degree up to d in turn, one
    product step per degree from 2 to d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    lower = [None] * d if n_w == 1 else []
    while len(lower) <= d:
        lower.append(restriction_stack(homs, n_w, n_v, p, lower))
    return lower[d].astype(np.int32)


def restriction_matrix(phi, site_w, site_v, d):
    """Images along phi: W -> V of every degree-d basis monomial of site_v:
    restriction_matrices on the one hom matrix of phi."""
    return restriction_matrices(hom_matrix(phi, site_w, site_v)[None],
                                site_w.rank, site_v.rank, site_v.p, d)[0]


def restrict_element(phi, site_w, site_v, elem):
    """Pull a class on the target site back along phi: W -> V."""
    image = restriction_matrix(phi, site_w, site_v, elem.degree) @ \
        np.array(elem.coords, dtype=np.int64) % site_v.p
    return CohoElement(site_w, elem.degree, image.tolist())
