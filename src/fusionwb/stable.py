"""Stable elements at the elementary-abelian level.

The ring of stable elements is the limit of the cohomology of the
elementary abelian subgroups over the fusion category, realized degree by
degree as the solution space of a linear system.  A limit over a category
is the limit over a skeleton of it, so the unknowns are one block per
F-class representative, and the equations one block per generator of the
automorphisms of a representative and per orbit of them on its index-p
subsites, up to F-isomorphism.  The solutions are pulled back to every
site and put in the basis that the system with unknowns on every site
gives.  The maps come from the fusion category, or for a finite group
from the Quillen category, which the cross-check compares; they are built
once per fusion system or (group, p) and kept there as a Limit.  A family
is its coordinate row over every site, and check_family tests it on the
same Limit.  Every morphism is listed only for the brute-force references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress

import numpy as np

from .cohomology import (
    CohoElement,
    Site,
    basis_size,
    hom_matrix,
    polynomial_mask,
    restriction_matrices,
)
from .errors import DegreeBoundExceeded, IncompatibleFamily
from .groups import InjHom, conjugation_images, elementary_abelians
from .linalg import canonical_kernel, nullspace

MAX_DEGREE = 40


def _generators(key, autos):
    """A greedy generating set of the group of automorphisms autos of the
    site with elements key, as image tuples: each one in turn is kept unless
    those kept before it generate it."""
    pos = {x: i for i, x in enumerate(key)}
    reached, kept = {key}, []
    for images in autos:
        if images in reached:
            continue
        kept.append(images)
        todo = list(reached)
        while todo:
            g = todo.pop()
            for h in kept:
                gh = tuple(g[pos[y]] for y in h)        # g o h
                if gh not in reached:
                    reached.add(gh)
                    todo.append(gh)
    return kept


def _site_morphisms(sites, images_of, p):
    """(sites, constraints, pullbacks): the limit over the sites with one
    block of unknowns per class representative, as (map, W, V) triples.

    images_of[W key] lists the image tuples of the maps out of W, each image
    a site.  The representative R_W of W's class is its first site in
    (size, elements) order, and iota_W : W -> R_W the least image tuple onto
    it.  The constraints are, on each representative V, a greedy generating
    set of its automorphisms in stored order (_generators) and, for one
    index-p subsite U of V per Aut(V)-orbit, the first in site order, the map
    incl o iota_U^-1 : R_U -> V.  That is enough: a component invariant
    under generators is invariant under Aut(V), and the maps R_U -> V for U
    and for g(U) differ by g and by an automorphism of R_U.  A pullback
    iota_W : W -> R_W, one per site that is not a representative, gives its
    component as iota_W^* of R_W's.
    """
    by_key = {s.key: s for s in sites}
    spans = {s.key: [(tuple(sorted(images)), images)
                     for images in images_of[s.key]] for s in sites}
    iota = {key: min(pairs) for key, pairs in spans.items()}  # (R_W, iota_W)
    homs, pulls = [], []
    for sv in sites:
        rep, images = iota[sv.key]
        if rep != sv.key:
            rep = by_key[rep]
            pulls.append((InjHom(sv.V, rep.V, images, _trusted=True), sv, rep))
            continue
        autos = [images for span, images in spans[sv.key] if span == sv.key]
        homs += [(InjHom(sv.V, sv.V, images, _trusted=True), sv, sv)
                 for images in _generators(sv.key, autos)]
        pos = {x: i for i, x in enumerate(sv.key)}
        seen = set()
        for su in sites:
            if (su.V.order * p == sv.V.order and su.key not in seen
                    and sv.V.contains_subgroup(su.V)):
                seen.update(tuple(sorted(g[pos[x]] for x in su.key))
                            for g in autos)
                ru, images = iota[su.key]
                back = dict(zip(images, su.key))
                homs.append((InjHom(by_key[ru].V, sv.V, [back[x] for x in ru],
                                    _trusted=True), by_key[ru], sv))
    return sites, homs, pulls


class Limit(tuple):
    """The part of a limit that no degree changes: the triple (sites, homs,
    pulls) as tuples; free, whether a site carries unknowns (no pullback
    leaves it); and in shapes the non-identity maps of homs + pulls by
    (rank W, rank V) shape, each shape with k, the number of its maps that
    are constraints (from homs, so they come first), the positions of its
    maps in homs + pulls, the indices in sites of their W and V, and the
    stack of their hom matrices."""

    def __new__(cls, sites, homs, pulls):
        self = super().__new__(cls, (tuple(sites), tuple(homs), tuple(pulls)))
        index = {s.key: i for i, s in enumerate(sites)}
        self._bounds = {}
        self.free = np.ones(len(sites), dtype=bool)
        self.free[[index[sw.key] for _, sw, _ in pulls]] = False
        shapes = {}
        for k, (phi, sw, sv) in enumerate(self[1] + self[2]):
            if sw.key != sv.key or phi.images != sw.key:
                shapes.setdefault((sw.rank, sv.rank), []).append(
                    (k, index[sw.key], index[sv.key], hom_matrix(phi, sw, sv)))
        self.shapes = tuple(
            (shape, sum(k < len(homs) for k, *_ in rows),
             *map(np.array, zip(*rows)))
            for shape, rows in shapes.items())
        return self

    def bounds(self, d):
        """The start of each site's block in a degree-d coordinate row, then
        the row's length, as a list kept per degree."""
        if d not in self._bounds:
            self._bounds[d] = list(accumulate(
                (basis_size(s.rank, s.p, d) for s in self[0]), initial=0))
        return self._bounds[d]


def fusion_ea_morphisms(F):
    """The Limit of _site_morphisms over the stored maps Hom_F(W, S), on a
    Site per elementary abelian subgroup in (size, elements) order, built
    on first use and kept on F."""
    if F._limit is None:
        sites = [Site(V, F.p) for V in elementary_abelians(F.group, F.p)]
        F._limit = Limit(*_site_morphisms(sites, F.homsets, F.p))
    return F._limit


def _all_morphisms(F):
    """The Limit (sites, every morphism, no pullbacks) of the brute-force
    references: each stored h : W -> S paired with every site above h(W)."""
    sites = fusion_ea_morphisms(F)[0]
    return Limit(sites, [(InjHom(sw.V, sv.V, im, _trusted=True), sw, sv)
                         for sw in sites for im in F.homsets[sw.key]
                         for sv in sites if sv.V.as_set().issuperset(im)], ())


def quillen_morphisms(G, p):
    """The Limit of _site_morphisms over the conjugation maps between
    sites, built on first use and kept on G."""
    if p not in G._limits:
        sites = [Site(V, p) for V in elementary_abelians(G, p)]
        found = conjugation_images(G, [s.V for s in sites])
        G._limits[p] = Limit(*_site_morphisms(sites, found, p))
    return G._limits[p]


def _restrictions(limit, d, p):
    """The degree-d restriction matrices along the maps of limit.shapes
    whose source has a nonzero degree-d basis: per shape, k, the positions
    of its maps in homs + pulls, the indices of their W and V in sites, and
    the stack of their images."""
    for (n_w, n_v), k, positions, w, v, mats in limit.shapes:
        if basis_size(n_w, p, d):
            yield k, positions, w, v, restriction_matrices(mats, n_w, n_v,
                                                           p, d)


def _constraints(limit, d, p):
    """(widths, nonzero rows of the linear system, pulls).

    widths holds the size of the degree-d basis at each site.  One block
    of unknowns per site of limit.free, and one block of equations per
    non-identity morphism phi: W -> V of homs, in their order, saying that
    the restriction of the V component equals the W component.  pulls
    holds, per shape, the indices of its pulled sites W and of their R,
    and the stack of the restriction matrices along iota: W -> R.
    """
    widths = np.diff(limit.bounds(d))
    solved = widths * limit.free
    offsets = np.cumsum(solved) - solved
    heights = np.zeros(len(limit[1]), dtype=np.intp)
    parts, pulls = [], []
    for k, positions, w, v, images in _restrictions(limit, d, p):
        if k:
            parts.append((positions[:k], w[:k], v[:k], images[:k]))
            heights[positions[:k]] = images.shape[1]
        if k < len(positions):
            pulls.append((w[k:], v[k:], images[k:]))
    starts = np.cumsum(heights) - heights
    system = np.zeros((heights.sum(), solved.sum()), dtype=np.int32)
    for positions, w, v, images in parts:
        _, n_w, n_v = images.shape
        rows = starts[positions, None] + np.arange(n_w)
        cols = offsets[v, None] + np.arange(n_v)
        system[rows[:, :, None], cols[:, None, :]] = images
        diag = offsets[w, None] + np.arange(n_w)
        system[rows, diag] = (system[rows, diag] - 1) % p
    return widths, system[system.any(axis=1)], pulls


def _limit_basis(limit, d, p):
    """Families compatible under every given morphism, as coordinate rows
    over the sites, one site after another, in the basis nullspace gives
    for the system with unknowns on every site.

    The unknowns sit on the sites of limit.free, and the W component of a
    pullback (iota, W, R) is iota^* of the R component: per shape, one
    float64 product of the stacked R components with the stacked
    restriction matrices, exact as long as (p - 1)^2 B_R < 2^53.
    """
    widths, system, pulls = _constraints(limit, d, p)
    unknown = np.repeat(limit.free, widths)     # the columns solved for
    total = int(unknown.sum())
    kernel = nullspace(system, total, p)
    full = np.zeros((len(kernel), len(unknown)), dtype=np.int64)
    full[:, unknown] = np.array(kernel, dtype=np.int64).reshape(len(kernel),
                                                                 total)
    offsets = np.array(limit.bounds(d))
    for w, r, images in pulls:
        _, n_w, n_r = images.shape
        reps = full[:, offsets[r, None] + np.arange(n_r)]
        reps = np.ascontiguousarray(reps.transpose(1, 2, 0), dtype=np.float64)
        comps = images.astype(np.float64) @ reps      # (pulls, n_w, kernel)
        full[:, offsets[w, None] + np.arange(n_w)] = (
            comps.astype(np.int64) % p).transpose(2, 0, 1)
    return list(map(tuple, canonical_kernel(full, full.shape[1], p).tolist()))


def _limits(degrees, p, morphisms, *args):
    """_limit_basis at each of degrees over the Limit morphisms(*args)
    keeps; the degrees are checked first, so a refused one builds nothing."""
    if min(degrees, default=0) < 0:
        raise ValueError("degree must be nonnegative")
    top = max(degrees, default=0)
    if top > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {top} exceeds cap {MAX_DEGREE}")
    limit = morphisms(*args)
    return limit[0], [_limit_basis(limit, d, p) for d in degrees]


@dataclass
class StableFamily:
    """A compatible family of classes over the elementary abelian subgroups:
    its coordinates at each site of fusion_ea_morphisms(F), one site after
    another; components reads them as {site key: CohoElement}."""

    F: object
    degree: int
    coords: tuple

    @property
    def sites(self):
        return fusion_ea_morphisms(self.F)[0]

    @cached_property
    def components(self):
        limit, d, row = fusion_ea_morphisms(self.F), self.degree, self.coords
        bounds = limit.bounds(d)
        return {s.key: CohoElement(s, d, row[i:j])
                for s, i, j in zip(limit[0], bounds, bounds[1:])}

    def is_zero(self):
        return not any(self.coords)


def _stable_series(F, degrees, morphisms):
    return [[StableFamily(F, d, row) for row in rows] for d, rows in
            zip(degrees, _limits(degrees, F.p, morphisms, F)[1])]


def stable_basis(F, d):
    """Basis of the degree-d stable elements of F at the elementary-abelian level."""
    return _stable_series(F, [d], fusion_ea_morphisms)[0]


def stable_bases(F, max_degree):
    """stable_basis(F, d) for d = 0..max_degree, building the sites and
    morphisms once; a list with one list of families per degree."""
    return _stable_series(F, range(max_degree + 1), fusion_ea_morphisms)


def stable_basis_all_morphisms(F, d):
    """Same limit over every fusion morphism; the brute-force cross-check."""
    return _stable_series(F, [d], _all_morphisms)[0]


def poincare_series(F, max_degree):
    return [len(fams) for fams in stable_bases(F, max_degree)]


def family_product(f1, f2):
    """The cup product of two families over the same fusion system."""
    degree = f1.degree + f2.degree
    if degree > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {degree} exceeds cap {MAX_DEGREE}")
    F = f1.F
    # fusion_equal (F2 != F) raises MismatchedBase on another S or p
    if f2.F is not F and (f2.F.S != F.S or f2.F.p != F.p or f2.F != F):
        raise IncompatibleFamily("families over different fusion systems")
    pairs = zip(f1.components.values(), f2.components.values())
    return StableFamily(F, degree, tuple(c for x, y in pairs
                                         for c in x.mul(y).coords))


def family_power(fam, k):
    """The k-th cup power of fam, for k >= 1."""
    if k < 1:
        raise ValueError(f"power must be at least 1, not {k}")
    degree = fam.degree * k
    if degree > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {degree} exceeds cap {MAX_DEGREE}")
    out = fam
    for _ in range(k - 1):
        out = family_product(out, fam)
    return out


def check_family(fam):
    """Verify that fam's row is of its degree and that along each map
    phi: W -> V of the Limit on fam.F, which has the solutions of every
    morphism, the restriction of the V component is the W component."""
    limit, d, p = fusion_ea_morphisms(fam.F), fam.degree, fam.F.p
    bounds = limit.bounds(d)
    if len(fam.coords) != bounds[-1]:
        raise IncompatibleFamily(f"the row is not of degree {d}")
    row, offsets = np.array(fam.coords, dtype=np.int64), np.array(bounds)
    bad = []
    for _, positions, w, v, images in _restrictions(limit, d, p):
        _, n_w, n_v = images.shape
        got = np.einsum("mwv,mv->mw", images,
                        row[offsets[v, None] + np.arange(n_v)]) % p
        want = row[offsets[w, None] + np.arange(n_w)]
        bad += positions[(got != want).any(axis=1)].tolist()
    if bad:
        phi, sw, _ = (limit[1] + limit[2])[min(bad)]
        raise IncompatibleFamily(
            f"restriction along {phi!r} disagrees at {list(sw.key)}")
    return True


def is_nilpotent(fam):
    """True iff every component dies in F_p[V], i.e. some power is zero."""
    check_family(fam)
    mask = (m for s in fam.sites
            for m in polynomial_mask(s.rank, s.p, fam.degree))
    return not any(compress(fam.coords, mask))


@dataclass
class QuillenLimit:
    group: object
    p: int
    degree: int
    dimension: int
    families: list
    sites: tuple


def quillen_limits(G, p, degrees):
    """The same limit over the Quillen category of a finite group, at each
    of degrees, building the sites and morphisms once."""
    sites, limits = _limits(degrees, p, quillen_morphisms, G, p)
    return [QuillenLimit(G, p, d, len(families), families, sites)
            for d, families in zip(degrees, limits)]


def quillen_limit_finite_group(G, p, d):
    """quillen_limits at the one degree d."""
    return quillen_limits(G, p, [d])[0]
