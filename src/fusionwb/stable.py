"""Stable elements at the elementary-abelian level.

The ring of stable elements is the limit of the cohomology of the
elementary abelian subgroups over the fusion category, realized degree by
degree as the solution space of a linear system.  A limit over a category
is the limit over a skeleton of it, so the unknowns are one block per
F-class representative, and the equations one block per generator of the
automorphisms of a representative and per orbit of them on its index-p
subsites, up to F-isomorphism: the restriction of the larger component
equals the smaller one.  The solutions are pulled back to every site and
put in the basis that the system with unknowns on every site gives, which
depends only on the solution space.  For a fusion system the maps
come from the fusion category; for a finite group they come from
conjugation and inclusion (the Quillen category), which is what the
cross-check compares.  The sites and maps do not depend on the degree:
they are built once per fusion system and once per (group, p), and kept
there, so a degree runs only the restriction kernel and the elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import (
    CohoElement,
    Site,
    cohomology_basis,
    hom_matrix,
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
    pulls) as tuples, and in shapes the non-identity maps of homs + pulls
    by (rank W, rank V) shape, each shape with the positions of its maps in
    homs + pulls, the indices in sites of their W and V, and the stack of
    their hom matrices."""

    def __new__(cls, sites, homs, pulls):
        self = super().__new__(cls, (tuple(sites), tuple(homs), tuple(pulls)))
        index = {s.key: i for i, s in enumerate(sites)}
        shapes = {}
        for k, (phi, sw, sv) in enumerate(self[1] + self[2]):
            if sw.key != sv.key or phi.images != sw.key:
                shapes.setdefault((sw.rank, sv.rank), []).append(
                    (k, index[sw.key], index[sv.key], hom_matrix(phi, sw, sv)))
        self.shapes = tuple((shape, *map(np.array, zip(*rows)))
                            for shape, rows in shapes.items())
        return self


def fusion_ea_morphisms(F, generating=True):
    """The Limit of the morphisms between the sites, a Site on each
    elementary abelian subgroup in (size, elements) order, from the stored
    maps Hom_F(W, S): _site_morphisms, or (sites, every morphism, no
    pullbacks), each h paired with every site above h(W).  It is built on
    first use and kept on F."""
    if generating not in F._limits:
        sites = [Site(V, F.p) for V in elementary_abelians(F.group, F.p)]
        if generating:
            limit = _site_morphisms(sites, {s.key: [
                h.images for h in F.homsets[s.key]] for s in sites}, F.p)
        else:
            limit = sites, [
                (InjHom(sw.V, sv.V, h.images, _trusted=True), sw, sv)
                for sw in sites for h in F.homsets[sw.key] for sv in sites
                if sv.V.as_set().issuperset(h.images)], ()
        F._limits[generating] = Limit(*limit)
    return F._limits[generating]


def quillen_morphisms(G, p):
    """The Limit of _site_morphisms over the conjugation maps between
    sites, built on first use and kept on G."""
    if p not in G._limits:
        sites = [Site(V, p) for V in elementary_abelians(G, p)]
        found = conjugation_images(G, [s.V for s in sites])
        G._limits[p] = Limit(*_site_morphisms(sites, found, p))
    return G._limits[p]


def _restrictions(limit, d, p):
    """The degree-d restriction matrices along the maps of limit.shapes:
    per shape, the positions of its maps in homs + pulls, the indices of
    their W and V in sites, and the stack of their images."""
    for (n_w, n_v), positions, w, v, mats in limit.shapes:
        yield positions, w, v, restriction_matrices(mats, n_w, n_v, p, d)


def _constraints(limit, d, p):
    """(offsets, widths, nonzero rows of the linear system, pulled).

    One block of unknowns per site, of width zero at a site that a pullback
    leaves, and one block of equations per non-identity morphism phi: W ->
    V of homs, in their order, saying that the restriction of the V
    component equals the W component.  pulled maps the index of each pulled
    site W to that of R and the restriction matrix along iota: W -> R.
    """
    sites, homs, pulls = limit
    widths = np.array([len(cohomology_basis(s, d)) for s in sites])
    heights = np.zeros(len(homs) + len(pulls), dtype=np.intp)
    parts, pulled = [], {}
    for positions, w, v, images in _restrictions(limit, d, p):
        mine = positions < len(homs)
        pulled.update(zip(w[~mine].tolist(), zip(v[~mine].tolist(),
                                                 images[~mine])))
        parts.append([a[mine] for a in (positions, w, v, images)])
        heights[positions[mine]] = widths[w[mine]]
    widths[list(pulled)] = 0
    offsets = np.cumsum(widths) - widths
    starts = np.cumsum(heights) - heights
    system = np.zeros((heights.sum(), widths.sum()), dtype=np.int32)
    for positions, w, v, images in parts:
        _, n_w, n_v = images.shape
        rows = starts[positions, None] + np.arange(n_w)
        cols = offsets[v, None] + np.arange(n_v)
        system[rows[:, :, None], cols[:, None, :]] = images
        diag = offsets[w, None] + np.arange(n_w)
        system[rows, diag] = (system[rows, diag] - 1) % p
    return offsets, widths, system[system.any(axis=1)], pulled


def _limit_basis(limit, d, p):
    """Families (one class per site) compatible under every given morphism,
    in the basis nullspace gives for the system with unknowns on every site.

    The unknowns sit on the sites that no pullback (iota, W, R) leaves, and
    the W component is iota^* of the R component.
    """
    offsets, widths, system, pulled = _constraints(limit, d, p)
    total = int(widths.sum())
    kernel = nullspace(system, total, p)
    kernel = np.array(kernel, dtype=np.int64).reshape(len(kernel), total)
    comps = [kernel[:, o:o + n] for o, n in zip(offsets, widths)]
    for w, (r, image) in pulled.items():
        comps[w] = comps[r] @ image.T % p
    full = np.concatenate(comps, axis=1)
    bounds = np.cumsum([0] + [c.shape[1] for c in comps]).tolist()
    return [{s.key: CohoElement(s, d, vec[i:j])
             for s, i, j in zip(limit[0], bounds, bounds[1:])}
            for vec in canonical_kernel(full, full.shape[1], p).tolist()]


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
    """A compatible family of classes over the elementary abelian subgroups."""

    F: object
    degree: int
    components: dict          # site key -> CohoElement
    sites: tuple

    def is_zero(self):
        return all(c.is_zero() for c in self.components.values())


def _stable_series(F, degrees, generating=True):
    sites, limits = _limits(degrees, F.p, fusion_ea_morphisms, F, generating)
    return [[StableFamily(F, d, comps, sites) for comps in families]
            for d, families in zip(degrees, limits)]


def stable_basis(F, d):
    """Basis of the degree-d stable elements of F at the elementary-abelian level."""
    return _stable_series(F, [d])[0]


def stable_bases(F, max_degree):
    """stable_basis(F, d) for d = 0..max_degree, building the sites and
    morphisms once; a list with one list of families per degree."""
    return _stable_series(F, range(max_degree + 1))


def stable_basis_all_morphisms(F, d):
    """Same limit over every fusion morphism; the brute-force cross-check."""
    return _stable_series(F, [d], generating=False)[0]


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
    comps = {key: f1.components[key].mul(f2.components[key])
             for key in f1.components}
    return StableFamily(F, degree, comps, f1.sites)


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
    """Verify compatibility under every fusion morphism between sites: each
    component is of degree fam.degree, and the restriction along phi: W -> V
    of the V component is the W component."""
    limit = fusion_ea_morphisms(fam.F, generating=False)
    sites, homs, _ = limit
    for key, comp in fam.components.items():
        if comp.site.key != key:
            raise IncompatibleFamily("component stored under the wrong site")
    missing = [s.key for s in sites if s.key not in fam.components]
    if missing:
        raise IncompatibleFamily(f"missing components at {missing}")
    d, p = fam.degree, fam.F.p
    for s in sites:
        if fam.components[s.key].degree != d:
            raise IncompatibleFamily(
                f"component at {list(s.key)} is not of degree {d}")
    coords = [np.array(fam.components[s.key].coords, dtype=np.int64)
              for s in sites]
    bad = []
    for positions, w, v, images in _restrictions(limit, d, p):
        got = np.einsum("mwv,mv->mw", images,
                        np.stack([coords[k] for k in v])) % p
        want = np.stack([coords[k] for k in w])
        bad += positions[(got != want).any(axis=1)].tolist()
    if bad:
        phi, sw, _ = homs[min(bad)]
        raise IncompatibleFamily(
            f"restriction along {phi!r} disagrees at {list(sw.key)}")
    return True


def is_nilpotent(fam):
    """True iff every component dies in F_p[V], i.e. some power is zero."""
    check_family(fam)
    return all(c.poly_projection().is_zero()
               for c in fam.components.values())


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
