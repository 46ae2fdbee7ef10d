"""Stable elements at the elementary-abelian level.

The ring of stable elements is the limit of the cohomology of the
elementary abelian subgroups over the fusion category, realized degree by
degree as the solution space of a linear system.  A limit over a category
is the limit over a skeleton of it, so the unknowns are one block per
F-class representative, and the equations one block per automorphism of a
representative and per index-p inclusion into one, up to F-isomorphism:
the restriction of the larger component equals the smaller one.  The
solutions are pulled back to every site and put in the basis that the
system with unknowns on every site gives.  For a fusion system the maps
come from the fusion category; for a finite group they come from
conjugation and inclusion (the Quillen category), which is what the
cross-check compares.
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


def elementary_sites(G, p):
    """A Site on each elementary abelian p-subgroup of G, in (size,
    elements) order."""
    return [Site(V, p) for V in elementary_abelians(G, p)]


def _site_morphisms(sites, images_of, p):
    """(sites, constraints, pullbacks): the limit over the sites with one
    block of unknowns per class representative, as (map, W, V) triples.

    images_of[W key] lists the image tuples of the maps out of W, each image
    a site.  The representative R_W of W's class is its first site in
    (size, elements) order, and iota_W : W -> R_W the least image tuple onto
    it.  The constraints are, on each representative V, its automorphisms
    other than the identity and, for each index-p subsite U of V, the map
    incl o iota_U^-1 : R_U -> V.  A pullback iota_W : W -> R_W, one per site
    that is not a representative, gives its component as iota_W^* of R_W's.
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
        homs += [(InjHom(sv.V, sv.V, images, _trusted=True), sv, sv)
                 for span, images in spans[sv.key]
                 if span == sv.key and images != sv.key]
        for su in sites:
            if (su.V.order * p == sv.V.order
                    and sv.V.contains_subgroup(su.V)):
                ru, images = iota[su.key]
                back = dict(zip(images, su.key))
                homs.append((InjHom(by_key[ru].V, sv.V, [back[x] for x in ru],
                                    _trusted=True), by_key[ru], sv))
    return sites, homs, pulls


def fusion_ea_morphisms(F, generating=True):
    """The limit's morphisms between elementary abelian sites, from the
    stored maps Hom_F(W, S): _site_morphisms, or (sites, every morphism,
    no pullbacks), each h paired with every site above h(W)."""
    sites = elementary_sites(F.group, F.p)
    if generating:
        return _site_morphisms(sites, {s.key: [h.images for h in F.homsets[
            s.key]] for s in sites}, F.p)
    return sites, [(InjHom(sw.V, sv.V, h.images, _trusted=True), sw, sv)
                   for sw in sites for h in F.homsets[sw.key] for sv in sites
                   if sv.V.as_set().issuperset(h.images)], []


def quillen_morphisms(G, p):
    """_site_morphisms over the conjugation maps between sites."""
    sites = elementary_sites(G, p)
    found = conjugation_images(G, [s.V for s in sites])
    return _site_morphisms(sites, found, p)


def _restrictions(homs, d, p):
    """The degree-d restriction matrices along homs, (phi, W, V) triples,
    by (rank_W, rank_V) shape: the positions in homs of the morphisms of
    that shape, and the stack of their matrices in the same order."""
    shapes = {}
    for k, (phi, sw, sv) in enumerate(homs):
        positions, mats = shapes.setdefault((sw.rank, sv.rank), ([], []))
        positions.append(k)
        mats.append(hom_matrix(phi, sw, sv))
    return [(np.array(positions), restriction_matrices(mats, *shape, p, d))
            for shape, (positions, mats) in shapes.items()]


def _constraints(sites, homs, d, p, pulls=()):
    """(bases, offsets, total, nonzero rows of the linear system, images).

    One block of unknowns per site of sites, and one block of equations per
    morphism phi: W -> V, in the order of homs, saying that the restriction
    of the V component equals the W component.  An identity gives only zero
    rows, so it is skipped.  images holds the restriction matrices along
    pulls, in their order, from the same kernel calls.
    """
    bases = {s.key: cohomology_basis(s, d) for s in sites}
    offsets = {}
    total = 0
    for s in sites:
        offsets[s.key] = total
        total += len(bases[s.key])
    homs = [(phi, sw, sv) for phi, sw, sv in homs if bases[sw.key]
            and not (sw.key == sv.key and phi.images == sw.key)]
    starts = np.cumsum([0] + [len(bases[sw.key]) for _, sw, _ in homs])
    system = np.zeros((starts[-1], total), dtype=np.int32)
    ow = np.array([offsets[sw.key] for _, sw, _ in homs], dtype=np.intp)
    ov = np.array([offsets[sv.key] for _, _, sv in homs], dtype=np.intp)
    pull_images = [None] * len(pulls)
    for positions, images in _restrictions(homs + list(pulls), d, p):
        mine = positions < len(homs)
        for k, image in zip(positions[~mine] - len(homs), images[~mine]):
            pull_images[k] = image
        positions, images = positions[mine], images[mine]
        _, n_w, n_v = images.shape
        rows = starts[positions, None] + np.arange(n_w)
        cols = ov[positions, None] + np.arange(n_v)
        system[rows[:, :, None], cols[:, None, :]] = images
        diag = ow[positions, None] + np.arange(n_w)
        system[rows, diag] = (system[rows, diag] - 1) % p
    return bases, offsets, total, system[system.any(axis=1)], pull_images


def _limit_basis(sites, homs, pulls, d, p):
    """Families (one class per site) compatible under every given morphism,
    in the basis nullspace gives for the system with unknowns on every site.

    The unknowns sit on the sites that no pullback (iota, W, R) leaves, and
    the W component is iota^* of the R component.
    """
    pulled = {sw.key for _, sw, _ in pulls}
    bases, offsets, total, system, images = _constraints(
        [s for s in sites if s.key not in pulled], homs, d, p, pulls)
    kernel = nullspace(system, total, p)
    kernel = np.array(kernel, dtype=np.int64).reshape(len(kernel), total)
    comps = {key: kernel[:, offsets[key]:offsets[key] + len(basis)]
             for key, basis in bases.items()}
    for (_, sw, sr), image in zip(pulls, images):
        comps[sw.key] = comps[sr.key] @ image.T % p
    full = np.concatenate([comps[s.key] for s in sites], axis=1)
    monos = [(s, cohomology_basis(s, d)) for s in sites]
    families = []
    for vec in canonical_kernel(full, full.shape[1], p).tolist():
        coeffs = iter(vec)      # zip takes len(basis) of them at each site
        families.append({s.key: CohoElement(s, dict(zip(basis, coeffs)))
                         for s, basis in monos})
    return families


def _limits(build, p, degrees):
    """_limit_basis at each of degrees, over the (sites, homs, pulls) that
    build() returns, built once."""
    top = max(degrees, default=0)
    if top > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {top} exceeds cap {MAX_DEGREE}")
    sites, homs, pulls = build()
    return sites, [_limit_basis(sites, homs, pulls, d, p) for d in degrees]


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
    sites, limits = _limits(lambda: fusion_ea_morphisms(F, generating),
                            F.p, degrees)
    return [[StableFamily(F, d, comps, tuple(sites)) for comps in families]
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
    comps = {key: f1.components[key].mul(f2.components[key])
             for key in f1.components}
    return StableFamily(f1.F, f1.degree + f2.degree, comps, f1.sites)


def family_power(fam, k):
    """The k-th cup power of fam, for k >= 1."""
    if k < 1:
        raise ValueError(f"power must be at least 1, not {k}")
    out = fam
    for _ in range(k - 1):
        out = family_product(out, fam)
    return out


def check_family(fam):
    """Verify compatibility under every fusion morphism between sites: each
    component is of degree fam.degree, and the restriction along phi: W -> V
    of the V component is the W component."""
    sites, homs, _ = fusion_ea_morphisms(fam.F, generating=False)
    for key, comp in fam.components.items():
        if comp.site.key != key:
            raise IncompatibleFamily("component stored under the wrong site")
    missing = [s.key for s in sites if s.key not in fam.components]
    if missing:
        raise IncompatibleFamily(f"missing components at {missing}")
    d, p = fam.degree, fam.F.p
    coords = {}
    for s in sites:
        comp = fam.components[s.key]
        coords[s.key] = np.array(comp.coords_in(cohomology_basis(s, d)),
                                 dtype=np.int64)
        if np.count_nonzero(coords[s.key]) != len(comp.terms):
            raise IncompatibleFamily(
                f"component at {list(s.key)} is not of degree {d}")
    bad = []
    for positions, images in _restrictions(homs, d, p):
        got = np.einsum("mwv,mv->mw", images, np.stack(
            [coords[homs[k][2].key] for k in positions])) % p
        want = np.stack([coords[homs[k][1].key] for k in positions])
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
    sites, limits = _limits(lambda: quillen_morphisms(G, p), p, degrees)
    return [QuillenLimit(G, p, d, len(families), families, tuple(sites))
            for d, families in zip(degrees, limits)]


def quillen_limit_finite_group(G, p, d):
    """quillen_limits at the one degree d."""
    return quillen_limits(G, p, [d])[0]
