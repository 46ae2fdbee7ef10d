"""Stable elements at the elementary-abelian level.

The ring of stable elements is realized degree by degree as the solution
space of a linear system: one block of unknowns per elementary abelian
subgroup, one block of equations per morphism between them, each equation
saying that the restriction of the larger component equals the smaller one.
For a fusion system the morphisms come from the fusion category; for a finite
group they come from conjugation and inclusion (the Quillen category), which
is what the cross-check compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import (
    CohoElement,
    Site,
    cohomology_basis,
    restrict_element,
    restriction_matrix,
)
from .errors import DegreeBoundExceeded, IncompatibleFamily
from .fusion import _conjugation_images
from .groups import InjHom, elementary_abelians, inclusion_hom
from .linalg import nullspace

MAX_DEGREE = 40


def elementary_sites(G, p):
    """A Site on each elementary abelian p-subgroup of G, in (size,
    elements) order."""
    return [Site(V, p) for V in elementary_abelians(G, p)]


def _site_morphisms(sites, images_of, p, generating):
    """(sites, morphisms W -> V as (map, W, V) triples, sites by key).

    images_of[W key] lists the image tuples of maps out of W, each image a
    site.  A generating set is the index-p inclusions, then each image
    tuple paired with the site it spans; the set of all morphisms pairs it
    with every site above that one instead.
    """
    above = {sw.key: [sv for sv in sites[i:] if sv.V.contains_subgroup(sw.V)]
             for i, sw in enumerate(sites)}
    homs = []
    if generating:
        homs = [(inclusion_hom(sw.V, sv.V), sw, sv)
                for sw in sites for sv in above[sw.key]
                if sv.V.order == p * sw.V.order]
    for sw in sites:
        for images in images_of[sw.key]:
            targets = above[tuple(sorted(images))]
            for sv in targets[:1] if generating else targets:
                homs.append((InjHom(sw.V, sv.V, images, _trusted=True),
                             sw, sv))
    return sites, homs, {s.key: s for s in sites}


def fusion_ea_morphisms(F, generating=True):
    """Morphisms between elementary abelian sites, from the stored maps
    Hom_F(W, S): a generating set, or all."""
    sites = elementary_sites(F.group, F.p)
    images_of = {s.key: [h.images for h in F.homsets[s.key]] for s in sites}
    return _site_morphisms(sites, images_of, F.p, generating)


def quillen_morphisms(G, p):
    """Index-p inclusions plus all conjugation isomorphisms between sites."""
    sites = elementary_sites(G, p)
    # the sites' elements are closed under conjugation
    found = _conjugation_images(G, {x: x for s in sites for x in s.key},
                                [s.V for s in sites])
    return _site_morphisms(sites, found, p, generating=True)


def _limit_basis(sites, homs, d, p):
    """Families (one class per site) compatible under every given morphism."""
    bases = {s.key: cohomology_basis(s, d) for s in sites}
    offsets = {}
    total = 0
    for s in sites:
        offsets[s.key] = total
        total += len(bases[s.key])
    # One block of equations per morphism phi: W -> V, saying that the
    # restriction of the V component equals the W component.  An identity
    # gives only zero rows.
    blocks = [np.zeros((0, total), dtype=np.int32)]
    for phi, sw, sv in homs:
        n_w = len(bases[sw.key])
        if not n_w or (sw.key == sv.key and phi.images == sw.key):
            continue
        block = np.zeros((n_w, total), dtype=np.int32)
        ov, ow = offsets[sv.key], offsets[sw.key]
        block[:, ov:ov + len(bases[sv.key])] = restriction_matrix(
            phi, sw, sv, d)
        diag = np.arange(n_w)
        block[diag, ow + diag] = (block[diag, ow + diag] - 1) % p
        blocks.append(block[block.any(axis=1)])
    families = []
    for vec in nullspace(np.concatenate(blocks), total, p):
        comps = {}
        for s in sites:
            terms = {}
            for c, mono in enumerate(bases[s.key]):
                coeff = vec[offsets[s.key] + c]
                if coeff:
                    terms[mono] = coeff
            comps[s.key] = CohoElement(s, terms)
        families.append(comps)
    return families


def _limits(build, p, degrees, degree_cap):
    """_limit_basis at each of degrees, over the (sites, homs, ...) that
    build() returns, built once."""
    top = max(degrees, default=0)
    if top > degree_cap:
        raise DegreeBoundExceeded(f"degree {top} exceeds cap {degree_cap}")
    sites, homs, _ = build()
    return sites, [_limit_basis(sites, homs, d, p) for d in degrees]


@dataclass
class StableFamily:
    """A compatible family of classes over the elementary abelian subgroups."""

    F: object
    degree: int
    components: dict          # site key -> CohoElement
    sites: tuple

    def component(self, V):
        return self.components[tuple(V.elements)]

    def is_zero(self):
        return all(c.is_zero() for c in self.components.values())

    def describe(self):
        lines = []
        for s in self.sites:
            lines.append(f"V={list(s.key)} ; "
                         f"{self.components[s.key].describe()}")
        return "\n".join(lines)


def _stable_series(F, degrees, generating=True, degree_cap=MAX_DEGREE):
    sites, limits = _limits(lambda: fusion_ea_morphisms(F, generating),
                            F.p, degrees, degree_cap)
    return [[StableFamily(F, d, comps, tuple(sites)) for comps in families]
            for d, families in zip(degrees, limits)]


def stable_basis(F, d, degree_cap=MAX_DEGREE):
    """Basis of the degree-d stable elements of F at the elementary-abelian level."""
    return _stable_series(F, [d], degree_cap=degree_cap)[0]


def stable_bases(F, max_degree, degree_cap=MAX_DEGREE):
    """stable_basis(F, d) for d = 0..max_degree, building the sites and
    morphisms once; a list with one list of families per degree."""
    return _stable_series(F, range(max_degree + 1), degree_cap=degree_cap)


def stable_basis_all_morphisms(F, d):
    """Same limit over every fusion morphism; the brute-force cross-check."""
    return _stable_series(F, [d], generating=False)[0]


def poincare_series(F, max_degree, degree_cap=MAX_DEGREE):
    return [len(fams) for fams in stable_bases(F, max_degree, degree_cap)]


def family_product(f1, f2):
    comps = {key: f1.components[key].mul(f2.components[key])
             for key in f1.components}
    return StableFamily(f1.F, f1.degree + f2.degree, comps, f1.sites)


def family_power(fam, k):
    out = fam
    for _ in range(k - 1):
        out = family_product(out, fam)
    return out


def check_family(fam):
    """Verify compatibility under every fusion morphism between sites."""
    sites, homs, _ = fusion_ea_morphisms(fam.F, generating=False)
    for key, comp in fam.components.items():
        if comp.site.key != key:
            raise IncompatibleFamily("component stored under the wrong site")
    missing = [s.key for s in sites if s.key not in fam.components]
    if missing:
        raise IncompatibleFamily(f"missing components at {missing}")
    for phi, sw, sv in homs:
        got = restrict_element(phi, sw, sv, fam.components[sv.key])
        want = fam.components[sw.key]
        if got.terms != want.terms:
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


def quillen_limits(G, p, degrees, degree_cap=MAX_DEGREE):
    """The same limit over the Quillen category of a finite group, at each
    of degrees, building the sites and morphisms once."""
    sites, limits = _limits(lambda: quillen_morphisms(G, p), p, degrees,
                            degree_cap)
    return [QuillenLimit(G, p, d, len(families), families, tuple(sites))
            for d, families in zip(degrees, limits)]


def quillen_limit_finite_group(G, p, d, degree_cap=MAX_DEGREE):
    """quillen_limits at the one degree d."""
    return quillen_limits(G, p, [d], degree_cap)[0]
