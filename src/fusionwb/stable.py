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
from .groups import conjugation_hom, elementary_abelians, inclusion_hom
from .linalg import nullspace

MAX_DEGREE = 40


def fusion_sites(F):
    return [Site(V, F.p) for V in elementary_abelians(F.group, F.p)]


def group_sites(G, p):
    return [Site(V, p) for V in elementary_abelians(G, p)]


def _index_p_inclusions(sites, p):
    homs = []
    for sw in sites:
        for sv in sites:
            if (sv.V.order == p * sw.V.order
                    and sv.V.contains_subgroup(sw.V)):
                homs.append((inclusion_hom(sw.V, sv.V), sw, sv))
    return homs


def fusion_ea_morphisms(F, generating=True):
    """Morphisms between elementary abelian sites: a generating set, or all.

    A morphism W -> V is a stored h : W -> S paired with a site V >= h(W),
    only V = h(W) in a generating set; restriction reads only h's values.
    """
    sites = fusion_sites(F)
    by_key = {s.key: s for s in sites}
    homs = _index_p_inclusions(sites, F.p) if generating else []
    for sw in sites:
        into = {}                       # site key -> maps with image in it
        for h in F.homsets[sw.key]:
            above = F.lattice.above[h.image_elements()]  # h(W) comes first
            for Q in above[:1] if generating else above:
                into.setdefault(Q.elements, []).append(h)
        for sv in sites:
            for h in into.get(sv.key, ()):
                homs.append((h, sw, sv))
    return sites, homs, by_key


def quillen_morphisms(G, p):
    """Index-p inclusions plus all conjugation isomorphisms between sites."""
    sites = group_sites(G, p)
    by_key = {s.key: s for s in sites}
    homs = _index_p_inclusions(sites, p)
    for sw in sites:
        seen = set()
        for g in G.elements():
            images = tuple(G.conj(g, x) for x in sw.V.elements)
            if images in seen:
                continue
            seen.add(images)
            target = by_key[tuple(sorted(images))]
            homs.append((conjugation_hom(sw.V, target.V, g), sw, target))
    return sites, homs, by_key


def _limit_basis(sites, homs, d, p):
    """Families (one class per site) compatible under every given morphism."""
    sites = sorted(sites, key=lambda s: (s.V.order, s.key))
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
    return sites, families


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


def _stable_families(F, sites, homs, d):
    sites, families = _limit_basis(sites, homs, d, F.p)
    return [StableFamily(F, d, comps, tuple(sites)) for comps in families]


def stable_basis(F, d, degree_cap=MAX_DEGREE):
    """Basis of the degree-d stable elements of F at the elementary-abelian level."""
    if d > degree_cap:
        raise DegreeBoundExceeded(f"degree {d} exceeds cap {degree_cap}")
    sites, homs, _ = fusion_ea_morphisms(F, generating=True)
    return _stable_families(F, sites, homs, d)


def stable_bases(F, max_degree, degree_cap=MAX_DEGREE):
    """stable_basis(F, d) for d = 0..max_degree, building the sites and
    morphisms once; a list with one list of families per degree."""
    if max_degree > degree_cap:
        raise DegreeBoundExceeded(
            f"degree {max_degree} exceeds cap {degree_cap}")
    sites, homs, _ = fusion_ea_morphisms(F, generating=True)
    return [_stable_families(F, sites, homs, d)
            for d in range(max_degree + 1)]


def stable_basis_all_morphisms(F, d):
    """Same limit over every fusion morphism; the brute-force cross-check."""
    sites, homs, _ = fusion_ea_morphisms(F, generating=False)
    return _stable_families(F, sites, homs, d)


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
    F = fam.F
    sites, homs, _ = fusion_ea_morphisms(F, generating=False)
    by_key = {s.key: s for s in sites}
    for key, comp in fam.components.items():
        if comp.site.key != key:
            raise IncompatibleFamily("component stored under the wrong site")
    missing = [s.key for s in sites if s.key not in fam.components]
    if missing:
        raise IncompatibleFamily(f"missing components at {missing}")
    for phi, sw, sv in homs:
        got = restrict_element(phi, by_key[sw.key], by_key[sv.key],
                               fam.components[sv.key])
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


def quillen_limit_finite_group(G, p, d, degree_cap=MAX_DEGREE):
    """The same limit over the Quillen category of a finite group."""
    if d > degree_cap:
        raise DegreeBoundExceeded(f"degree {d} exceeds cap {degree_cap}")
    sites, homs, _ = quillen_morphisms(G, p)
    sites, families = _limit_basis(sites, homs, d, p)
    return QuillenLimit(G, p, d, len(families), families, tuple(sites))
