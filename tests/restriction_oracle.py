"""Reference restriction kernel and stable-elements limit.

The library builds restriction matrices for a whole stack of hom matrices
of one shape at once (cohomology.restriction_matrices), assembles the
stable-elements constraint system into one preallocated array, and solves
it with unknowns on one site per F-class only.  The tests keep the
per-morphism kernel, the per-morphism block assembly, and the limit with
one block of unknowns on every site, as the oracles for all three.
"""

import numpy as np

from fusionwb.cohomology import (
    _basis,
    _generator_degree,
    _left_products,
    _peels,
    cohomology_basis,
)
from fusionwb.linalg import nullspace


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
    return images[d]


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
