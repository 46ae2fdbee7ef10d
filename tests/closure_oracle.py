"""Reference closure for generated fusion systems, one homset per pair.

The library stores a fusion system by Hom_F(P, S) for each subgroup P and
closes only the maps into S.  The tests keep the closure it replaced, which
holds a homset for every ordered pair (P, Q) and composes through all of
them, as the independent oracle for it.  The body is the earlier
fusion.generate_fusion, except that it returns the pair-keyed homsets
instead of a FusionSystem.
"""

from collections import deque

from fusionwb.fusion import conjugation_homs
from fusionwb.groups import InjHom, lattice


def reference_generate_homsets(S, p, generators):
    """Least fusion system on S containing the given morphisms.

    Seeds all S-conjugations, then closes under composition, restriction,
    corestriction to the image, and inverses of isomorphisms.  Returns
    {(P.elements, Q.elements): [maps P -> Q]} for every pair.
    """
    G = S.parent
    if S.elements != tuple(range(G.order)):
        raise ValueError("S must be the full subgroup of its p-group")
    lat = lattice(G)
    subs = lat.subgroups

    homs = {(P.elements, Q.elements): {} for P in subs for Q in subs}
    queue = deque()

    def add(h):
        key = (h.source.elements, h.target.elements)
        if h.images not in homs[key]:
            homs[key][h.images] = h
            queue.append(h)

    for h in conjugation_homs(G, {x: x for x in G.elements()}, subs):
        add(h)
    for phi in generators:
        if phi.source.parent != G or phi.target.parent != G:
            raise ValueError("generator does not live on S")
        add(InjHom(lat.by_key[phi.source.elements],
                   lat.by_key[phi.target.elements], phi.images))

    while queue:
        h = queue.popleft()
        skey, tkey = h.source.elements, h.target.elements
        for P2 in lat.below[skey]:
            add(h.restrict(P2))
        core = InjHom(h.source, lat.by_key[h.image_elements()], h.images)
        add(core)
        add(core.inverse())
        for R in subs:
            for images in list(homs[(tkey, R.elements)]):
                add(homs[(tkey, R.elements)][images].compose(h))
        for P0 in subs:
            for images in list(homs[(P0.elements, skey)]):
                add(h.compose(homs[(P0.elements, skey)][images]))

    return {key: list(d.values()) for key, d in homs.items()}
