"""Reference closures for generated fusion systems.

The library closes a fusion system by a search over composites of its
generators.  The tests keep two earlier closures as independent oracles:

* reference_generate_homsets holds a homset for every ordered pair (P, Q)
  and composes through all of them;
* reference_closure_homsets stores only the maps into S, and takes with
  each stored h : P -> S its inverse onto h(P), its restrictions to the
  index-p subgroups of P, and h2 o h for each stored h2 on h(P).
"""

from collections import deque

from conjugation_oracle import restrict
from fusionwb.fusion import conjugation_homs
from fusionwb.groups import InjHom, lattice
from group_oracle import reference_conjugation_images


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
            add(restrict(h, P2))
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


def reference_closure_homsets(S, p, maps):
    """{P.elements: the image tuples of Hom_F(P, S), sorted} for the least
    fusion system on S holding S's conjugations and maps."""
    G = S.parent
    lat = lattice(G)
    maximal = {key: [Q.elements for Q in below if p * Q.order == len(key)]
               for key, below in lat.below.items()}
    homs = {P.elements: set() for P in lat.subgroups}
    queue = deque()

    def add(key, images):
        if images not in homs[key]:
            homs[key].add(images)
            queue.append((key, images))

    for key, found in reference_conjugation_images(G, lat.subgroups).items():
        for images in found:
            add(key, images)
    for phi in maps:
        add(phi.source.elements, phi.images)
    while queue:
        key, images = queue.popleft()
        h = dict(zip(key, images))
        img = tuple(sorted(images))
        back = {y: x for x, y in h.items()}
        add(img, tuple(back[y] for y in img))
        for sub in maximal[key]:
            add(sub, tuple(h[x] for x in sub))
        for images2 in list(homs[img]):
            h2 = dict(zip(img, images2))
            add(key, tuple(h2[y] for y in images))
    return {key: sorted(found) for key, found in homs.items()}
