"""Reference loops for conjugation maps and F-conjugacy classes.

The library computes every c_g : P -> Q with one enumerator
(fusion.conjugation_homs), reads the F-class of P off the images of the
morphisms P -> S, and builds the morphisms between elementary abelian
sites with one builder (stable._site_morphisms).  The tests keep the loops
these replaced, one per (P, Q, g) triple with the subgroups searched
afresh, a union-find over pairs of subgroups, and a conjugation loop per
site, as the independent oracles for them.  It also keeps the restriction
and the image subgroup of a map, which only the tests take.
"""

from fusionwb.groups import (
    InjHom,
    Subgroup,
    normalizer,
    subgroups,
    subgroup_as_group,
)


def conjugation_hom(P, Q, g):
    """c_g : P -> Q, x -> g x g^-1, for g with g P g^-1 <= Q."""
    G = P.parent
    return InjHom(P, Q, [G.conj(g, x) for x in P.elements], _trusted=True)


def inclusion_hom(P, Q):
    """The inclusion P -> Q, for P <= Q."""
    if not Q.contains_subgroup(P):
        raise ValueError("not a subgroup inclusion")
    return InjHom(P, Q, P.elements)


def restrict(h, sub):
    """The restriction of h to a subgroup `sub` of its source, same target."""
    if not h.source.contains_subgroup(sub):
        raise ValueError("restriction domain escapes the source")
    return InjHom(sub, h.target, [h.image_of(x) for x in sub.elements],
                  _trusted=True)


def image_subgroup(h):
    """h(P), a subgroup of h's target group."""
    return Subgroup(h.target.parent, h.images)


def reference_transporter_homsets(S, G, p):
    """Homsets of F_S(G) keyed by (P, Q) element tuples, images sorted."""
    Sgroup = subgroup_as_group(S, name=f"Syl_{p}({G.name})")
    emb = S.elements                      # S-group index -> G index
    back = {x: i for i, x in enumerate(emb)}
    homsets = {}
    for P in subgroups(Sgroup):
        for Q in subgroups(Sgroup):
            qset = {emb[y] for y in Q.elements}
            maps = set()
            for g in G.elements():
                images = []
                for x in P.elements:
                    y = G.conj(g, emb[x])
                    if y not in qset:
                        images = None
                        break
                    images.append(back[y])
                if images is not None:
                    maps.add(tuple(images))
            homsets[(P.elements, Q.elements)] = [
                InjHom(P, Q, images) for images in sorted(maps)]
    return homsets


def reference_pullback_morphisms(F, entry):
    """F_{N_S(P)}(L) pulled back through iota, as morphisms on S-subgroups."""
    N = normalizer(F.group, entry.P)
    L, iota = entry.L, entry.iota
    back = {iota.image_of(x): x for x in N.elements}
    inside = [A for A in F.subgroups if N.contains_subgroup(A)]
    out = []
    for A in inside:
        imgA = [iota.image_of(x) for x in A.elements]
        for B in inside:
            imgB = {iota.image_of(x) for x in B.elements}
            seen = set()
            for g in L.elements():
                images = []
                for y in imgA:
                    z = L.conj(g, y)
                    if z not in imgB:
                        images = None
                        break
                    images.append(back[z])
                if images is not None and tuple(images) not in seen:
                    seen.add(tuple(images))
                    out.append(InjHom(A, B, images))
    return out


def reference_classes(F):
    """Partition of the subgroups under F-isomorphism, by union-find."""
    parent = {P.elements: P.elements for P in F.subgroups}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for P in F.subgroups:
        for Q in F.subgroups:
            if P.order == Q.order and P.elements < Q.elements:
                if any(h.image_elements() == Q.elements
                       for h in F.hom(P, Q)):
                    parent[find(Q.elements)] = find(P.elements)
    buckets = {}
    for P in F.subgroups:
        buckets.setdefault(find(P.elements), []).append(P)
    classes = [tuple(sorted(v, key=lambda P: P.elements))
               for v in buckets.values()]
    classes.sort(key=lambda cls: (cls[0].order, cls[0].elements))
    return tuple(classes)


def _index_p_inclusions(sites, p):
    homs = []
    for sw in sites:
        for sv in sites:
            if (sv.V.order == p * sw.V.order
                    and sv.V.contains_subgroup(sw.V)):
                homs.append((inclusion_hom(sw.V, sv.V), sw, sv))
    return homs


def reference_fusion_ea_morphisms(F, sites, generating=True):
    """Morphisms between elementary abelian sites: a generating set, or all.

    A morphism W -> V is a stored h : W -> S paired with a site V >= h(W),
    only V = h(W) in a generating set; restriction reads only h's values.
    """
    homs = _index_p_inclusions(sites, F.p) if generating else []
    for sw in sites:
        into = {}                       # site key -> maps with image in it
        for h in F.hom(F.subgroup(sw.key), F.S):
            img = F.subgroup(h.image_elements())
            above = [Q for Q in F.subgroups if Q.contains_subgroup(img)]
            for Q in above[:1] if generating else above:  # h(W) comes first
                into.setdefault(Q.elements, []).append(h)
        for sv in sites:
            for h in into.get(sv.key, ()):
                homs.append((h, sw, sv))
    return homs


def reference_quillen_morphisms(G, p, sites):
    """Index-p inclusions plus all conjugation isomorphisms between sites."""
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
    return homs
