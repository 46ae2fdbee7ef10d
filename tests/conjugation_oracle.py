"""Reference loops for conjugation maps and F-conjugacy classes.

The library computes every c_g : P -> Q with one enumerator
(fusion.conjugation_homs), reads the F-class of P off the images of the
morphisms P -> S, and builds the morphisms between elementary abelian
sites with one builder (stable._site_morphisms).  The tests keep the loops
these replaced, one per (P, Q, g) triple with the subgroups searched
afresh, a union-find over pairs of subgroups, and a conjugation loop per
site, as the independent oracles for them, and the builder's earlier plan,
with unknowns on every class representative (reference_site_morphisms).
It also keeps the restriction and the image subgroup of a map, which only
the tests take.
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


def reference_greedy_generators(key, autos):
    """Each of the image tuples autos, automorphisms of the site with
    elements key, in turn, kept unless those kept before it generate it."""
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
                gh = tuple(g[pos[y]] for y in h)
                if gh not in reached:
                    reached.add(gh)
                    todo.append(gh)
    return kept


def reference_site_morphisms(sites, images_of, p):
    """(sites, constraints, pulls) with one block of unknowns per class
    representative, as (map, W, V) triples, for stable.Limit.

    images_of[W key] lists the image tuples of the maps out of W.  The
    representative R_W of W's class is its first site in (size, elements)
    order, and iota_W : W -> R_W the least image tuple onto it.  The
    constraints are, on each representative V, a greedy generating set of
    its automorphisms in stored order and, for one index-p subsite U of V
    per Aut(V)-orbit, the first in site order, the map incl o iota_U^-1 :
    R_U -> V.  Every other site W is pulled along iota_W.
    """
    by_key = {s.key: s for s in sites}
    spans = {s.key: [(tuple(sorted(images)), images)
                     for images in images_of[s.key]] for s in sites}
    iota = {key: min(pairs) for key, pairs in spans.items()}
    homs, pulls = [], []
    for sv in sites:
        rep, images = iota[sv.key]
        if rep != sv.key:
            rep = by_key[rep]
            pulls.append((InjHom(sv.V, rep.V, images, _trusted=True), sv, rep))
            continue
        autos = [images for span, images in spans[sv.key] if span == sv.key]
        homs += [(InjHom(sv.V, sv.V, images, _trusted=True), sv, sv)
                 for images in reference_greedy_generators(sv.key, autos)]
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
