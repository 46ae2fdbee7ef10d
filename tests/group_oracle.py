"""Reference group builders and searches and the per-morphism family check.

The library builds a Cayley table from the products with a few
generators, finds the subgroup lattice and the elementary abelian
subgroups by one prime-index step search from the trivial subgroup, picks
the generators of a group and the basis of a site by one greedy pick
(groups.generating_sequence), and checks a stable family on the batched
restriction kernel along the maps of its class-reduced limit, one call per
(rank W, rank V) shape.  The tests keep the code these replaced as the
independent oracles for them: the bodies are the earlier
groups.group_from_elements (all n^2 products), groups.subgroups,
groups._elementary_abelian_search, groups.elementary_basis and
groups.generating_sequence, verbatim, under reference_ names, and
reference_check_family, the per-morphism check over every fusion morphism
of conjugation_oracle.reference_fusion_ea_morphisms.

Centralizers, normalizers, the least conjugate that picks a Sylow
subgroup, and conjugation images read one g x g^-1 array per group in the
library (groups.conjugation_array); the per-element loops it replaced are
kept here as reference_centralizer, reference_normalizer,
reference_least_conjugate and reference_conjugation_images.
conjugate_subgroup, g P g^-1 element by element, has no caller in the
library; the tests use it to test normality and the lattice's closure
under conjugation.
"""

from conjugation_oracle import reference_fusion_ea_morphisms

from fusionwb.cohomology import cohomology_basis, restrict_element
from fusionwb.errors import IncompatibleFamily, OrderBoundExceeded
from fusionwb.groups import MAX_TABLE_ORDER, Group, Subgroup, closure


def reference_group_from_elements(items, compose, name="G"):
    """The Group on a list of hashable items closed under compose, with
    element k the item items[k]; items[0] must be the identity.  At most
    MAX_TABLE_ORDER items, counted before anything is composed."""
    if len(items) > MAX_TABLE_ORDER:
        raise OrderBoundExceeded(
            f"order {len(items)} exceeds table bound {MAX_TABLE_ORDER}")
    pos = {x: i for i, x in enumerate(items)}
    try:
        table = [[pos[compose(a, b)] for b in items] for a in items]
    except KeyError:
        raise ValueError("item set is not closed under composition") from None
    return Group(table, name=name)


def reference_subgroups(G):
    """All subgroups of G, each exactly once, sorted by (size, elements)."""
    if G.order > MAX_TABLE_ORDER:
        raise OrderBoundExceeded(f"order {G.order} exceeds {MAX_TABLE_ORDER}")
    cyclic = {closure(G, (x,)) for x in G.elements()}
    found = {(0,)} | cyclic
    frontier = list(found)
    while frontier:
        nxt = []
        for h in frontier:
            hset = set(h)
            for x in G.elements():
                if x in hset:
                    continue
                k = closure(G, h + (x,))
                if k not in found:
                    found.add(k)
                    nxt.append(k)
        frontier = nxt
    return [Subgroup(G, h) for h in sorted(found, key=lambda h: (len(h), h))]


def conjugate_subgroup(G, g, P):
    """g P g^-1."""
    return Subgroup(G, [G.conj(g, x) for x in P.elements])


def reference_centralizer(G, P):
    """C_G(P) = elements commuting with every element of P."""
    t = G.table
    elems = [g for g in G.elements()
             if all(t[g][x] == t[x][g] for x in P.elements)]
    return Subgroup(G, elems)


def reference_normalizer(G, P):
    """N_G(P) = elements with g P g^-1 = P."""
    pset = P.as_set()
    elems = [g for g in G.elements()
             if all(G.conj(g, x) in pset for x in P.elements)]
    return Subgroup(G, elems)


def reference_least_conjugate(G, P):
    """The conjugate g P g^-1 with the least sorted element tuple."""
    return Subgroup(G, min(tuple(sorted(G.conj(g, x) for x in P.elements))
                           for g in G.elements()))


def reference_conjugation_images(G, subs, emb=None):
    """{P.elements: {images of c_g|P: [g, ...]}} over g in G, keys in the
    order of their first g, each g list ascending.  subs are subgroups of G,
    or, when the dict emb embeds their group into G, of that group, with
    c_g(x) = emb^-1(g emb(x) g^-1); an image outside emb's range is left out.
    """
    t = G.table
    back = None if emb is None else {y: x for x, y in emb.items()}
    found = {P.elements: {} for P in subs}
    for g in G.elements():
        ginv = G.inv(g)
        row = [t[y][ginv] for y in t[g]]
        if back is not None:
            row = {x: back.get(row[y]) for x, y in emb.items()}
        for P in subs:
            images = tuple(map(row.__getitem__, P.elements))
            if back is None or None not in images:
                found[P.elements].setdefault(images, []).append(g)
    return found


def reference_elementary_abelian_search(G, p):
    """elementary_abelians by closing commuting elements of order p."""
    order_p = [x for x in G.elements() if x != 0 and G.element_order(x) == p]
    t = G.table
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for v in frontier:
            vset = set(v)
            for x in order_p:
                if x in vset:
                    continue
                if any(t[x][y] != t[y][x] for y in v):
                    continue
                w = closure(G, v + (x,))
                if w not in found:
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    return [Subgroup(G, v) for v in sorted(found, key=lambda v: (len(v), v))]


def reference_elementary_basis(V, p):
    """Minimal generators of an elementary abelian subgroup, in element order."""
    basis = []
    span = {0}
    for x in V.elements:
        if x in span:
            continue
        basis.append(x)
        span = set(closure(V.parent, tuple(span) + (x,)))
    return tuple(basis)


def reference_generating_sequence(G):
    """Small generating list chosen greedily by element index."""
    gens = []
    span = {0}
    for x in G.elements():
        if x not in span:
            gens.append(x)
            span = set(closure(G, tuple(gens)))
            if len(span) == G.order:
                break
    return gens


def reference_check_family(fam, homs=None):
    """Verify compatibility under every fusion morphism between sites: homs,
    if given, is reference_fusion_ea_morphisms(fam.F, fam.sites,
    generating=False), built once for the families of one system."""
    sites = fam.sites
    if len(fam.coords) != sum(len(cohomology_basis(s, fam.degree))
                              for s in sites):
        raise IncompatibleFamily(f"row not of degree {fam.degree}")
    if homs is None:
        homs = reference_fusion_ea_morphisms(fam.F, sites, generating=False)
    for phi, sw, sv in homs:
        got = restrict_element(phi, sw, sv, fam.components[sv.key])
        want = fam.components[sw.key]
        if got.terms != want.terms:
            raise IncompatibleFamily(
                f"restriction along {phi!r} disagrees at {list(sw.key)}")
    return True
