"""Reference group searches and the per-morphism family check.

The library finds the subgroup lattice and the elementary abelian
subgroups by one closure search from the trivial subgroup, picks the
generators of a group and the basis of a site by one greedy pick
(groups.generating_sequence), and checks a stable family on the batched
restriction kernel, one call per (rank W, rank V) shape.  The tests keep
the code these replaced as the independent oracles for them: the bodies
are the earlier groups.subgroups, groups._elementary_abelian_search,
groups.elementary_basis, groups.generating_sequence and
stable.check_family, verbatim, under reference_ names.
"""

from fusionwb.cohomology import restrict_element
from fusionwb.errors import IncompatibleFamily, OrderBoundExceeded
from fusionwb.groups import MAX_TABLE_ORDER, Subgroup, closure
from fusionwb.stable import fusion_ea_morphisms


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


def reference_check_family(fam):
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
