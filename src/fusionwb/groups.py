"""Exact arithmetic for small finite groups stored as multiplication tables.

Elements are the integers 0..order-1 with 0 the identity.  Every ordering
(elements from generators, subgroup lists, morphism lists) is fixed so that
repeated runs produce identical output.
"""

from __future__ import annotations

import numpy as np

from .errors import NoIdentity, NonAssociative, NotClosed, OrderBoundExceeded

MAX_TABLE_ORDER = 512
MAX_GENERATED_ORDER = 10000
MAX_ISO_ORDER = 256
MAX_PERM_DEGREE = 16


def _factorize(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def p_part(n, p):
    """The largest power of the prime p dividing n."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    m = 1
    while n % p == 0:
        m *= p
        n //= p
    return m


def is_prime(n):
    return _factorize(n) == {n: 1}


def prime_of(order):
    """The prime p of which order is a power, or None when order is 1."""
    factors = _factorize(order)
    if len(factors) > 1:
        raise ValueError(f"order {order} is not a prime power")
    return next(iter(factors), None)


class Group:
    """A finite group as a validated Cayley table."""

    def __init__(self, table, name="G"):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        self.table = rows
        self.order = len(rows)
        self.name = name
        _validate_table(rows)
        self.order_factors = _factorize(self.order)
        inv = [None] * self.order
        for a in range(self.order):
            inv[a] = rows[a].index(0)
        self._inv = tuple(inv)
        self._hash = hash(self.table)
        self._element_orders = None
        self._lattice = None
        self._conjugations = None

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, x):
        """g x g^-1."""
        return self.table[self.table[g][x]][self._inv[g]]

    def elements(self):
        return range(self.order)

    def element_order(self, a):
        if self._element_orders is None:
            orders = []
            for x in range(self.order):
                k, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    k += 1
                orders.append(k)
            self._element_orders = tuple(orders)
        return self._element_orders[a]

    def power(self, a, k):
        if k < 0:
            a, k = self._inv[a], -k
        r = 0
        for _ in range(k):
            r = self.table[r][a]
        return r

    def is_abelian(self):
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self.order == other.order and self.table == other.table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Group({self.name!r}, order={self.order})"


def _validate_table(rows):
    n = len(rows)
    if n == 0:
        raise NotClosed("empty table")
    if n > MAX_TABLE_ORDER:
        raise OrderBoundExceeded(f"order {n} exceeds table bound {MAX_TABLE_ORDER}")
    for row in rows:
        if len(row) != n:
            raise NotClosed("table is not square")
        for x in row:
            if not 0 <= x < n:
                raise NotClosed(f"entry {x} outside 0..{n - 1}")
    ident = tuple(range(n))
    if rows[0] != ident or tuple(r[0] for r in rows) != ident:
        raise NoIdentity("row/column 0 is not the identity")
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise NotClosed(f"row {i} is not a permutation")
    for j in range(n):
        if len({rows[i][j] for i in range(n)}) != n:
            raise NotClosed(f"column {j} is not a permutation")
    t = np.array(rows, dtype=np.intp)
    for a in range(n):
        lhs = t[t[a]]        # lhs[b, c] = t[t[a, b], c]
        rhs = t[a][t]        # rhs[b, c] = t[a, t[b, c]]
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise NonAssociative((a, b, c))


def _perm_mul(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def build_group_from_permutations(gens, name="G"):
    """Close permutation generators breadth-first into a Group.

    Levels are discovered by right multiplication with the generators in the
    given order; within a level, new permutations are appended in image-tuple
    lexicographic order.
    """
    if not gens:
        raise ValueError("at least one generator required")
    degree = len(gens[0])
    if degree > MAX_PERM_DEGREE:
        raise OrderBoundExceeded(f"degree {degree} exceeds bound {MAX_PERM_DEGREE}")
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = set()
        for x in frontier:
            for g in gens:
                y = _perm_mul(x, g)
                if y not in seen and y not in new:
                    new.add(y)
        frontier = sorted(new)
        for y in frontier:
            seen.add(y)
            elems.append(y)
        if len(elems) > MAX_GENERATED_ORDER:
            raise OrderBoundExceeded(
                f"generated order exceeds {MAX_GENERATED_ORDER}")
    if len(elems) > MAX_TABLE_ORDER:
        raise OrderBoundExceeded(
            f"generated order {len(elems)} exceeds table bound {MAX_TABLE_ORDER}")
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[_perm_mul(a, b)] for b in elems] for a in elems]
    return Group(table, name=name)


class Subgroup:
    """A subgroup of a Group, stored as a sorted tuple of element indices."""

    def __init__(self, parent, elements):
        elems = tuple(sorted(set(int(x) for x in elements)))
        if not elems or elems[0] != 0:
            raise ValueError("subgroup must contain the identity 0")
        if elems[-1] >= parent.order:
            raise ValueError(f"element {elems[-1]} is not in the group")
        eset = frozenset(elems)
        t = parent.table
        for x in elems:
            if parent.inv(x) not in eset:
                raise ValueError(f"not closed under inverse at {x}")
            row = t[x]
            for y in elems:
                if row[y] not in eset:
                    raise ValueError(f"not closed under product at ({x}, {y})")
        if parent.order % len(elems) != 0:
            raise ValueError("subgroup size does not divide group order")
        self.parent = parent
        self.elements = elems
        self._set = eset

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._set

    def contains_subgroup(self, other):
        return self._set.issuperset(other._set)

    def as_set(self):
        return self._set

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.elements == other.elements and self.parent == other.parent

    def __hash__(self):
        return hash((self.parent._hash, self.elements))

    def __repr__(self):
        return f"Subgroup{list(self.elements)!r} of {self.parent.name}"


def closure(G, seed):
    """Element set of the subgroup generated by seed."""
    elems = {0}
    frontier = []
    for x in seed:
        if x not in elems:
            elems.add(x)
            frontier.append(x)
    gens = list(frontier)
    t = G.table
    # positive words suffice: inverses are positive powers in a finite group
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = t[x][g]
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(elems))


def full_subgroup(G):
    return Subgroup(G, range(G.order))


def _closure_search(G, addable):
    """The subgroups reached from the trivial one by closing, one element
    at a time, with the elements addable(h) names for the element tuple h,
    sorted by (size, elements)."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for h in frontier:
            hset = set(h)
            for x in addable(h):
                if x in hset:
                    continue
                k = closure(G, h + (x,))
                if k not in found:
                    found.add(k)
                    nxt.append(k)
        frontier = nxt
    return [Subgroup(G, h) for h in sorted(found, key=lambda h: (len(h), h))]


def subgroups(G):
    """All subgroups of G, each exactly once, sorted by (size, elements)."""
    if G.order > MAX_TABLE_ORDER:
        raise OrderBoundExceeded(f"order {G.order} exceeds {MAX_TABLE_ORDER}")
    return _closure_search(G, lambda h: G.elements())


class Lattice:
    """G's subgroups in (size, elements) order, with containment.

    below[key] lists the proper subgroups of the subgroup with element
    tuple key, in the same order.
    """

    def __init__(self, G):
        subs = self.subgroups = tuple(subgroups(G))
        self.by_key = {P.elements: P for P in subs}
        self.below = {P.elements: [Q for Q in subs if Q.order < P.order
                                   and P.contains_subgroup(Q)] for P in subs}


def lattice(G):
    """G's Lattice, built on first use and kept on G."""
    if G._lattice is None:
        G._lattice = Lattice(G)
    return G._lattice


def centralizer(G, P):
    """C_G(P) = elements commuting with every element of P."""
    t = G.table
    elems = [g for g in G.elements()
             if all(t[g][x] == t[x][g] for x in P.elements)]
    return Subgroup(G, elems)


def conjugation_images(G, subs, emb=None):
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


def conjugations(G):
    """conjugation_images over lattice(G), built on first use and kept on G;
    callers read it and never change it.  The g lists under the keys inside
    P make up N_G(P), and the one under P.elements itself C_G(P)."""
    if G._conjugations is None:
        G._conjugations = conjugation_images(G, lattice(G).subgroups)
    return G._conjugations


def normalizer(G, P):
    """N_G(P) = elements with g P g^-1 = P."""
    pset = P.as_set()
    elems = [g for g in G.elements()
             if all(G.conj(g, x) in pset for x in P.elements)]
    return Subgroup(G, elems)


def subgroup_center(P):
    """Z(P) as a subgroup of P's parent."""
    t = P.parent.table
    elems = [x for x in P.elements
             if all(t[x][y] == t[y][x] for y in P.elements)]
    return Subgroup(P.parent, elems)


def conjugate_subgroup(G, g, P):
    return Subgroup(G, [G.conj(g, x) for x in P.elements])


def sylow_p(G, p, all_conjugates=False):
    """A Sylow p-subgroup; the lexicographically least one for determinism."""
    target = p_part(G.order, p)
    elems = (0,)
    while len(elems) < target:
        P = Subgroup(G, elems)
        N = normalizer(G, P)
        grown = None
        for g in N.elements:
            if g in P:
                continue
            if G.power(g, p) in P:
                grown = closure(G, elems + (g,))
                break
        if grown is None or len(grown) <= len(elems):
            raise RuntimeError("Sylow growth stalled; table is corrupt")
        elems = grown
    conjugates = sorted({tuple(sorted(G.conj(g, x) for x in elems))
                         for g in G.elements()})
    if all_conjugates:
        return [Subgroup(G, c) for c in conjugates]
    return Subgroup(G, conjugates[0])


def elementary_abelians(G, p):
    """All subgroups isomorphic to (C_p)^k, k >= 0, sorted by (size, elements).

    When |G| is a power of p they are the subgroups of lattice(G) of
    exponent p that are abelian; any other G gets a search of its own,
    far cheaper than a lattice that nothing else asks for.
    """
    if p_part(G.order, p) != G.order:
        return _elementary_abelian_search(G, p)
    t = np.array(G.table)
    out = []
    for V in lattice(G).subgroups:
        if all(G.element_order(x) == p for x in V.elements[1:]):
            sub = t[np.ix_(V.elements, V.elements)]
            if (sub == sub.T).all():
                out.append(V)
    return out


def _elementary_abelian_search(G, p):
    """elementary_abelians by closing commuting elements of order p."""
    order_p = [x for x in G.elements() if x != 0 and G.element_order(x) == p]
    t = G.table
    return _closure_search(G, lambda v: [
        x for x in order_p if all(t[x][y] == t[y][x] for y in v)])


def generating_sequence(P):
    """Small generating list of the subgroup P, chosen greedily by element
    index."""
    gens = []
    span = {0}
    for x in P.elements:
        if x not in span:
            gens.append(x)
            span = set(closure(P.parent, tuple(gens)))
            if len(span) == P.order:
                break
    return tuple(gens)


def is_isomorphic(G, H):
    """Backtracking search for an isomorphism on a generating sequence."""
    if G.order > MAX_ISO_ORDER or H.order > MAX_ISO_ORDER:
        raise OrderBoundExceeded(f"isomorphism testing capped at {MAX_ISO_ORDER}")
    if G.order != H.order:
        return False
    gens = generating_sequence(full_subgroup(G))
    if not gens:
        return True
    by_order = {}
    for y in H.elements():
        by_order.setdefault(H.element_order(y), []).append(y)

    def extend(images):
        fmap = _hom_from_generators(G, H, gens, images)
        return fmap is not None

    def search(k, images):
        if k == len(gens):
            return extend(images)
        wanted = G.element_order(gens[k])
        for y in by_order.get(wanted, ()):
            if search(k + 1, images + [y]):
                return True
        return False

    return search(0, [])


def _hom_from_generators(G, H, gens, images):
    """Map gens[i] -> images[i]; returns the full map or None if inconsistent."""
    fmap = {0: 0}
    frontier = [0]
    gen_pairs = list(zip(gens, images))
    while frontier:
        nxt = []
        for x in frontier:
            for g, hg in gen_pairs:
                y = G.table[x][g]
                fy = H.table[fmap[x]][hg]
                if y in fmap:
                    if fmap[y] != fy:
                        return None
                else:
                    fmap[y] = fy
                    nxt.append(y)
        frontier = nxt
    if len(fmap) != G.order or len(set(fmap.values())) != G.order:
        return None
    for a in range(G.order):
        fa = fmap[a]
        for b in range(G.order):
            if fmap[G.table[a][b]] != H.table[fa][fmap[b]]:
                return None
    return fmap


def subgroup_as_group(P, name=None):
    """P as a standalone Group; element k is P.elements[k]."""
    elems = P.elements
    pos = {x: i for i, x in enumerate(elems)}
    t = P.parent.table
    table = [[pos[t[a][b]] for b in elems] for a in elems]
    return Group(table, name=name or f"{P.parent.name}|{list(elems)}")


def group_from_elements(items, compose, identity, name="G"):
    """Cayley-ize a closed set of hashable items under compose.

    Returns (Group, ordered item list); the identity item gets index 0 and
    the rest follow in sorted order.
    """
    rest = sorted(x for x in items if x != identity)
    ordered = [identity] + rest
    pos = {x: i for i, x in enumerate(ordered)}
    table = []
    for a in ordered:
        row = []
        for b in ordered:
            c = compose(a, b)
            if c not in pos:
                raise ValueError("item set is not closed under composition")
            row.append(pos[c])
        table.append(row)
    return Group(table, name=name), ordered


def quotient_group(G, N):
    """G/N for N normal; cosets sorted with N itself first.

    Returns (Group, coset tuple list); coset k of the quotient is the k-th
    tuple.
    """
    nset = N.as_set()
    for g in G.elements():
        if any(G.conj(g, x) not in nset for x in N.elements):
            raise ValueError("subgroup is not normal")
    cosets = sorted({tuple(sorted(G.table[g][x] for x in N.elements))
                     for g in G.elements()})
    pos = {c: i for i, c in enumerate(cosets)}
    table = []
    for a in cosets:
        row = []
        for b in cosets:
            g = G.table[a[0]][b[0]]
            row.append(pos[tuple(sorted(G.table[g][x] for x in N.elements))])
        table.append(row)
    return Group(table, name=f"{G.name}/N"), cosets


class InjHom:
    """An injective homomorphism between subgroups, given on every element.

    images[k] is the image of source.elements[k] as an element index of the
    target's parent group; source and target may live in different groups.
    """

    __slots__ = ("source", "target", "images", "_map")

    def __init__(self, source, target, images, _trusted=False):
        images = tuple(int(x) for x in images)
        self._map = fmap = dict(zip(source.elements, images))
        if not _trusted:
            if len(images) != source.order:
                raise ValueError("image list length differs from source order")
            if len(set(images)) != len(images):
                raise ValueError("not injective")
            tset = target.as_set()
            for y in images:
                if y not in tset:
                    raise ValueError(f"image {y} escapes the target subgroup")
            st, tt = source.parent.table, target.parent.table
            for x in source.elements:
                for y in source.elements:
                    if fmap[st[x][y]] != tt[fmap[x]][fmap[y]]:
                        raise ValueError(f"not multiplicative at ({x}, {y})")
        self.source = source
        self.target = target
        self.images = images

    def image_of(self, x):
        return self._map[x]

    def image_elements(self):
        return tuple(sorted(self.images))

    def image_subgroup(self):
        return Subgroup(self.target.parent, self.images)

    def is_iso_onto_target(self):
        return self.image_elements() == self.target.elements

    def compose(self, first):
        """self o first; first's target must equal self's source."""
        if first.target != self.source:
            raise ValueError("composition mismatch")
        return InjHom(first.source, self.target,
                      [self._map[y] for y in first.images], _trusted=True)

    def restrict(self, sub):
        """Restriction to a subgroup of the source (same target)."""
        if not self.source.contains_subgroup(sub):
            raise ValueError("restriction domain escapes the source")
        return InjHom(sub, self.target, [self._map[x] for x in sub.elements],
                      _trusted=True)

    def inverse(self):
        if not self.is_iso_onto_target():
            raise ValueError("only isomorphisms onto the target invert")
        back = {y: x for x, y in self._map.items()}
        return InjHom(self.target, self.source,
                      [back[y] for y in self.target.elements], _trusted=True)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, InjHom):
            return NotImplemented
        return (self.images == other.images
                and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        return hash((self.source.elements, self.target.elements, self.images))

    def __repr__(self):
        return (f"InjHom({list(self.source.elements)} -> "
                f"{list(self.target.elements)}; {list(self.images)})")


def conjugation_hom(P, Q, g):
    """c_g : P -> Q, x -> g x g^-1, for g with g P g^-1 <= Q."""
    G = P.parent
    return InjHom(P, Q, [G.conj(g, x) for x in P.elements], _trusted=True)
