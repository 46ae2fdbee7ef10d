"""Exact arithmetic for small finite groups stored as multiplication tables.

Elements are the integers 0..order-1 with 0 the identity.  Every ordering
(elements from generators, subgroup lists, morphism lists) is fixed so that
repeated runs produce identical output.

Each group holds its table once, as the read-only intp array G.table of
8|G|^2 bytes.  Centralizers, normalizers, transporters, Sylow subgroups and
conjugation images read one more array per group, conjugation_array(G)
with conj[g, x] = g x g^-1, so each pass over G is an array operation.
Scalar loops read the rows they need once, through .tolist().
"""

from __future__ import annotations

import heapq
import zlib

import numpy as np

from .errors import NoIdentity, NonAssociative, NotClosed, OrderBoundExceeded

MAX_TABLE_ORDER = 512
MAX_GENERATED_ORDER = 10000
MAX_ISO_ORDER = 256
MAX_PERM_DEGREE = 16
MAX_SUBGROUPS = 4096


def format_elems(elems):
    """The elements as every workbench file and report writes them:
    [e1,e2,...], with no spaces."""
    return "[" + ",".join(map(str, elems)) + "]"


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
    """A finite group as a Cayley table, unchecked: io checks each table read
    from a file, and a table the library composes is a group by construction.

    table is a read-only, C-contiguous |G| x |G| intp copy of the rows, list
    or array it is given, with table[a, b] = a b.  Equality and hash read
    its values, so groups built from equal tables are equal in every
    process."""

    def __init__(self, table, name="G"):
        self.table = table = np.array(table, dtype=np.intp, order="C")
        table.flags.writeable = False
        self.order = len(table)
        self.name = name
        self.order_factors = _factorize(self.order)
        self._inv = tuple((table == 0).argmax(axis=1).tolist())
        self._hash = zlib.crc32(table.tobytes())
        self._element_orders = None
        self._lattice = None
        self._conj_array = None
        self._conjugations = None
        self._inner = None
        self._limits = {}           # p -> stable.quillen_morphisms(self, p)

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, x):
        """g x g^-1."""
        t = self.table
        return int(t[t[g, x], self._inv[g]])

    def elements(self):
        return range(self.order)

    def element_order(self, a):
        if self._element_orders is None:
            t, orders = self.table.tolist(), []
            for x in range(self.order):
                k, y = 1, x
                while y != 0:
                    y = t[y][x]
                    k += 1
                orders.append(k)
            self._element_orders = tuple(orders)
        return self._element_orders[a]

    def power(self, a, k):
        if k < 0:
            a, k = self._inv[a], -k
        r = 0
        for _ in range(k):
            r = int(self.table[r, a])
        return r

    def is_abelian(self):
        return np.array_equal(self.table, self.table.T)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Group({self.name!r}, order={self.order})"


def _validate_table(rows):
    """The rows, tuples of ints, as an intp array, once they are checked to
    be a group's table."""
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
    return t


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
    return group_from_elements(elems, _perm_mul, name=name)


class Subgroup:
    """A subgroup of a Group, stored as a sorted tuple of element indices.

    _trusted=True skips the subgroup checks, for element sets that are
    subgroups by construction (the lattice search builds them closed).
    """

    def __init__(self, parent, elements, _trusted=False):
        elems = tuple(sorted(set(int(x) for x in elements)))
        self.parent = parent
        self.elements = elems
        self._set = eset = frozenset(elems)
        if _trusted:
            return
        if not elems or elems[0] != 0:
            raise ValueError("subgroup must contain the identity 0")
        if elems[-1] >= parent.order:
            raise ValueError(f"element {elems[-1]} is not in the group")
        rows = parent.table.take(elems, axis=0).tolist()
        for x, row in zip(elems, rows):
            if parent.inv(x) not in eset:
                raise ValueError(f"not closed under inverse at {x}")
            for y in elems:
                if row[y] not in eset:
                    raise ValueError(f"not closed under product at ({x}, {y})")
        if parent.order % len(elems) != 0:
            raise ValueError("subgroup size does not divide group order")

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
    cols = [G.table[:, g].tolist() for g in frontier]
    # positive words suffice: inverses are positive powers in a finite group
    while frontier:
        nxt = []
        for x in frontier:
            for col in cols:
                y = col[x]
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(elems))


def full_subgroup(G):
    return Subgroup(G, range(G.order), _trusted=True)    # G is a subgroup


def conjugation_array(G):
    """conj[g, x] = g x g^-1 as a read-only |G| x |G| intp array, of
    8|G|^2 bytes, built on first use and kept on G."""
    if G._conj_array is None:
        G._conj_array = _conjugation_table(G)
    return G._conj_array


def _conjugation_table(G):
    T = G.table
    conj = T[T, np.array(G._inv)[:, None]]
    conj.flags.writeable = False
    return conj


def conjugates_into(G, P, Q):
    """Bool mask over g in G of g P g^-1 <= Q: the transporter N_G(P, Q)."""
    return np.isin(conjugation_array(G)[:, list(P.elements)],
                   Q.elements).all(axis=1)


def _add(found, heap, inside, gens):
    """Record the subgroup with element indicator inside and generators
    gens in found, keyed by the indicator's bytes, and queue it on heap by
    size, unless it is there already."""
    key = inside.tobytes()
    if key not in found:
        if len(found) == MAX_SUBGROUPS:
            raise OrderBoundExceeded(f"more than {MAX_SUBGROUPS} subgroups")
        found[key] = (gens, inside)
        heapq.heappush(heap, (int(inside.sum()), key))


def _prime_steps(G, found, heap, candidates):
    """Extend found by every subgroup reached by prime-index steps from the
    ones queued on heap, smallest first.

    From H, with generators gens and indicator inside, a step takes an x
    in the bool mask candidates(gens, inside), which lies in N_G(H), and,
    when xH has prime order q, K = H<x>: the cosets H x^i, i < q,
    generated by gens + (x,).  Every element of K outside H gives the same
    K, so none of them is tried again from H.
    """
    t = G.table.tolist()
    over = G.table.T[list(G._inv)]  # inside[over[y]] is the coset H y
    while heap:
        _, key = heapq.heappop(heap)
        gens, inside = found[key]
        skip = inside.copy()
        for x in np.flatnonzero(candidates(gens, inside)).tolist():
            if skip[x]:
                continue
            q, y = 1, x
            while not inside[y]:
                q, y = q + 1, t[y][x]
            if q not in G.order_factors:    # q divides |G|: one of its primes?
                continue
            grown, y = inside.copy(), x
            for _ in range(q - 1):
                grown |= inside[over[y]]
                y = t[y][x]
            skip |= grown
            _add(found, heap, grown, gens + (x,))


def _prime_step_search(G, candidates):
    """found of _prime_steps run from the trivial subgroup."""
    found, heap = {}, []
    trivial = np.zeros(G.order, dtype=bool)
    trivial[0] = True
    _add(found, heap, trivial, ())
    _prime_steps(G, found, heap, candidates)
    return found


def _sorted_subgroups(G, found):
    keys = sorted((tuple(np.flatnonzero(inside).tolist())
                   for _, inside in found.values()),
                  key=lambda h: (len(h), h))
    return [Subgroup(G, h, _trusted=True) for h in keys]


def subgroups(G):
    """All subgroups of G, each exactly once, sorted by (size, elements),
    at most MAX_SUBGROUPS of them.

    A solvable subgroup has a normal subgroup of prime index, so prime
    steps from the trivial subgroup reach every solvable subgroup (the
    cyclic extension method).  A subgroup that is not solvable is reached
    from its perfect residual, and every perfect group of order at most
    512 is quasisimple, hence 2-generated.  So when the first search does
    not reach G itself (never for |G| = p^a q^b, by Burnside), each closure
    <x, y> that it missed, x a class representative and y one of each
    C_G(x)-class, seeds a second search, with all its conjugates.
    """
    if G.order > MAX_TABLE_ORDER:
        raise OrderBoundExceeded(f"order {G.order} exceeds {MAX_TABLE_ORDER}")
    n = G.order
    conj = conjugation_array(G)

    def normalizing(gens, inside):
        return inside[conj[:, list(gens)]].all(axis=1)

    found = _prime_step_search(G, normalizing)
    if np.ones(n, dtype=bool).tobytes() in found:
        return _sorted_subgroups(G, found)
    heap, seen = [], np.zeros(n, dtype=bool)
    for x in range(1, n):
        if seen[x]:
            continue
        seen[conj[:, x]] = True
        # <x, c y c^-1> is conjugate to <x, y> for c in C_G(x)
        cent, tried = np.flatnonzero(conj[:, x] == x), np.zeros(n, dtype=bool)
        for y in G.elements():
            if tried[y]:
                continue
            tried[conj[cent, y]] = True
            elems = list(closure(G, (x, y)))
            inside = np.zeros(n, dtype=bool)
            inside[elems] = True
            if inside.tobytes() in found:
                continue
            for g in G.elements():
                inside = np.zeros(n, dtype=bool)
                inside[conj[g, elems]] = True
                _add(found, heap, inside, (int(conj[g, x]), int(conj[g, y])))
    _prime_steps(G, found, heap, normalizing)
    return _sorted_subgroups(G, found)


class Lattice:
    """G's subgroups in (size, elements) order, with containment.

    below[key] lists the proper subgroups of the subgroup with element
    tuple key, in the same order.
    """

    def __init__(self, G):
        subs = self.subgroups = tuple(subgroups(G))
        self.by_key = {P.elements: P for P in subs}
        # Q < P when every element of Q is in P and |Q| < |P|, so Q comes
        # before the first subgroup of P's size.  Element sets are compared
        # as 64-bit masks, a block of P at a time against the Q before it,
        # so that a lattice of MAX_SUBGROUPS needs a few MB, not a square
        member = np.zeros((len(subs), -(-G.order // 64) * 64), dtype=bool)
        for i, P in enumerate(subs):
            member[i, list(P.elements)] = True
        masks = np.packbits(member, axis=1, bitorder="little").view(np.uint64)
        sizes = np.array([P.order for P in subs])
        first = np.searchsorted(sizes, sizes)
        self.below = {}
        for start in range(0, len(subs), 256):
            block = slice(start, start + 256)
            end = first[block][-1]
            outside = sizes[:end] >= sizes[block, None]
            for word in masks.T:
                outside |= (word[:end] & ~word[block, None]) != 0
            for P, row in zip(subs[block], outside):
                self.below[P.elements] = [
                    subs[j] for j in np.flatnonzero(~row).tolist()]


def lattice(G):
    """G's Lattice, built on first use and kept on G."""
    if G._lattice is None:
        G._lattice = Lattice(G)
    return G._lattice


def centralizer(G, P):
    """C_G(P) = elements commuting with every element of P."""
    cols = list(P.elements)
    fixed = (conjugation_array(G)[:, cols] == cols).all(axis=1)
    return Subgroup(G, np.flatnonzero(fixed).tolist())


def conjugation_images(G, subs, emb=None):
    """{P.elements: {images of c_g|P: [g, ...]}} over g in G, keys in the
    order of their first g, each g list ascending.  subs are subgroups of G,
    or, when the dict emb embeds their group into G, of that group, with
    c_g(x) = emb^-1(g emb(x) g^-1); an image outside emb's range is left out.
    """
    conj, column = conjugation_array(G), range(G.order)
    if emb is not None:
        # conj[g, k] = emb^-1(g emb(x) g^-1) for the k-th x of emb, or -1
        back = np.full(G.order, -1, dtype=np.intp)
        back[list(emb.values())] = list(emb)
        conj = back[conj[:, list(emb.values())]]
        column = {x: k for k, x in enumerate(emb)}
    found = {}
    for P in subs:
        by_images = found[P.elements] = {}
        rows = conj[:, [column[x] for x in P.elements]].tolist()
        for g, images in enumerate(map(tuple, rows)):
            if -1 not in images:
                by_images.setdefault(images, []).append(g)
    return found


def conjugations(G):
    """conjugation_images over lattice(G), built on first use and kept on G
    (fusion_from_group fills it on its copy of S from its pass over G);
    callers read it and never change it.  The g lists under the keys inside
    P make up N_G(P), and the one under P.elements itself C_G(P)."""
    if G._conjugations is None:
        G._conjugations = conjugation_images(G, lattice(G).subgroups)
    return G._conjugations


def inner_generators(G):
    """The image tuples of c_s and c_{s^-1} on G, for s in
    generating_sequence(G), built on first use and kept on G."""
    if G._inner is None:
        conj = conjugation_array(G)
        G._inner = tuple(tuple(conj[s].tolist())
                         for g in generating_sequence(full_subgroup(G))
                         for s in (g, G.inv(g)))
    return G._inner


def normalizer(G, P):
    """N_G(P) = elements with g P g^-1 = P."""
    return Subgroup(G, np.flatnonzero(conjugates_into(G, P, P)).tolist())


def sylow_p(G, p):
    """A Sylow p-subgroup; the lexicographically least one for determinism."""
    target = p_part(G.order, p)
    conj = conjugation_array(G)
    elems, inside = (0,), np.zeros(G.order, dtype=bool)
    inside[0] = True
    while len(elems) < target:
        # P<g> for the least g outside P normalizing it with g^p in P
        normalizing = inside[conj[:, list(elems)]].all(axis=1) & ~inside
        g = next((g for g in np.flatnonzero(normalizing).tolist()
                  if inside[G.power(g, p)]), None)
        if g is None:
            raise RuntimeError("Sylow growth stalled; table is corrupt")
        elems = closure(G, elems + (g,))
        inside[list(elems)] = True
    rows = np.sort(conj[:, list(elems)], axis=1)
    return Subgroup(G, rows[np.lexsort(rows.T[::-1])[0]].tolist())


def elementary_abelians(G, p):
    """All subgroups isomorphic to (C_p)^k, k >= 0, sorted by (size, elements).

    When |G| is a power of p they are the subgroups of lattice(G) of
    exponent p that are abelian; any other G gets a search of its own,
    far cheaper than a lattice that nothing else asks for.
    """
    if p_part(G.order, p) != G.order:
        return _elementary_abelian_search(G, p)
    t = G.table
    out = []
    for V in lattice(G).subgroups:
        if all(G.element_order(x) == p for x in V.elements[1:]):
            sub = t[np.ix_(V.elements, V.elements)]
            if (sub == sub.T).all():
                out.append(V)
    return out


def _elementary_abelian_search(G, p):
    """elementary_abelians by the prime-step search, with the elements of
    order p that commute with H as the only candidates."""
    T = G.table
    order_p = np.array([G.element_order(x) == p for x in G.elements()])

    def commuting(gens, inside):
        gens = list(gens)
        return order_p & (T[:, gens] == T[gens].T).all(axis=1)

    return _sorted_subgroups(G, _prime_step_search(G, commuting))


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
    """Map gens[i] -> images[i]; returns the full map or None if inconsistent.

    The breadth-first pass checks f(x g) = f(x) h_g on every edge (x, g) of
    G's Cayley graph on gens, with f(0) = 0.  Writing y as a word in gens,
    induction along it gives f(x y) = f(x) f(y) for all x and y, so a map
    that reaches all of G with |G| distinct values is a bijective
    homomorphism, and no all-pairs check is needed."""
    fmap = {0: 0}
    frontier = [0]
    gen_pairs = [(G.table[:, g].tolist(), H.table[:, h].tolist())
                 for g, h in zip(gens, images)]
    while frontier:
        nxt = []
        for x in frontier:
            for g_col, h_col in gen_pairs:
                y = g_col[x]
                fy = h_col[fmap[x]]
                if y in fmap:
                    if fmap[y] != fy:
                        return None
                else:
                    fmap[y] = fy
                    nxt.append(y)
        frontier = nxt
    if len(fmap) != G.order or len(set(fmap.values())) != G.order:
        return None
    return fmap


def group_from_elements(items, compose, name="G"):
    """The Group on a list of hashable items closed under compose, with
    element k the item items[k]; items[0] must be the identity.  At most
    MAX_TABLE_ORDER items, counted before anything is composed.

    Only products with generators are composed: generator j is the least
    index that right multiplication by the earlier ones does not reach
    from 0, and right[j][a] is the index of items[a] composed with it.
    Every other column c = b g_j, b reached before c, is right[j] read
    at column b, since a (b g_j) = (a b) g_j.  A product outside the items
    is a ValueError.  The array it builds is the Group's table.
    """
    n = len(items)
    if n > MAX_TABLE_ORDER:
        raise OrderBoundExceeded(
            f"order {n} exceeds table bound {MAX_TABLE_ORDER}")
    pos = {x: i for i, x in enumerate(items)}
    right, via, reached = [], {0: None}, [0]
    while len(reached) < n:
        g = items[next(i for i in range(n) if i not in via)]
        try:
            right.append([pos[compose(a, g)] for a in items])
        except KeyError:
            raise ValueError(
                "item set is not closed under composition") from None
        via, reached = {0: None}, [0]
        for b in reached:
            for j, col in enumerate(right):
                if col[b] not in via:
                    via[col[b]] = (b, j)
                    reached.append(col[b])
    cols = np.empty((n, n), dtype=np.intp)      # cols[c] = column c
    cols[:1] = np.arange(n)                     # column 0, if n > 0
    right = np.array(right, dtype=np.intp)
    for c in reached[1:]:
        b, j = via[c]
        cols[c] = right[j][cols[b]]
    return Group(cols.T, name=name)


def subgroup_as_group(P, name=None):
    """P as a standalone Group; element k is P.elements[k]."""
    rows = P.parent.table.take(P.elements, axis=0).tolist()
    rows = dict(zip(P.elements, rows))
    name = name or f"{P.parent.name}|{list(P.elements)}"
    return group_from_elements(P.elements, lambda a, b: rows[a][b], name=name)


def quotient_group(G, N):
    """G/N for N normal; cosets sorted with N itself first.

    Returns (Group, coset tuple list); coset k of the quotient is the k-th
    tuple.
    """
    if not conjugates_into(G, N, N).all():
        raise ValueError("subgroup is not normal")
    t = G.table.tolist()

    def coset(g):
        return tuple(sorted(t[g][x] for x in N.elements))

    cosets = sorted({coset(g) for g in G.elements()})
    return group_from_elements(cosets, lambda a, b: coset(t[a[0]][b[0]]),
                               name=f"{G.name}/N"), cosets


class InjHom:
    """An injective homomorphism between subgroups, given on every element.

    images[k] is the image of source.elements[k] as an element index of the
    target's parent group; source and target may live in different groups.
    """

    __slots__ = ("source", "target", "images", "_map")

    def __init__(self, source, target, images, _trusted=False):
        images = tuple(images) if _trusted else tuple(int(x) for x in images)
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
            st = source.parent.table.take(source.elements, axis=0).tolist()
            tt = dict(zip(images,
                          target.parent.table.take(images, axis=0).tolist()))
            for x, row in zip(source.elements, st):
                for y in source.elements:
                    if fmap[row[y]] != tt[fmap[x]][fmap[y]]:
                        raise ValueError(f"not multiplicative at ({x}, {y})")
        self.source = source
        self.target = target
        self.images = images

    def image_of(self, x):
        return self._map[x]

    def image_elements(self):
        return tuple(sorted(self.images))

    def is_iso_onto_target(self):
        return self.image_elements() == self.target.elements

    def compose(self, first):
        """self o first; first's target must equal self's source."""
        if first.target != self.source:
            raise ValueError("composition mismatch")
        return InjHom(first.source, self.target,
                      [self._map[y] for y in first.images], _trusted=True)

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

