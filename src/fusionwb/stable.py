"""Stable elements at the elementary-abelian level.

The ring of stable elements is the limit of the cohomology of the
elementary abelian subgroups over the fusion category, realized degree by
degree as the solution space of a linear system.  Every site maps into an
F-maximal one, all of whose images are maximal elementary abelian
subgroups, so a compatible family is fixed by its components there
(Quillen).  So the unknowns are one block per F-maximal class
representative, and per the few other representatives whose maps into
those fall into two or more orbits, and the equations one block per
generator of the automorphisms of an F-maximal representative and per such
orbit.  Every other site is filled by one restriction, and the solutions
are put in the basis that the system with unknowns on every site gives; a
dimension is counted on the equations alone.  The maps come from the
fusion category, or for a finite group from the Quillen category, which
the cross-check compares; they are built once per fusion system or
(group, p) and kept there as a Limit, which keeps each degree's answer
too.  A family is its coordinate row over every site, and check_family
tests it on the same Limit.  Every morphism is listed only for the
brute-force references.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress

import numpy as np

from .cohomology import (
    CohoElement,
    Site,
    basis_size,
    hom_matrix,
    polynomial_mask,
    restriction_stack,
)
from .errors import DegreeBoundExceeded, IncompatibleFamily
from .groups import (
    InjHom,
    conjugation_images,
    elementary_abelians,
)
from .linalg import canonical_kernel, nullspace, rref

MAX_DEGREE = 40


def _reach(starts, key, gens):
    """The set of image tuples that composing the image tuples starts with
    the image tuples gens, automorphisms of the site with elements key,
    reaches, starts included."""
    pos = {x: i for i, x in enumerate(key)}
    seen = set(starts)
    todo = list(seen)
    for f in todo:
        for g in gens:
            gf = tuple(g[pos[y]] for y in f)            # g o f
            if gf not in seen:
                seen.add(gf)
                todo.append(gf)
    return seen


def _closure(key, autos):
    """(kept, reached): each of the image tuples autos of automorphisms of
    the site with elements key in turn, kept unless those kept before it
    generate it, and the set of the group they generate."""
    reached, kept = {key}, []
    for images in autos:
        if images not in reached:
            kept.append(images)
            reached = _reach(reached, key, kept)
    return kept, reached


def _generators(key, autos):
    """A generating set of the group autos of automorphisms of the site
    with elements key, as image tuples: at most two, from the first of 50
    pairs drawn by a fixed-seed random.Random whose _closure is autos, and
    else the greedy set _closure keeps of autos in order.  Each generator
    is a block of equations in every degree, and most automizers (GL_n(2)
    among them) are generated by a random pair after a few draws."""
    if len(autos) > 2:
        draw = random.Random(0)
        for _ in range(50):
            kept, reached = _closure(key, draw.sample(autos, 2))
            if len(reached) == len(autos):
                return kept
    return _closure(key, autos)[0]


def _overgroups(G, sites, p):
    """{site key: the elements of an elementary abelian subgroup of G that
    holds the site with index p, or None}: <V, x> for the least x of order
    p outside V that commutes with V's basis, so None exactly when V is
    maximal among the elementary abelian subgroups of G."""
    t = G.table
    every = np.arange(G.order)
    power = every
    for _ in range(p - 1):
        power = t[power, every]                 # x^k, k = 2..p
    order_p = power == 0
    out = {}
    for s in sites:
        basis = list(s.basis)
        outside = order_p & (t[:, basis] == t[basis].T).all(axis=1)
        outside[list(s.key)] = False
        if not outside.any():
            out[s.key] = None
            continue
        x, powers = int(outside.argmax()), [0]
        for _ in range(p - 1):
            powers.append(int(t[powers[-1], x]))
        out[s.key] = tuple(sorted(t[list(s.key)][:, powers].ravel().tolist()))
    return out


def _orbits(maps, key, gens):
    """The first of each orbit, in the order of maps, of the group that the
    image tuples gens generate, automorphisms of the site with elements
    key, on the image tuples maps of maps into it, acting by composition."""
    seen, firsts = set(), []
    for h in maps:
        if h not in seen:
            firsts.append(h)
            seen |= _reach([h], key, gens)
    return firsts


def _site_morphisms(sites, images_of, p, G):
    """(sites, constraints, pulls): the limit with unknowns on the
    F-maximal class representatives, and on the few others they do not
    fix, as (map, W, V) triples.

    images_of[W key] lists the image tuples of the maps out of W, each
    image a site of the group G.  The representative R_W of W's class is its
    first site in (size, elements) order, and iota_W : W -> R_W the least
    image tuple onto it.  A representative V is F-maximal when every image
    of V is maximal among the elementary abelian subgroups of G
    (_overgroups).  Every site maps into one: a site that is not F-maximal
    maps into a site of larger rank.  The constraints are:

    (a) on each F-maximal V, _generators of Aut(V), so that x_V is fixed by
        Aut(V);
    (b) on each other representative U whose maps into the F-maximal
        representatives V fall into two or more Aut(V)-orbits, summed over
        V (_orbits), the first map h : U -> V of each orbit, so that
        x_U = h^* x_V on every orbit.

    Those sites carry the unknowns.  Then x_W = h^* x_V is the same for
    every map h from W into an F-maximal representative: within an orbit
    by (a), across orbits by (b).  So the solutions are the limit, and
    every other site W is a pull (f, W, R), x_W = f^* x_R: a representative
    with one orbit along iota_T o h : W -> R_T, for h its least image tuple
    that lies in a site T of index p (_overgroups); any other site along
    iota_W.  R_T has a larger rank than W, so the pulls, applied by
    descending rank of W and then the iota pulls, read only sites set
    before them (Limit.shapes).
    """
    by_key = {s.key: s for s in sites}
    over = _overgroups(G, sites, p)
    spans = {s.key: sorted((tuple(sorted(images)), images)
                           for images in images_of[s.key]) for s in sites}
    iota = {key: pairs[0] for key, pairs in spans.items()}  # (R_W, iota_W)
    gens = {s.key: _generators(s.key, [images for span, images in pairs
                                       if span == s.key])
            for s, pairs in zip(sites, spans.values())
            if iota[s.key][0] == s.key
            and all(over[span] is None for span, _ in pairs)}
    homs, pulls = [], []
    for sw in sites:
        rep, images = iota[sw.key]
        if rep != sw.key:
            pulls.append((images, sw, by_key[rep]))
        elif sw.key in gens:
            homs += [(g, sw, sw) for g in gens[sw.key]]
        else:
            orbits = [(h, by_key[key]) for key, kept in gens.items()
                      for h in _orbits([h for _, h in spans[sw.key] if
                                        by_key[key].V.as_set().issuperset(h)],
                                       key, kept)]
            if len(orbits) > 1:
                homs += [(h, sw, sv) for h, sv in orbits]
                continue
            h = min(h for span, h in spans[sw.key] if over[span] is not None)
            top = over[tuple(sorted(h))]
            rep, onto = iota[top]
            pos = {x: i for i, x in enumerate(top)}
            pulls.append(([onto[pos[y]] for y in h], sw, by_key[rep]))
    homs, pulls = ([(InjHom(sw.V, sv.V, images, _trusted=True), sw, sv)
                    for images, sw, sv in maps] for maps in (homs, pulls))
    return sites, homs, pulls


class Limit(tuple):
    """The part of a limit that no degree changes: the triple (sites, homs,
    pulls) as tuples; free, whether a site carries unknowns (no pull leaves
    it); and in shapes the non-identity maps of homs + pulls by (rank W,
    rank V) shape, each shape with k, the number of its maps that are
    constraints (from homs, so they come first), the positions of its
    maps in homs + pulls, the indices in sites of their W and V, and the
    stack of their hom matrices.  The shapes come in the order the pulls
    are applied: those into a larger rank first, by descending rank of W,
    so that each reads sites that are free or set by an earlier shape, then
    those within one rank, the pulls along iota onto a representative.
    The restriction matrices along the maps of a shape, the solutions and
    the dimension of the limit depend only on the degree, so the Limit
    keeps them (stack, basis, count, families): a degree solved or counted
    once costs nothing again."""

    def __new__(cls, sites, homs, pulls):
        self = super().__new__(cls, (tuple(sites), tuple(homs), tuple(pulls)))
        index = {s.key: i for i, s in enumerate(sites)}
        self._bounds, self._stacks = {}, {}
        self._bases, self._counts, self._families = {}, {}, {}
        self.free = np.ones(len(sites), dtype=bool)
        self.free[[index[sw.key] for _, sw, _ in pulls]] = False
        shapes = {}
        for k, (phi, sw, sv) in enumerate(self[1] + self[2]):
            if sw.key != sv.key or phi.images != sw.key:
                shapes.setdefault((sw.rank, sv.rank), []).append(
                    (k, index[sw.key], index[sv.key], hom_matrix(phi, sw, sv)))
        self.shapes = tuple(
            (shape, sum(k < len(homs) for k, *_ in rows),
             *map(np.array, zip(*rows)))
            for shape, rows in sorted(shapes.items(), key=lambda item: (
                item[0][0] == item[0][1], -item[0][0])))
        return self

    def stack(self, i, d, pulls=False):
        """The degree-d restriction_stack along the constraints of the i-th
        shape, or along its pulls if pulls.  A degree not kept yet is built
        from the highest one kept below it, one product step per degree,
        and every degree passed is kept.  The constraints and the pulls
        are kept apart, so a count never builds a pull stack."""
        (n_w, n_v), k, _, _, _, mats = self.shapes[i]
        kept = self._stacks.setdefault((i, pulls), [])
        while len(kept) <= d:
            kept.append(restriction_stack(mats[k:] if pulls else mats[:k],
                                          n_w, n_v, self[0][0].p, kept))
        return kept[d]

    def basis(self, d):
        """The degree-d solutions (_limit_basis) as a tuple of coordinate
        rows, solved once per degree."""
        if d not in self._bases:
            self._bases[d] = tuple(_limit_basis(self, d, self[0][0].p))
        return self._bases[d]

    def count(self, d):
        """The dimension of the degree-d limit: the length of the kept
        basis if there is one, else _dimension, counted once per degree;
        a count never builds a pull stack."""
        if d in self._bases:
            return len(self._bases[d])
        if d not in self._counts:
            self._counts[d] = _dimension(self, d, self[0][0].p)
        return self._counts[d]

    def families(self, F, d):
        """The degree-d basis as StableFamily objects over F, the fusion
        system this Limit belongs to, built once per degree, so each
        family reads its components once."""
        if d not in self._families:
            self._families[d] = tuple(StableFamily(F, d, row)
                                      for row in self.basis(d))
        return self._families[d]

    def bounds(self, d):
        """The start of each site's block in a degree-d coordinate row, then
        the row's length, as a list kept per degree."""
        if d not in self._bounds:
            self._bounds[d] = list(accumulate(
                (basis_size(s.rank, s.p, d) for s in self[0]), initial=0))
        return self._bounds[d]


def fusion_ea_morphisms(F):
    """The Limit of _site_morphisms over the stored maps Hom_F(W, S), on a
    Site per elementary abelian subgroup in (size, elements) order, built
    on first use and kept on F."""
    if F._limit is None:
        sites = [Site(V, F.p) for V in elementary_abelians(F.group, F.p)]
        F._limit = Limit(*_site_morphisms(sites, F.homsets, F.p, F.group))
    return F._limit


def _all_morphisms(F):
    """The Limit (sites, every morphism, no pulls) of the brute-force
    references: each stored h : W -> S paired with every site above h(W)."""
    sites = fusion_ea_morphisms(F)[0]
    return Limit(sites, [(InjHom(sw.V, sv.V, im, _trusted=True), sw, sv)
                         for sw in sites for im in F.homsets[sw.key]
                         for sv in sites if sv.V.as_set().issuperset(im)], ())


def quillen_morphisms(G, p):
    """The Limit of _site_morphisms over the conjugation maps between
    sites, built on first use and kept on G."""
    if p not in G._limits:
        sites = [Site(V, p) for V in elementary_abelians(G, p)]
        found = conjugation_images(G, [s.V for s in sites])
        G._limits[p] = Limit(*_site_morphisms(sites, found, p, G))
    return G._limits[p]


def _restrictions(limit, d, p, pulls=True):
    """The degree-d restriction matrices along the maps of limit.shapes
    whose source has a nonzero degree-d basis, or along their constraints
    alone unless pulls, as the Limit keeps them: per shape, in order, its
    constraints and then its pulls, each part as k, the number of its
    constraints, the positions of its maps in homs + pulls, the indices of
    their W and V in sites, and the stack of their images."""
    for i, ((n_w, _), k, positions, w, v, _) in enumerate(limit.shapes):
        if not basis_size(n_w, p, d):
            continue
        if k:
            yield k, positions[:k], w[:k], v[:k], limit.stack(i, d)
        if pulls and k < len(positions):
            yield 0, positions[k:], w[k:], v[k:], limit.stack(i, d, True)


def _constraints(limit, d, p, pulls=True):
    """(widths, nonzero rows of the linear system, pulls).

    widths holds the size of the degree-d basis at each site.  One block
    of unknowns per site of limit.free, and one block of equations per
    non-identity morphism phi: W -> V of homs, in their order, saying that
    the restriction of the V component equals the W component.  pulls
    holds, per shape in order, the indices of its pulled sites W and of
    their R, and the stack of the restriction matrices along f: W -> R;
    it is empty, and no restriction along a pull is made, unless pulls.
    """
    widths = np.diff(limit.bounds(d))
    solved = widths * limit.free
    offsets = np.cumsum(solved) - solved
    heights = np.zeros(len(limit[1]), dtype=np.intp)
    parts, found = [], []
    for k, positions, w, v, images in _restrictions(limit, d, p, pulls):
        if k:
            parts.append((positions, w, v, images))
            heights[positions] = images.shape[1]
        else:
            found.append((w, v, images))
    starts = np.cumsum(heights) - heights
    system = np.zeros((heights.sum(), solved.sum()), dtype=np.int32)
    for positions, w, v, images in parts:
        _, n_w, n_v = images.shape
        rows = starts[positions, None] + np.arange(n_w)
        cols = offsets[v, None] + np.arange(n_v)
        system[rows[:, :, None], cols[:, None, :]] = images
        diag = offsets[w, None] + np.arange(n_w)
        system[rows, diag] = (system[rows, diag] - 1) % p
    return widths, system[system.any(axis=1)], found


def _dimension(limit, d, p):
    """The dimension of the degree-d limit: the unknowns less the rank of
    the constraints, with no pull, no row over every site and no
    canonical basis."""
    widths, system, _ = _constraints(limit, d, p, pulls=False)
    unknowns = int((widths * limit.free).sum())
    return unknowns - len(rref(system, unknowns, p)[1])


def _limit_basis(limit, d, p):
    """Families compatible under every given morphism, as coordinate rows
    over the sites, one site after another, in the basis nullspace gives
    for the system with unknowns on every site.

    The unknowns sit on the sites of limit.free, and the W component of a
    pull (f, W, R) is f^* of the R component, shape by shape in the order
    of limit.shapes: one float64 product of the stacked R components with
    the stacked restriction matrices, exact as long as (p - 1)^2 B_R < 2^53.
    """
    widths, system, pulls = _constraints(limit, d, p)
    unknown = np.repeat(limit.free, widths)     # the columns solved for
    total = int(unknown.sum())
    kernel = nullspace(system, total, p)
    full = np.zeros((len(kernel), len(unknown)), dtype=np.int64)
    full[:, unknown] = np.array(kernel, dtype=np.int64).reshape(len(kernel),
                                                                 total)
    offsets = np.array(limit.bounds(d))
    for w, r, images in pulls:
        _, n_w, n_r = images.shape
        reps = full[:, offsets[r, None] + np.arange(n_r)]
        reps = np.ascontiguousarray(reps.transpose(1, 2, 0), dtype=np.float64)
        comps = images.astype(np.float64) @ reps      # (pulls, n_w, kernel)
        full[:, offsets[w, None] + np.arange(n_w)] = (
            comps.astype(np.int64) % p).transpose(2, 0, 1)
    return list(map(tuple, canonical_kernel(full, full.shape[1], p).tolist()))


def _limit(degrees, morphisms, *args):
    """The Limit morphisms(*args) keeps, for a solve at each of degrees;
    the degrees are checked first, so a refused one builds nothing."""
    if min(degrees, default=0) < 0:
        raise ValueError("degree must be nonnegative")
    top = max(degrees, default=0)
    if top > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {top} exceeds cap {MAX_DEGREE}")
    return morphisms(*args)


@dataclass(frozen=True)
class StableFamily:
    """A compatible family of classes over the elementary abelian subgroups:
    its coordinates at each site of fusion_ea_morphisms(F), one site after
    another; components reads them as {site key: CohoElement}, once.  It is
    frozen, as the Limit keeps the families of each degree it solves and
    hands the same ones to every caller."""

    F: object
    degree: int
    coords: tuple

    @property
    def sites(self):
        return fusion_ea_morphisms(self.F)[0]

    @cached_property
    def components(self):
        limit, d, row = fusion_ea_morphisms(self.F), self.degree, self.coords
        bounds = limit.bounds(d)
        return {s.key: CohoElement(s, d, row[i:j])
                for s, i, j in zip(limit[0], bounds, bounds[1:])}

    def is_zero(self):
        return not any(self.coords)


def _stable_series(F, degrees, morphisms):
    limit = _limit(degrees, morphisms, F)
    return [list(limit.families(F, d)) for d in degrees]


def stable_basis(F, d):
    """Basis of the degree-d stable elements of F at the elementary-abelian level."""
    return _stable_series(F, [d], fusion_ea_morphisms)[0]


def stable_bases(F, max_degree):
    """stable_basis(F, d) for d = 0..max_degree, building the sites and
    morphisms once; a list with one list of families per degree."""
    return _stable_series(F, range(max_degree + 1), fusion_ea_morphisms)


def stable_basis_all_morphisms(F, d):
    """Same limit over every fusion morphism; the brute-force cross-check."""
    return _stable_series(F, [d], _all_morphisms)[0]


def poincare_series(F, max_degree):
    """The number of degree-d stable elements for d = 0..max_degree, as
    Limit.count keeps it: the length of a basis already solved, else
    counted on the constraints alone (_dimension), and no family is
    built."""
    degrees = range(max_degree + 1)
    limit = _limit(degrees, fusion_ea_morphisms, F)
    return [limit.count(d) for d in degrees]


def family_product(f1, f2):
    """The cup product of two families over the same fusion system."""
    degree = f1.degree + f2.degree
    if degree > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {degree} exceeds cap {MAX_DEGREE}")
    F = f1.F
    # fusion_equal (F2 != F) raises MismatchedBase on another S or p
    if f2.F is not F and (f2.F.S != F.S or f2.F.p != F.p or f2.F != F):
        raise IncompatibleFamily("families over different fusion systems")
    pairs = zip(f1.components.values(), f2.components.values())
    return StableFamily(F, degree, tuple(c for x, y in pairs
                                         for c in x.mul(y).coords))


def family_power(fam, k):
    """The k-th cup power of fam, for k >= 1."""
    if k < 1:
        raise ValueError(f"power must be at least 1, not {k}")
    degree = fam.degree * k
    if degree > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {degree} exceeds cap {MAX_DEGREE}")
    out = fam
    for _ in range(k - 1):
        out = family_product(out, fam)
    return out


def check_family(fam):
    """Verify that fam's row is of its degree and that along each map
    phi: W -> V of the Limit on fam.F, which has the solutions of every
    morphism, the restriction of the V component is the W component."""
    limit, d, p = fusion_ea_morphisms(fam.F), fam.degree, fam.F.p
    bounds = limit.bounds(d)
    if len(fam.coords) != bounds[-1]:
        raise IncompatibleFamily(f"the row is not of degree {d}")
    row, offsets = np.array(fam.coords, dtype=np.int64), np.array(bounds)
    bad = []
    for _, positions, w, v, images in _restrictions(limit, d, p):
        _, n_w, n_v = images.shape
        got = np.einsum("mwv,mv->mw", images,
                        row[offsets[v, None] + np.arange(n_v)]) % p
        want = row[offsets[w, None] + np.arange(n_w)]
        bad += positions[(got != want).any(axis=1)].tolist()
    if bad:
        phi, sw, _ = (limit[1] + limit[2])[min(bad)]
        raise IncompatibleFamily(
            f"restriction along {phi!r} disagrees at {list(sw.key)}")
    return True


def is_nilpotent(fam):
    """True iff every component dies in F_p[V], i.e. some power is zero."""
    check_family(fam)
    mask = (m for s in fam.sites
            for m in polynomial_mask(s.rank, s.p, fam.degree))
    return not any(compress(fam.coords, mask))


@dataclass
class QuillenLimit:
    """The degree-d limit over the Quillen category of G at p: its
    dimension, as Limit.count keeps it, and its families, coordinate rows
    over sites, read from the Limit (Limit.basis), which solves the degree
    once."""

    group: object
    p: int
    degree: int
    dimension: int
    sites: tuple

    @property
    def families(self):
        return list(quillen_morphisms(self.group, self.p).basis(self.degree))


def quillen_limits(G, p, degrees):
    """The same limit over the Quillen category of a finite group, at each
    of degrees, building the sites and morphisms once; each dimension is
    Limit.count, so a degree already solved or counted costs nothing."""
    limit = _limit(degrees, quillen_morphisms, G, p)
    return [QuillenLimit(G, p, d, limit.count(d), limit[0]) for d in degrees]


def quillen_limit_finite_group(G, p, d):
    """quillen_limits at the one degree d."""
    return quillen_limits(G, p, [d])[0]
