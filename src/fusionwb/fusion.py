"""Fusion systems on a finite p-group as explicit categories of morphisms.

A system is stored over a standalone copy of S (the p-group itself), with one
homset per ordered pair of subgroups.  Morphism sets are kept in full, as
functions on elements, deduplicated and sorted for reproducibility.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import MismatchedBase, NotSylow
from .groups import (
    InjHom,
    Subgroup,
    centralizer,
    conjugation_hom,
    full_subgroup,
    group_from_elements,
    lattice,
    normalizer,
    p_part,
    prime_of,
    quotient_group,
    subgroup_as_group,
)


class FusionSystem:
    """Category of injective homomorphisms between subgroups of S."""

    def __init__(self, S, p, homsets):
        if S.elements != tuple(range(S.parent.order)):
            raise ValueError("S must be the full subgroup of its own p-group")
        inferred = prime_of(S.order)
        if inferred is not None and inferred != p:
            raise ValueError(f"S has order {S.order}, not a power of {p}")
        self.S = S
        self.p = p
        self.group = S.parent
        self.lattice = lattice(S.parent)
        self.subgroups = self.lattice.subgroups
        self.homsets = {}
        for P in self.subgroups:
            for Q in self.subgroups:
                homs = homsets.get((P.elements, Q.elements), ())
                self.homsets[(P.elements, Q.elements)] = tuple(
                    sorted(homs, key=lambda h: h.images))
        self._classes = None
        self._check_category()

    def subgroup(self, elements):
        return self.lattice.by_key[tuple(elements)]

    def hom(self, P, Q):
        return self.homsets[(P.elements, Q.elements)]

    def morphisms(self):
        for key in sorted(self.homsets):
            yield from self.homsets[key]

    def _check_category(self):
        seen = {key: {h.images for h in homs}
                for key, homs in self.homsets.items()}
        for P in self.subgroups:
            for Q in self.subgroups:
                key = (P.elements, Q.elements)
                for h in self.homsets[key]:
                    if h.source != P or h.target != Q:
                        raise ValueError("homset entry under the wrong pair")
                # conjugations from S must all be present
                for g in transporter(self.group, P, Q):
                    c = conjugation_hom(P, Q, g)
                    if c.images not in seen[key]:
                        raise ValueError(
                            f"missing S-conjugation {c!r}")
        for key in sorted(self.homsets):
            for h in self.homsets[key]:
                # isomorphism-onto-image factor and its inverse
                core = h.corestrict()
                img = core.target.elements
                if core.images not in seen[(key[0], img)]:
                    raise ValueError(f"missing corestriction of {h!r}")
                if core.inverse().images not in seen[(img, key[0])]:
                    raise ValueError(f"missing inverse of {h!r}")
                # restrictions to subgroups of the source
                for P2 in self.lattice.below[key[0]]:
                    restricted = h.restrict(P2).images
                    if restricted not in seen[(P2.elements, key[1])]:
                        raise ValueError(f"missing restriction of {h!r}")
        for P in self.subgroups:
            for Q in self.subgroups:
                for h1 in self.homsets[(P.elements, Q.elements)]:
                    for R in self.subgroups:
                        for h2 in self.homsets[(Q.elements, R.elements)]:
                            comp = h2.compose(h1)
                            if comp.images not in seen[(P.elements, R.elements)]:
                                raise ValueError(
                                    f"homsets not closed under composition "
                                    f"at {h2!r} o {h1!r}")

    def conjugacy_classes(self):
        """Partition of the subgroups under F-isomorphism.

        The class of P is the set of images of the morphisms P -> S; classes
        and their members come in lattice order.
        """
        if self._classes is None:
            classes = {}
            for P in self.subgroups:
                keys = sorted({h.image_elements()
                               for h in self.hom(P, self.S)})
                classes.setdefault(keys[0], tuple(map(self.subgroup, keys)))
            self._classes = tuple(classes.values())
        return self._classes

    def class_of(self, P):
        for cls in self.conjugacy_classes():
            if P in cls:
                return cls
        raise ValueError("not a subgroup of S")

    def aut_set(self, P):
        return self.homsets[(P.elements, P.elements)]

    def __eq__(self, other):
        if not isinstance(other, FusionSystem):
            return NotImplemented
        return fusion_equal(self, other)

    __hash__ = None

    def __repr__(self):
        return f"FusionSystem(S={self.group.name}, p={self.p})"


def transporter(G, P, Q):
    """N_G(P,Q) = elements g with g P g^-1 <= Q."""
    qset = Q.as_set()
    return [g for g in G.elements()
            if all(G.conj(g, x) in qset for x in P.elements)]


def aut_s_images(F, P):
    """Image tuples of the S-conjugation automorphisms of P."""
    out = set()
    for g in normalizer(F.group, P).elements:
        out.add(tuple(F.group.conj(g, x) for x in P.elements))
    return out


def conjugation_homs(G, emb, subs):
    """Every c_g : P -> Q with g in G, for P and Q in subs.

    subs are subgroups of one group that the dict emb embeds into G, and
    c_g(x) = emb^-1(g emb(x) g^-1).  The maps come P first, then Q (both in
    subs order), then in the order of the first g that gives each.
    """
    back = {y: x for x, y in emb.items()}
    found = {P.elements: {} for P in subs}     # images -> their set
    for g in G.elements():
        c = {x: back.get(G.conj(g, y)) for x, y in emb.items()}
        for P in subs:
            images = tuple(c[x] for x in P.elements)
            if None not in images and images not in found[P.elements]:
                found[P.elements][images] = frozenset(images)
    return [InjHom(P, Q, images, _trusted=True)
            for P in subs for Q in subs
            for images, image_set in found[P.elements].items()
            if image_set <= Q.as_set()]


def fusion_from_group(S, G, p=None):
    """The transporter fusion system F_S(G) on a Sylow p-subgroup S <= G."""
    if p is None:
        p = prime_of(S.order)
        if p is None:
            raise ValueError("S is trivial; pass the prime explicitly")
    if S.order != p_part(G.order, p):
        raise NotSylow(
            f"|S| = {S.order} is not the {p}-part of |G| = {G.order}")
    Sgroup = subgroup_as_group(S, name=f"Syl_{p}({G.name})")
    homsets = {}
    for h in conjugation_homs(G, dict(enumerate(S.elements)),
                              lattice(Sgroup).subgroups):
        homsets.setdefault((h.source.elements, h.target.elements),
                           []).append(h)
    return FusionSystem(full_subgroup(Sgroup), p, homsets)


def generate_fusion(S, p, generators):
    """Least fusion system on S containing the given morphisms.

    Seeds all S-conjugations, then closes under composition, restriction,
    corestriction to the image, and inverses of isomorphisms.
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

    packed = {key: list(d.values()) for key, d in homs.items()}
    return FusionSystem(full_subgroup(G), p, packed)


@dataclass(frozen=True)
class SylowFailure:
    P: Subgroup
    aut_s_order: int
    aut_f_order: int

    def describe(self):
        return (f"sylow axiom fails at P={list(self.P.elements)}: "
                f"|Aut_S|={self.aut_s_order}, |Aut_F|={self.aut_f_order}")


@dataclass(frozen=True)
class CentralizedFailure:
    P: Subgroup

    def describe(self):
        return (f"fully normalized P={list(self.P.elements)} "
                f"is not fully centralized")


@dataclass(frozen=True)
class ExtensionFailure:
    phi: InjHom
    n_phi: Subgroup

    def describe(self):
        return (f"no extension of {list(self.phi.source.elements)}->"
                f"{list(self.phi.images)} to N_phi={list(self.n_phi.elements)}")


@dataclass
class SaturationReport:
    saturated: bool
    witnesses: list = field(default_factory=list)

    def render(self):
        lines = ["saturated" if self.saturated else "NOT saturated"]
        for w in self.witnesses:
            lines.append("  " + w.describe())
        return "\n".join(lines)


def is_saturated(F):
    """Check the Sylow and extension axioms; failures become witnesses."""
    G = F.group
    witnesses = []
    norms = {P.elements: normalizer(G, P).order for P in F.subgroups}
    cents = {P.elements: centralizer(G, P).order for P in F.subgroups}
    for cls in F.conjugacy_classes():
        max_n = max(norms[P.elements] for P in cls)
        max_c = max(cents[P.elements] for P in cls)
        for P in cls:
            if norms[P.elements] != max_n:
                continue
            if cents[P.elements] != max_c:
                witnesses.append(CentralizedFailure(P))
            aut_s = len(aut_s_images(F, P))
            aut_f = len(F.aut_set(P))
            if aut_s != p_part(aut_f, F.p):
                witnesses.append(SylowFailure(P, aut_s, aut_f))
    # extension axiom
    Skey = F.S.elements
    for P in F.subgroups:
        for phi in F.homsets[(P.elements, Skey)]:
            img = phi.image_subgroup()
            if cents[img.elements] != max(
                    cents[Q.elements] for Q in F.class_of(img)):
                continue
            n_phi = _n_phi(F, phi)
            extended = any(
                all(ext.image_of(x) == phi.image_of(x) for x in P.elements)
                for ext in F.homsets[(n_phi.elements, Skey)])
            if not extended:
                witnesses.append(ExtensionFailure(phi, n_phi))
    return SaturationReport(not witnesses, witnesses)


def _n_phi(F, phi):
    """N_phi = {g in N_S(P) : phi c_g phi^-1 is an S-conjugation of phi(P)}."""
    G = F.group
    P = phi.source
    img = phi.image_subgroup()
    aut_s_img = aut_s_images(F, img)
    members = []
    back = {phi.image_of(x): x for x in P.elements}
    for g in normalizer(G, P).elements:
        conj = tuple(phi.image_of(G.conj(g, back[y])) for y in img.elements)
        if conj in aut_s_img:
            members.append(g)
    return Subgroup(G, members)


def conjugacy_classes(F):
    return F.conjugacy_classes()


def fully_normalized(F, P):
    n = normalizer(F.group, P).order
    return all(normalizer(F.group, Q).order <= n for Q in F.class_of(P))


def fully_centralized(F, P):
    c = centralizer(F.group, P).order
    return all(centralizer(F.group, Q).order <= c for Q in F.class_of(P))


def centric_subgroups(F):
    """P with C_S(P') <= P' for every F-conjugate P'."""
    out = []
    for P in F.subgroups:
        if all(P2.contains_subgroup(centralizer(F.group, P2))
               for P2 in F.class_of(P)):
            out.append(P)
    return out


def aut_group(F, P):
    """Aut_F(P) as an explicit Group plus its elements as image tuples."""
    images = [h.images for h in F.aut_set(P)]
    pos = {P.elements[i]: i for i in range(P.order)}

    def compose(a, b):
        # apply b, then a
        return tuple(a[pos[b[i]]] for i in range(P.order))

    return group_from_elements(images, compose, P.elements,
                               name=f"Aut_F({list(P.elements)})")


def out_f(F, P):
    """Out_F(P) = Aut_F(P)/Inn(P) as an explicit quotient Group."""
    A, ordered = aut_group(F, P)
    pos = {img: i for i, img in enumerate(ordered)}
    G = F.group
    inner = {tuple(G.conj(x, y) for y in P.elements) for x in P.elements}
    inn = Subgroup(A, sorted(pos[img] for img in inner))
    Q, _ = quotient_group(A, inn)
    Q.name = f"Out_F({list(P.elements)})"
    return Q


def orbit_homset(F, P, Q):
    """Orbits of Hom_F(P,Q) under postcomposition with Inn(Q)."""
    G = F.group
    remaining = {h.images: h for h in F.hom(P, Q)}
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = {}
        stack = [remaining[start]]
        while stack:
            h = stack.pop()
            if h.images in orbit:
                continue
            orbit[h.images] = h
            for q in Q.elements:
                moved = tuple(G.conj(q, y) for y in h.images)
                if moved not in orbit:
                    stack.append(InjHom(P, Q, moved))
        for images in orbit:
            remaining.pop(images, None)
        orbits.append([orbit[k] for k in sorted(orbit)])
    return orbits


def strongly_closed(F, T):
    """No F-morphism carries a subgroup of T outside T."""
    tset = T.as_set()
    for P in F.lattice.below[T.elements] + [T]:
        for Q in F.subgroups:
            for h in F.hom(P, Q):
                if not set(h.images) <= tset:
                    return False
    return True


def _require_same_base(F1, F2):
    if F1.S != F2.S or F1.p != F2.p:
        raise MismatchedBase("fusion systems live on different bases")


def is_subfusion(F1, F2):
    """Every morphism of F1 is a morphism of F2."""
    _require_same_base(F1, F2)
    for key in F1.homsets:
        have = {h.images for h in F2.homsets[key]}
        if any(h.images not in have for h in F1.homsets[key]):
            return False
    return True


def fusion_equal(F1, F2):
    _require_same_base(F1, F2)
    for key in F1.homsets:
        if ([h.images for h in F1.homsets[key]]
                != [h.images for h in F2.homsets[key]]):
            return False
    return True
