"""Fusion systems on a finite p-group as explicit categories of morphisms.

A system lives on a standalone copy of S (the p-group itself) and stores
Hom_F(P, S) for each subgroup P as its sorted image tuples, images[k] the
image of P.elements[k]; Hom_F(P, Q) is the part of it with image in Q.  An
InjHom is built only where the API hands a map out.  Every system is built
by one closure, in FusionSystem.__init__, from generators: c_s and c_{s^-1}
for s generating S, and each given map with its inverse onto its image.  Each
morphism is a composite of restrictions of generators, found by a search
from each subgroup's inclusion, so every system is a category by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import MismatchedBase, NotACategory, NotSylow
from .groups import (
    InjHom,
    Subgroup,
    centralizer,
    conjugates_into,
    conjugation_array,
    conjugation_images,
    conjugations,
    full_subgroup,
    group_from_elements,
    inner_generators,
    is_prime,
    lattice,
    normalizer,
    p_part,
    prime_of,
    quotient_group,
    subgroup_as_group,
)


class FusionSystem:
    """The least category of injective homomorphisms between subgroups of S
    that holds the S-conjugations and the given maps.

    Its morphisms are the composites of restrictions of the generators:
    c_s and c_{s^-1} on S for s in generating_sequence(S), and each given
    map and its inverse onto its image.  Those composites hold the
    inclusions and are closed under restriction, composition and inverses,
    so Hom_F(P, S) is what a search from P's inclusion reaches, one step
    applying a generator whose source holds the current image.  A map given
    into some Q < S is stored as a map into S.
    """

    def __init__(self, S, p, maps):
        G = S.parent
        if S.elements != tuple(range(G.order)):
            raise ValueError("S must be the full subgroup of its own p-group")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        if prime_of(S.order) not in (None, p):
            raise ValueError(f"S has order {S.order}, not a power of {p}")
        self.S = S
        self.p = p
        self.group = G
        self.lattice = lattice(G)
        self.subgroups = self.lattice.subgroups
        gens = {S.elements: set(inner_generators(G))}  # source -> images
        for phi in maps:
            if phi.source.parent != G or phi.target.parent != G:
                raise ValueError("generator does not live on S")
            img, back = zip(*sorted(zip(phi.images, phi.source.elements)))
            gens.setdefault(phi.source.elements, set()).add(phi.images)
            gens.setdefault(img, set()).add(back)
        # steps[key]: a generator's map per distinct action on the subgroup
        # key other than the identity.  Larger sources go first, so a
        # generator that restricts another one finds its action there already
        steps = {P.elements: {} for P in self.subgroups}
        for key in sorted(gens, key=len, reverse=True):
            for images in gens[key]:
                if images in steps[key]:
                    continue
                act = dict(zip(key, images)).__getitem__
                for P in self.lattice.below[key] + [self.lattice.by_key[key]]:
                    on_p = tuple(map(act, P.elements))
                    if on_p != P.elements:
                        steps[P.elements].setdefault(on_p, act)
        self.homsets = {}
        for P in self.subgroups:
            seen = {P.elements}
            todo = [P.elements]
            for images in todo:
                for act in steps[tuple(sorted(images))].values():
                    new = tuple(map(act, images))
                    if new not in seen:
                        seen.add(new)
                        todo.append(new)
            self.homsets[P.elements] = tuple(sorted(seen))
        self._classes = None
        self._limit = None  # the Limit of stable.fusion_ea_morphisms

    def subgroup(self, elements):
        return self.lattice.by_key[tuple(elements)]

    def hom(self, P, Q):
        """Hom_F(P, Q): the maps in Hom_F(P, S) with image in Q, into Q."""
        return tuple(InjHom(P, Q, images, _trusted=True) for images in
                     filter(Q.as_set().issuperset, self.homsets[P.elements]))

    def morphisms(self):
        for key in sorted(self.homsets):
            yield from self.hom(self.subgroup(key), self.S)

    def conjugacy_classes(self):
        """Partition of the subgroups under F-isomorphism.

        The class of P is the set of images of the morphisms P -> S; classes
        and their members come in lattice order.
        """
        if self._classes is None:
            classes = {}
            for P in self.subgroups:
                keys = sorted({tuple(sorted(images))
                               for images in self.homsets[P.elements]})
                classes.setdefault(keys[0], tuple(map(self.subgroup, keys)))
            self._classes = tuple(classes.values())
        return self._classes

    def class_of(self, P):
        for cls in self.conjugacy_classes():
            if P in cls:
                return cls
        raise ValueError("not a subgroup of S")

    def aut_set(self, P):
        return self.hom(P, P)

    def __eq__(self, other):
        if not isinstance(other, FusionSystem):
            return NotImplemented
        return fusion_equal(self, other)

    __hash__ = None

    def __repr__(self):
        return f"FusionSystem(S={self.group.name}, p={self.p})"


def transporter(G, P, Q):
    """N_G(P,Q) = elements g with g P g^-1 <= Q."""
    return np.flatnonzero(conjugates_into(G, P, Q)).tolist()


def conjugation_homs(G, emb, subs):
    """Every c_g : P -> Q with g in G, for P and Q in subs: P first, then Q
    (both in subs order), then in conjugation_images order."""
    found = conjugation_images(G, subs, emb)
    return [InjHom(P, Q, images, _trusted=True)
            for P in subs for Q in subs for images in found[P.elements]
            if Q.as_set().issuperset(images)]


def fusion_from_group(S, G, p=None):
    """The transporter fusion system F_S(G) on a Sylow p-subgroup S <= G.

    The closure gets one generator per double coset SgS: c_g on the x in S
    with g x g^-1 in S, as each transporter map is c_s o c_g o c_t with s, t
    in S.  One pass over G lists the transporter maps: they must equal the
    closure, and the ones by g in S are S's own conjugation table.
    """
    if p is None:
        p = prime_of(S.order)
        if p is None:
            raise ValueError("S is trivial; pass the prime explicitly")
    if S.order != p_part(G.order, p):
        raise NotSylow(
            f"|S| = {S.order} is not the {p}-part of |G| = {G.order}")
    Sgroup = subgroup_as_group(S, name=f"Syl_{p}({G.name})")
    top = full_subgroup(Sgroup)
    subs = lattice(Sgroup).subgroups
    emb = dict(enumerate(S.elements))
    back = {g: k for k, g in emb.items()}
    found = conjugation_images(G, subs, emb)
    # S's own conjugation table: the keys some g in S gives, those g as
    # elements of Sgroup, keys in order of their first g as in conjugations
    inner = {key: [(images, [back[g] for g in gs if g in back])
                   for images, gs in d.items()] for key, d in found.items()}
    Sgroup._conjugations = {
        key: dict(sorted((kv for kv in kvs if kv[1]), key=lambda kv: kv[1][0]))
        for key, kvs in inner.items()}
    t, conj, elems = G.table, conjugation_array(G), np.array(S.elements)
    covered = np.zeros(G.order, dtype=bool)
    gens = []
    for g in G.elements():
        if covered[g]:
            continue
        covered[t[t[elems, g][:, None], elems]] = True      # S g S
        row = conj[g, elems].tolist()
        c_g = {k: back[y] for k, y in enumerate(row) if y in back}
        gens.append(InjHom(Subgroup(Sgroup, c_g, _trusted=True), top,
                           list(c_g.values()), _trusted=True))
    F = FusionSystem(top, p, gens)
    # the transporter maps are closed by theorem, so a difference is a bug
    for P in subs:
        got = set(F.homsets[P.elements])
        for images in sorted(got ^ found[P.elements].keys()):
            h = InjHom(P, top, images, _trusted=True)
            raise NotACategory(
                f"the closure adds {h!r} to the transporter maps"
                if images in got else
                f"the closure misses the transporter map {h!r}")
    return F


def generate_fusion(S, p, generators):
    """Least fusion system on S containing the given morphisms."""
    return FusionSystem(S, p, generators)


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
    # the keys of S's conjugation table inside P are Aut_S(P), their g's
    # make up N_S(P), and the g's under the identity C_S(P)
    conj = conjugations(F.group)
    autos = {P.elements: {images: gs for images, gs in conj[P.elements].items()
                          if P.as_set().issuperset(images)}
             for P in F.subgroups}
    norms = {key: sum(map(len, a.values())) for key, a in autos.items()}
    cents = {key: len(a[key]) for key, a in autos.items()}
    witnesses = []
    max_c = {}
    for cls in F.conjugacy_classes():
        max_n = max(norms[P.elements] for P in cls)
        top_c = max(cents[P.elements] for P in cls)
        for P in cls:
            max_c[P.elements] = top_c
            if norms[P.elements] != max_n:
                continue
            if cents[P.elements] != top_c:
                witnesses.append(CentralizedFailure(P))
            n_s = len(autos[P.elements])
            n_f = sum(map(P.as_set().issuperset, F.homsets[P.elements]))
            if n_s != p_part(n_f, F.p):
                witnesses.append(SylowFailure(P, n_s, n_f))
    # extension axiom: phi onto a fully centralized image extends to N_phi,
    # the g in N_S(P) with phi c_g phi^-1 in Aut_S(phi(P)), a test on c_g|P
    # alone; phi extends iff it restricts some map N_phi -> S to P.  The
    # trivial subgroup, first, is skipped: its identity extends to that of S
    for P in F.subgroups[1:]:
        at = {x: k for k, x in enumerate(P.elements)}   # P.elements[k] -> k
        extends = {}   # N_phi -> images on P of the maps N_phi -> S
        for images in F.homsets[P.elements]:
            img = tuple(sorted(images))
            if cents[img] != max_c[img]:
                continue
            on_img = sorted(range(P.order), key=images.__getitem__)
            n_phi = tuple(sorted(
                g for alpha, gs in autos[P.elements].items()
                if tuple(images[at[alpha[k]]] for k in on_img) in autos[img]
                for g in gs))
            if n_phi not in extends:
                get = itemgetter(*map(n_phi.index, P.elements))
                extends[n_phi] = set(map(get, F.homsets[n_phi]))
            if images not in extends[n_phi]:
                witnesses.append(ExtensionFailure(
                    InjHom(P, F.S, images, _trusted=True), F.subgroup(n_phi)))
    return SaturationReport(not witnesses, witnesses)


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
    """Aut_F(P) as an explicit Group plus its elements as image tuples,
    sorted, so the identity P.elements comes first."""
    images = list(filter(P.as_set().issuperset, F.homsets[P.elements]))
    pos = {P.elements[i]: i for i in range(P.order)}

    def compose(a, b):
        # apply b, then a
        return tuple(a[pos[b[i]]] for i in range(P.order))

    return group_from_elements(images, compose,
                               name=f"Aut_F({list(P.elements)})"), images


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


def strongly_closed(F, T):
    """No F-morphism carries a subgroup of T outside T."""
    tset = T.as_set()
    return all(tset.issuperset(images)
               for P in F.lattice.below[T.elements] + [T]
               for images in F.homsets[P.elements])


def _require_same_base(F1, F2):
    if F1.S != F2.S or F1.p != F2.p:
        raise MismatchedBase("fusion systems live on different bases")


def is_subfusion(F1, F2):
    """Every morphism of F1 is a morphism of F2."""
    _require_same_base(F1, F2)
    return all(set(homs).issubset(F2.homsets[key])
               for key, homs in F1.homsets.items())


def fusion_equal(F1, F2):
    _require_same_base(F1, F2)
    return F1.homsets == F2.homsets
