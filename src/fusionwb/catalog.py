"""Constructors for the small groups used throughout the test corpus."""

from __future__ import annotations

import itertools

from .groups import build_group_from_permutations, group_from_elements


def cyclic(n, name=None):
    return group_from_elements(range(n), lambda a, b: (a + b) % n,
                               name=name or f"C{n}")


def direct_product(G, H, name=None):
    """G x H on the pairs (g, h), first factor major."""
    pairs = [(a, b) for a in G.elements() for b in H.elements()]
    return group_from_elements(
        pairs, lambda x, y: (G.table[x[0]][y[0]], H.table[x[1]][y[1]]),
        name=name or f"{G.name}x{H.name}")


def elementary(p, rank, name=None):
    if rank < 0:
        raise ValueError(f"rank {rank} is negative")
    G = cyclic(1)
    for _ in range(rank):
        G = direct_product(G, cyclic(p))
    G.name = name or (f"C{p}^{rank}" if rank != 2 or p != 2 else "V4")
    return G


def klein_four():
    return elementary(2, 2, name="V4")


def symmetric(n, name=None):
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return build_group_from_permutations(gens, name=name or f"S{n}")


def alternating4(name="A4"):
    g1 = (1, 2, 0, 3)   # (1 2 3)
    g2 = (0, 2, 3, 1)   # (2 3 4)
    return build_group_from_permutations([g1, g2], name=name)


def dihedral8(name="D8"):
    r = (1, 2, 3, 0)    # (1 2 3 4)
    s = (2, 1, 0, 3)    # (1 3)
    return build_group_from_permutations([r, s], name=name)


def quaternion8(name="Q8"):
    """Q8 on the units (sign, u), u in 1, i, j, k: 1, i, j, k, -1, ..., -k."""
    def mul(a, b):
        (sa, u), (sb, v) = a, b
        if "1" in (u, v):
            return sa * sb, v if u == "1" else u
        if u == v:
            return -sa * sb, "1"
        w, = set("ijk") - {u, v}
        return (sa * sb if u + v in "ijki" else -sa * sb), w

    units = [(s, u) for s in (1, -1) for u in "1ijk"]
    return group_from_elements(units, mul, name=name)


def sl23(name="SL(2,3)"):
    """SL_2(F_3) as 2x2 matrices (a, b, c, d) of determinant 1, the
    identity first and the rest in lexicographic order."""
    ident = (1, 0, 0, 1)
    mats = [ident] + [m for m in itertools.product(range(3), repeat=4)
                      if (m[0] * m[3] - m[1] * m[2]) % 3 == 1 and m != ident]

    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)

    return group_from_elements(mats, mul, name=name)


BUILDERS = {
    "C2": lambda: cyclic(2),
    "C3": lambda: cyclic(3),
    "C4": lambda: cyclic(4),
    "C6": lambda: cyclic(6),
    "C9": lambda: cyclic(9),
    "C15": lambda: cyclic(15),
    "V4": klein_four,
    "C3xC3": lambda: elementary(3, 2, name="C3xC3"),
    "D8": dihedral8,
    "Q8": quaternion8,
    "S3": lambda: symmetric(3),
    "S4": lambda: symmetric(4),
    "A4": alternating4,
    "SL(2,3)": sl23,
}


def named_group(name):
    return BUILDERS[name]()
