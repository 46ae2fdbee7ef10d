"""Constructors for the small groups used throughout the test corpus."""

from __future__ import annotations

from .groups import Group, build_group_from_permutations, group_from_elements


def cyclic(n, name=None):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return Group(table, name=name or f"C{n}")


def direct_product(G, H, name=None):
    nh = H.order
    table = []
    for a in range(G.order * nh):
        a1, a2 = divmod(a, nh)
        row = []
        for b in range(G.order * nh):
            b1, b2 = divmod(b, nh)
            row.append(G.table[a1][b1] * nh + H.table[a2][b2])
        table.append(row)
    return Group(table, name=name or f"{G.name}x{H.name}")


def elementary(p, rank, name=None):
    G = cyclic(p)
    for _ in range(rank - 1):
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


_QUATERNION_UNITS = ("1", "i", "j", "k", "-1", "-i", "-j", "-k")


def _quat_mul(a, b):
    sa, ua = (a[0] == "-", a.lstrip("-"))
    sb, ub = (b[0] == "-", b.lstrip("-"))
    basic = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }
    r = basic[(ua, ub)]
    if sa != sb:
        r = r[1:] if r.startswith("-") else "-" + r
    return r


def quaternion8(name="Q8"):
    units = _QUATERNION_UNITS
    pos = {u: idx for idx, u in enumerate(units)}
    table = [[pos[_quat_mul(a, b)] for b in units] for a in units]
    return Group(table, name=name)


def sl23(name="SL(2,3)"):
    """SL_2(F_3) as 2x2 matrices of determinant 1."""
    mats = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 1:
                        mats.append((a, b, c, d))

    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)

    return group_from_elements(mats, mul, (1, 0, 0, 1), name=name)[0]


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
