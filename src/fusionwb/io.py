"""Text formats: group files, fusion generator files, presentations, families.

Serializers emit a canonical form; parsing a serialized file and serializing
again reproduces it byte for byte, which the corpus check relies on.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .cohomology import CohoElement, monomial_degree
from .errors import DegreeBoundExceeded, WorkbenchError
from .fusion import FusionSystem, fusion_from_group, generate_fusion
from .groups import (
    Group,
    InjHom,
    Subgroup,
    _validate_table,
    build_group_from_permutations,
    format_elems,
    full_subgroup,
    normalizer,
    prime_of,
    sylow_p,
)
from .models import (
    AlperinDatum,
    AlperinEntry,
    amalgam_presentation,
    hnn_presentation,
)
from .stable import MAX_DEGREE, StableFamily, fusion_ea_morphisms


class ParseError(WorkbenchError):
    """A workbench file does not match its grammar."""


def parse_elems(text):
    if not re.fullmatch(r"\s*\[\s*(\d+\s*(,\s*\d+\s*)*)?\]\s*", text):
        raise ParseError(f"expected [..] element list, got {text.strip()!r}")
    return tuple(int(tok) for tok in re.findall(r"\d+", text))


def _parse_source(src):
    """A map's source list, which must be strictly ascending: its images
    pair with it entry by entry, and the serializer writes it sorted."""
    elems = parse_elems(src)
    if any(a >= b for a, b in zip(elems, elems[1:])):
        raise ValueError(f"source list {src} is not strictly ascending")
    return elems


def _parse_map(src, tgt, images):
    """The map src -> tgt, src strictly ascending as its images pair."""
    return InjHom(Subgroup(tgt.parent, _parse_source(src)), tgt,
                  parse_elems(images))


# ---------------------------------------------------------------------------
# group tables and files


def _read_table(lines, order, name="G"):
    """The Group whose table rows are the given lines.  Every table read
    from a file comes through here and is checked once; no library code
    checks a table again."""
    for ln in lines:
        if not re.fullmatch(r"[\d\s]*", ln):
            raise ParseError(f"bad table row: {ln!r}")
    rows = [tuple(int(x) for x in ln.split()) for ln in lines]
    if len(rows) != order:
        raise ParseError(f"expected {order} table rows, got {len(rows)}")
    return Group(_validate_table(rows), name=name)


def serialize_group(G):
    lines = [f"group {G.name} order {G.order}", "mode table"]
    for row in G.table.tolist():
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_group(text):
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ParseError("group file needs a header and a mode line")
    m = re.fullmatch(r"group (\S+) order (\d+)", lines[0])
    if not m:
        raise ParseError(f"bad group header: {lines[0]!r}")
    name, order = m.group(1), int(m.group(2))
    mode = lines[1].strip()
    if mode == "mode table":
        return _read_table(lines[2:], order, name=name)
    if mode == "mode perm":
        cycles = [_parse_cycles(ln) for ln in lines[2:]]
        if not cycles:
            raise ParseError("perm mode needs at least one generator line")
        degree = max((max((max(c) for c in cyc), default=1)
                      for cyc in cycles), default=1)
        gens = []
        for cyc in cycles:
            perm = list(range(degree))
            for c in cyc:
                for k in range(len(c)):
                    perm[c[k] - 1] = c[(k + 1) % len(c)] - 1
            gens.append(tuple(perm))
        G = build_group_from_permutations(gens, name=name)
        if G.order != order:
            raise ParseError(
                f"declared order {order} but generators close to {G.order}")
        return G
    raise ParseError(f"unknown mode line: {mode!r}")


def _parse_cycles(line):
    line = line.strip()
    if line == "()":
        return []
    if not re.fullmatch(r"(\(\d+( \d+)*\))+", line):
        raise ParseError(f"bad cycle notation: {line!r}")
    cycles = [[int(x) for x in part.split()]
              for part in re.findall(r"\(([^)]*)\)", line)]
    points = [x for cyc in cycles for x in cyc]
    if 0 in points or len(set(points)) != len(points):
        raise ParseError(f"cycles must move distinct points from 1 up: {line!r}")
    return cycles


def load_group(path):
    return parse_group(Path(path).read_text())


# ---------------------------------------------------------------------------
# fusion generator files


@dataclass
class FusionSpec:
    p: int
    s_ref: str
    group: Group
    phis: list

    def fusion(self):
        return generate_fusion(full_subgroup(self.group), self.p, self.phis)


def serialize_fusion_spec(spec):
    lines = [f"fusion p={spec.p} S={spec.s_ref}"]
    for phi in spec.phis:
        lines.append(
            f"phi: {format_elems(phi.source.elements)} -> "
            f"{format_elems(phi.target.elements)} ; "
            f"images={format_elems(phi.images)}")
    return "\n".join(lines) + "\n"


def parse_fusion_spec(text, base_dir=None):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("fusion file is empty")
    m = re.fullmatch(r"fusion p=(\d+) S=(\S+)", lines[0])
    if not m:
        raise ParseError(f"bad fusion header: {lines[0]!r}")
    p, s_ref = int(m.group(1)), m.group(2)
    group = load_group(Path(base_dir or ".") / s_ref)
    S = full_subgroup(group)
    phis = []
    for ln in lines[1:]:
        m = re.fullmatch(
            r"phi: (\[[\d,]*\]) -> (\[[\d,]*\]) ; images=(\[[\d,]*\])", ln)
        if not m:
            raise ParseError(f"bad phi line: {ln!r}")
        try:
            tgt = Subgroup(group, parse_elems(m.group(2)))
            phis.append(_parse_map(m.group(1), tgt, m.group(3)))
        except ValueError as exc:
            raise ParseError(f"invalid morphism {ln!r}: {exc}") from exc
    return FusionSpec(p, s_ref, group, phis)


def load_fusion_spec(path):
    path = Path(path)
    return parse_fusion_spec(path.read_text(), base_dir=path.parent)


# ---------------------------------------------------------------------------
# Alperin datum files


@dataclass
class DatumSpec:
    p: int
    fusion_ref: str
    fusion: FusionSystem
    datum: AlperinDatum


def parse_datum(text, base_dir=None):
    base = Path(base_dir or ".")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("datum file is empty")
    m = re.fullmatch(r"alperin p=(\d+) fusion=(\S+)", lines[0])
    if not m:
        raise ParseError(f"bad datum header: {lines[0]!r}")
    p, ref = int(m.group(1)), m.group(2)
    F = _fusion_from_ref(ref, p, base)
    Sgroup = F.group
    entries = []
    for ln in lines[1:]:
        m = re.fullmatch(
            r"entry P=(\[[\d,]*\]) L=(\S+) iota=(\[[\d,]*\])", ln)
        if not m:
            raise ParseError(f"bad entry line: {ln!r}")
        try:
            P = Subgroup(Sgroup, parse_elems(m.group(1)))
            lref = m.group(2)
            L = Sgroup if lref == "S" else load_group(base / lref)
            N = normalizer(Sgroup, P)
            iota = InjHom(N, full_subgroup(L), parse_elems(m.group(3)))
        except ValueError as exc:
            raise ParseError(f"invalid entry {ln!r}: {exc}") from exc
        entries.append(AlperinEntry(P, L, iota))
    try:
        return DatumSpec(p, ref, F, AlperinDatum(F, entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_datum(path):
    path = Path(path)
    return parse_datum(path.read_text(), base_dir=path.parent)


def _fusion_from_ref(ref, p, base):
    kind, _, target = ref.partition(":")
    if kind == "group":
        G = load_group(base / target)
        return fusion_from_group(sylow_p(G, p), G, p=p)
    if kind == "file":
        spec = load_fusion_spec(base / target)
        if spec.p != p:
            raise ParseError("fusion file prime disagrees with datum header")
        return spec.fusion()
    raise ParseError(f"unknown fusion reference {ref!r}")


# ---------------------------------------------------------------------------
# presentation files


_TRIVIAL_S = "sgroup order 1: a trivial S does not name its prime"


def serialize_presentation(pres):
    if pres.s_group.order == 1:
        raise ValueError(_TRIVIAL_S)
    lines = [f"presentation kind={pres.kind}",
             f"sgroup order {pres.s_group.order}"]
    for row in pres.s_group.table.tolist():
        lines.append(" ".join(str(x) for x in row))
    if pres.kind == "hnn":
        for _, _, phi, _, gid in pres.graph_edges:
            src = sorted(phi)
            lines.append(f"stable {pres.generators[gid]} "
                         f"src={format_elems(src)} "
                         f"images={format_elems(phi[x] for x in src)}")
    else:
        lines.append(f"sembed {format_elems(pres.s_embed)}")
        for fi, L in enumerate(pres.vertices, start=1):
            lines.append(f"factor {fi} order {L.order}")
            for row in L.table.tolist():
                lines.append(" ".join(str(x) for x in row))
        for inner, _, _, back, _ in pres.graph_edges:
            left = sorted(back)
            lines.append(f"attach factor={inner + 1} "
                         f"left={format_elems(left)} "
                         f"right={format_elems(back[x] for x in left)}")
    for g in pres.generators:
        lines.append(f"gen {g}")
    for rel in pres.relators:
        lines.append(f"rel {rel.display()}".rstrip())
    return "\n".join(lines) + "\n"


def parse_presentation(text):
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]

    def line(idx):
        if idx >= len(lines):
            raise ParseError("presentation ends early")
        return lines[idx]

    m = re.fullmatch(r"presentation kind=(hnn|amalgam)", line(0))
    if not m:
        raise ParseError(f"bad presentation header: {lines[0]!r}")
    kind = m.group(1)

    def read_table(idx, header_re):
        m = re.fullmatch(header_re, line(idx))
        if not m:
            raise ParseError(f"expected table header, got {lines[idx]!r}")
        order = int(m.group(len(m.groups())))
        line(idx + order)             # the table's last row
        return (m, _read_table(lines[idx + 1:idx + 1 + order], order),
                idx + 1 + order)

    _, sgroup, idx = read_table(1, r"sgroup order (\d+)")
    p = prime_of(sgroup.order)
    if p is None:
        raise ParseError(_TRIVIAL_S)
    if kind == "hnn":
        S = full_subgroup(sgroup)
        phis = []
        while idx < len(lines) and lines[idx].startswith("stable "):
            # each stable line names the generator it creates
            m = re.fullmatch(rf"stable t{len(phis) + 1} src=(\[[\d,]*\]) "
                             r"images=(\[[\d,]*\])", lines[idx])
            if not m:
                raise ParseError(f"bad stable line: {lines[idx]!r}")
            try:
                phis.append(_parse_map(m.group(1), S, m.group(2)))
            except ValueError as exc:
                raise ParseError(f"invalid stable line {lines[idx]!r}: "
                                 f"{exc}") from exc
            idx += 1
        pres = hnn_presentation(S, p, phis)
    else:
        m = re.fullmatch(r"sembed (\[[\d,]*\])", line(idx))
        if not m:
            raise ParseError(f"expected sembed line, got {lines[idx]!r}")
        s_embed = parse_elems(m.group(1))
        idx += 1
        factors = []
        while idx < len(lines) and lines[idx].startswith("factor "):
            m, L, idx = read_table(idx, r"factor (\d+) order (\d+)")
            factors.append(L)
        if not factors:
            raise ParseError("an amalgam needs a first factor")
        _check_map(full_subgroup(sgroup), factors[0], s_embed, "sembed")
        edges = {}
        while idx < len(lines) and lines[idx].startswith("attach "):
            m = re.fullmatch(
                r"attach factor=(\d+) left=(\[[\d,]*\]) right=(\[[\d,]*\])",
                lines[idx])
            if not m:
                raise ParseError(f"bad attach line: {lines[idx]!r}")
            fi = int(m.group(1))
            if not 2 <= fi <= len(factors) or fi in edges:
                raise ParseError(f"attach factor={fi}: no unattached factor "
                                 f"{fi} among 2..{len(factors)}")
            try:
                left = _parse_source(m.group(2))
            except ValueError as exc:
                raise ParseError(f"invalid attach line {lines[idx]!r}: "
                                 f"{exc}") from exc
            right = parse_elems(m.group(3))
            edges[fi] = dict(zip(left, right))
            if not len(left) == len(right) == len(edges[fi]):
                raise ParseError(f"attach factor={fi}: left and right must "
                                 f"list the same number of distinct elements")
            try:
                H = Subgroup(factors[0], left)
            except ValueError as exc:
                raise ParseError(f"attach factor={fi}: left is not a subgroup "
                                 f"of factor 1: {exc}") from exc
            if not set(left) <= set(s_embed):
                raise ParseError(f"attach factor={fi}: left is not in sembed")
            _check_map(H, factors[fi - 1], [edges[fi][x] for x in H.elements],
                       f"attach factor={fi}")
            idx += 1
        if len(edges) != len(factors) - 1:
            raise ParseError("every factor but the first needs an attach line")
        pres = amalgam_presentation(factors, edges, sgroup, s_embed, p)
    # remaining lines must agree with the regenerated text
    for ln in lines[idx:]:
        if not (ln == "rel" or ln.startswith(("gen ", "rel "))):
            raise ParseError(f"unexpected presentation line: {ln!r}")
    declared_gens = [ln[4:] for ln in lines[idx:] if ln.startswith("gen ")]
    if tuple(declared_gens) != pres.generators:
        raise ParseError("generator lines disagree with the structural data")
    declared_rels = [ln[4:] for ln in lines[idx:]
                     if ln == "rel" or ln.startswith("rel ")]
    have = [r.display() for r in pres.relators]
    if declared_rels != have:
        raise ParseError("relator lines disagree with the structural data")
    return pres


def _check_map(H, L, images, what):
    """Refuse a map that is not an injective homomorphism from H into L."""
    try:
        InjHom(H, full_subgroup(L), images)
    except ValueError as exc:
        raise ParseError(f"{what} is not an injective homomorphism: "
                         f"{exc}") from exc


def load_presentation(path):
    return parse_presentation(Path(path).read_text())


def parse_word(pres, text):
    """A word of `name^1 name^-1` letters, each read by one token lookup."""
    try:
        return pres.word(map(pres.tokens.__getitem__, text.split()))
    except KeyError as exc:
        raise ParseError(f"bad word letter {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# family files


def serialize_family(fam):
    return "".join(f"V={s.label} ; {fam.components[s.key].describe()}\n"
                   for s in fam.sites)


def parse_family(F, text):
    sites = fusion_ea_morphisms(F)[0]
    by_key = {s.key: s for s in sites}
    parsed = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        m = re.fullmatch(r"V=(\[[\d,]*\]) ; (.*)", ln)
        if not m:
            raise ParseError(f"bad family line: {ln!r}")
        key = parse_elems(m.group(1))
        if key not in by_key:
            raise ParseError(f"{list(key)} is not an elementary abelian "
                             f"subgroup of S")
        if key in parsed:
            raise ParseError(f"site {list(key)} is given twice")
        parsed[key] = _parse_terms(by_key[key], m.group(2))
    degrees = set()
    for terms in parsed.values():
        found = {monomial_degree(mono, F.p) for mono in terms}
        if len(found) > 1:
            raise ParseError("element is not homogeneous")
        degrees |= found
    if len(degrees) > 1:
        raise ParseError(f"components have mixed degrees {sorted(degrees)}")
    degree = degrees.pop() if degrees else 0
    if degree > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {degree} exceeds cap {MAX_DEGREE}")
    return StableFamily(F, degree, tuple(
        c for s in sites for c in CohoElement.from_terms(
            s, degree, parsed.get(s.key, {})).coords))


def _parse_terms(site, text):
    """{monomial: coefficient} of the nonzero terms mod p of a class."""
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    factors = []
    for tok in text.split():
        if ":" in tok:
            last, _, coeff = tok.partition(":")
            if not re.fullmatch(r"-?\d+", coeff):
                raise ParseError(f"bad coefficient in {tok!r}")
            sign, mono = _parse_monomial(site, factors + [last])
            terms[mono] = terms.get(mono, 0) + sign * int(coeff)
            factors = []
        else:
            factors.append(tok)
    if factors:
        raise ParseError(f"dangling monomial factors {factors!r}")
    return {mono: c % site.p for mono, c in terms.items() if c % site.p}


def _parse_monomial(site, factors):
    """(sign, monomial) of a product of factors: the sign of putting its
    exterior generators in index order, as the x_i are of even degree."""
    n = site.rank
    eps = [0] * n
    alpha = [0] * n
    inversions = 0
    for f in factors:
        if f == "1":
            continue
        m = re.fullmatch(r"([ax])(\d+)(?:\^(\d+))?", f)
        if not m:
            raise ParseError(f"bad monomial factor {f!r}")
        kind, i, e = m.group(1), int(m.group(2)) - 1, int(m.group(3) or 1)
        if not 0 <= i < n:
            raise ParseError(f"variable index out of range in {f!r}")
        if kind == "a":
            if site.p == 2:
                raise ParseError("exterior generators do not exist at p=2")
            if eps[i] or e != 1:
                raise ParseError(f"exterior square in {f!r}")
            inversions += sum(eps[i + 1:])
            eps[i] = 1
        else:
            alpha[i] += e
    return (-1) ** inversions, (tuple(eps), tuple(alpha))


def load_family(F, path):
    return parse_family(F, Path(path).read_text())


# ---------------------------------------------------------------------------
# saturation / report helpers shared by cli and corpus


def describe_fusion(F):
    # h: P -> S counts once for each Q >= h(P), itself and its overgroups
    above = Counter(Q.elements for below in F.lattice.below.values()
                    for Q in below)
    n_morphisms = sum(1 + above[tuple(sorted(images))]
                      for homs in F.homsets.values() for images in homs)
    return (f"fusion system on {F.group.name} (order {F.group.order}, "
            f"p={F.p}): {len(F.subgroups)} subgroups, "
            f"{n_morphisms} morphisms")
