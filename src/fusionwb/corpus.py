"""Bundled corpus of small groups and the cross-module invariant suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import named_group
from .cohomology import restriction_matrix
from .errors import CorpusMissing
from .fusion import (
    SylowFailure,
    fusion_equal,
    fusion_from_group,
    generate_fusion,
    is_saturated,
    is_subfusion,
)
from .groups import (
    InjHom,
    _elementary_abelian_search,
    Subgroup,
    centralizer,
    conjugate_subgroup,
    elementary_abelians,
    full_subgroup,
    is_isomorphic,
    lattice,
    subgroup_as_group,
    normalizer,
    p_part,
    sylow_p,
)
from .io import (
    load_group,
    parse_group,
    parse_family,
    parse_fusion_spec,
    parse_presentation,
    serialize_family,
    serialize_fusion_spec,
    serialize_group,
    serialize_presentation,
    FusionSpec,
)
from .models import (
    AlperinDatum,
    AlperinEntry,
    ball_enumerate,
    hnn_presentation,
    is_identity,
    random_pinch_free_word,
    random_word,
    recover_fusion,
    reduce_word,
    robinson_presentation,
    validate_alperin_datum,
)
from .report import RunReport
from .stable import (
    family_power,
    family_product,
    check_family,
    fusion_ea_morphisms,
    is_nilpotent,
    poincare_series,
    quillen_limits,
    stable_basis,
    stable_basis_all_morphisms,
)

BUDGETS = {
    "fusion-saturation": 10.0,
    "model-hnn": 5.0,
    "model-robinson": 60.0,
    "britton": 10.0,
    "stable": 30.0,
}

DEFAULT_SEED = 1898


def corpus_dir():
    return Path(__file__).parent / "corpus_data"


@dataclass
class Corpus:
    directory: Path
    names: list            # manifest order
    files: dict            # name -> filename
    groups: dict           # name -> Group
    pairs: list            # (sylow name, group name, prime)


def load_corpus(directory=None):
    directory = Path(directory) if directory else corpus_dir()
    manifest = directory / "MANIFEST"
    if not manifest.is_file():
        raise CorpusMissing(f"no corpus manifest at {manifest}")
    names, files, groups, pairs = [], {}, {}, []
    for ln in manifest.read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("corpus"):
            continue
        parts = ln.split()
        if parts[0] == "group":
            name, fname = parts[1], parts[2]
            path = directory / fname
            if not path.is_file():
                raise CorpusMissing(f"missing corpus file {path}")
            names.append(name)
            files[name] = fname
            groups[name] = load_group(path)
        elif parts[0] == "pair":
            pairs.append((parts[1], parts[2], int(parts[3])))
        else:
            raise CorpusMissing(f"unknown manifest line {ln!r}")
    return Corpus(directory, names, files, groups, pairs)


def _check_group(name, G):
    lat = lattice(G)
    for P in lat.subgroups:
        for g in G.elements():
            if conjugate_subgroup(G, g, P).elements not in lat.by_key:
                raise AssertionError(f"{name}: conjugate of subgroup missing")
    for P in lat.subgroups:
        C, N = centralizer(G, P), normalizer(G, P)
        if not N.contains_subgroup(C):
            raise AssertionError(f"{name}: centralizer escapes normalizer")
    for p in G.order_factors:
        P = sylow_p(G, p)
        if P.order != p_part(G.order, p):
            raise AssertionError(f"{name}: Sylow {p}-subgroup has wrong order")
        found = elementary_abelians(G, p)
        # a p-group's list is read off the lattice, so check it against
        # the search that other groups get
        if P.order == G.order and [V.elements for V in found] != [
                V.elements for V in _elementary_abelian_search(G, p)]:
            raise AssertionError(
                f"{name}: elementary abelians differ from the search")
        for V in found:
            if V.elements not in lat.by_key:
                raise AssertionError(f"{name}: elementary abelian not listed")
            for x in V.elements:
                if x and G.element_order(x) != p:
                    raise AssertionError(f"{name}: exponent violation")
    return f"ok {name}: {len(lat.subgroups)} subgroups"


def corpus_check(directory=None, seed=DEFAULT_SEED):
    """Run the whole invariant suite over the bundled corpus."""
    report = RunReport("corpus check")
    try:
        corpus = load_corpus(directory)
    except CorpusMissing as exc:
        report.fail(str(exc))
        return report

    with report.step("load"):
        for name in corpus.names:
            path = corpus.directory / corpus.files[name]
            text = path.read_text()
            G = corpus.groups[name]
            if serialize_group(G) != text:
                raise AssertionError(f"{name}: group file is not canonical")
        report.add(f"ok load: {len(corpus.names)} groups")

    with report.step("group-invariants"):
        for name in corpus.names:
            report.add(_check_group(name, corpus.groups[name]))

    with report.step("fusion-saturation", BUDGETS["fusion-saturation"]):
        for sname, gname, p in corpus.pairs:
            G = corpus.groups[gname]
            S = sylow_p(G, p)
            if not is_isomorphic(corpus.groups[sname],
                                 subgroup_as_group(S)):
                raise AssertionError(
                    f"Sylow {p} of {gname} is not {sname}")
            F = fusion_from_group(S, G, p=p)
            rep = is_saturated(F)
            if not rep.saturated:
                raise AssertionError(
                    f"F_{sname}({gname}) reported unsaturated")
            regen = generate_fusion(F.S, p, list(F.morphisms()))
            if not fusion_equal(regen, F):
                raise AssertionError(
                    f"F_{sname}({gname}) regeneration is not idempotent")
            report.add(f"ok saturated: F_{sname}({gname}) at p={p}")

    with report.step("fusion-witness"):
        V4 = corpus.groups["V4"]
        SV = full_subgroup(V4)
        tau = InjHom(SV, SV, [0, 2, 1, 3])
        rep = is_saturated(generate_fusion(SV, 2, [tau]))
        want = [SylowFailure(SV, 1, 2)]
        if rep.saturated or rep.witnesses != want:
            raise AssertionError("wrong non-saturation witness")
        report.add("ok witness: involution fusion on V4 fails the Sylow axiom")

    with report.step("model-hnn", BUDGETS["model-hnn"]):
        C3 = corpus.groups["C3"]
        S = full_subgroup(C3)
        inv = InjHom(S, S, [0, 2, 1])
        model = hnn_presentation(S, 3, [inv])
        F = generate_fusion(S, 3, [inv])
        got = recover_fusion(model, S, 2)
        if not fusion_equal(got, F):
            raise AssertionError("HNN recovery disagrees with the closure")
        ball = ball_enumerate(model, 1)
        if len(ball) != 5:
            raise AssertionError(f"radius-1 ball has size {len(ball)}")
        report.add("ok model-hnn: C3 inversion recovered at radius 2")

    with report.step("model-robinson", BUDGETS["model-robinson"]):
        F, datum = standard_robinson_datum(corpus.groups["S4"])
        if not validate_alperin_datum(datum).valid:
            raise AssertionError("the D8/S4 datum fails validation")
        model = robinson_presentation(datum)
        prev = None
        for r in (1, 2, 3):
            got = recover_fusion(model, F.S, r)
            if not is_subfusion(got, F):
                raise AssertionError(f"recovered fusion escapes F at r={r}")
            if prev is not None and not is_subfusion(prev, got):
                raise AssertionError("recovery is not monotone in the radius")
            prev = got
        if not fusion_equal(prev, F):
            raise AssertionError("radius-3 recovery differs from F_{D8}(S4)")
        report.add("ok model-robinson: D8/S4 amalgam recovered at radius 3")

    with report.step("britton", BUDGETS["britton"]):
        C4 = named_group("C4")
        S = full_subgroup(C4)
        half = Subgroup(C4, (0, 2))
        phis = [InjHom(half, S, (0, 2)), InjHom(S, S, (0, 3, 2, 1))]
        model = hnn_presentation(S, 2, phis)
        rng = random.Random(seed)
        for _ in range(1000):
            w = random_pinch_free_word(model, rng)
            if is_identity(w):
                raise AssertionError(f"pinch-free word {w.display()} died")
            if reduce_word(reduce_word(w)).letters != reduce_word(w).letters:
                raise AssertionError("reduce_word is not idempotent")
        for _ in range(1000):
            w = random_word(model, rng)
            if not is_identity(w.concat(w.inverse())):
                raise AssertionError(f"w w^-1 not identity for {w.display()}")
        report.add("ok britton: 1000 pinch-free + 1000 cancellations")

    with report.step("stable", BUDGETS["stable"]):
        V4 = corpus.groups["V4"]
        SV = full_subgroup(V4)
        rho = InjHom(SV, SV, [0, 2, 3, 1])
        tau = InjHom(SV, SV, [0, 2, 1, 3])
        FGL = generate_fusion(SV, 2, [rho, tau])
        dims = poincare_series(FGL, 12)
        dickson = [sum(1 for i in range(d // 2 + 1)
                       if (d - 2 * i) % 3 == 0) for d in range(13)]
        if dims != dickson:
            raise AssertionError(f"Dickson dimensions differ: {dims}")
        FA = generate_fusion(SV, 2, [rho])
        A4 = corpus.groups["A4"]
        qa = [q.dimension for q in quillen_limits(A4, 2, range(9))]
        sa = poincare_series(FA, 8)
        if qa != sa:
            raise AssertionError("A4 Quillen limit differs from F_{V4}(A4)")
        for F in (FGL, FA):
            for d in range(7):
                full = len(stable_basis_all_morphisms(F, d))
                gen = len(stable_basis(F, d))
                if full != gen:
                    raise AssertionError(
                        "generating morphisms are not sufficient")
        _check_functoriality(FA)
        fams2 = stable_basis(FA, 2)
        fams3 = stable_basis(FA, 3)
        for f2 in fams2:
            for f3 in fams3:
                check_family(family_product(f2, f3))
        C33 = named_group("C3xC3")
        F33 = fusion_from_group(full_subgroup(C33), C33, p=3)
        for d in range(7):
            for fam in stable_basis(F33, d):
                if is_nilpotent(fam) != family_power(fam, 3).is_zero():
                    raise AssertionError("nilpotence flag disagrees with f^p")
        report.add("ok stable: Dickson, Quillen cross-check, nilpotence")

    with report.step("roundtrip"):
        for name in corpus.names:
            G = corpus.groups[name]
            text = serialize_group(G)
            if serialize_group(parse_group(text)) != text:
                raise AssertionError(f"{name}: group round trip broke")
        C3 = corpus.groups["C3"]
        S = full_subgroup(C3)
        spec = FusionSpec(3, "c3.grp", C3, [InjHom(S, S, [0, 2, 1])])
        text = serialize_fusion_spec(spec)
        reparsed = parse_fusion_spec(text, base_dir=corpus.directory)
        if serialize_fusion_spec(reparsed) != text:
            raise AssertionError("fusion spec round trip broke")
        model = hnn_presentation(S, 3, spec.phis)
        text = serialize_presentation(model)
        if serialize_presentation(parse_presentation(text)) != text:
            raise AssertionError("presentation round trip broke")
        F3 = generate_fusion(S, 3, spec.phis)
        fam = stable_basis(F3, 3)[0]
        text = serialize_family(fam)
        if serialize_family(parse_family(F3, text)) != text:
            raise AssertionError("family round trip broke")
        report.add("ok roundtrip: group, fusion, presentation, family")

    return report


def _check_functoriality(F, d=3):
    """Restriction matrices compose contravariantly on composable pairs."""
    _, homs, _ = fusion_ea_morphisms(F, generating=False)
    mats = [restriction_matrix(phi, sw, sv, d) for phi, sw, sv in homs]
    for (phi, sw, sv), r_phi in zip(homs, mats):
        for (psi, _, su), r_psi in zip(homs, mats):
            if psi.source != sv.V:
                continue
            comp = InjHom(sw.V, F.S, [psi.image_of(y) for y in phi.images],
                          _trusted=True)
            r_comp = restriction_matrix(comp, sw, su, d)
            if not np.array_equal(r_phi @ r_psi % F.p, r_comp):
                raise AssertionError("functoriality violated")


def standard_robinson_datum(S4):
    """The (D8, D8, id), (V4, S4, incl) datum for F_{D8}(S4)."""
    Ssub = sylow_p(S4, 2)
    F = fusion_from_group(Ssub, S4, p=2)
    Sgroup, Sfull = F.group, F.S
    emb = Ssub.elements
    # the normal V4: identity plus the involutions with conjugacy class size 3
    klein = [0]
    for g in S4.elements():
        if g and S4.element_order(g) == 2:
            orbit = {S4.conj(h, g) for h in S4.elements()}
            if len(orbit) == 3:
                klein.append(g)
    V4norm = Subgroup(Sgroup, [i for i, x in enumerate(emb) if x in klein])
    iota1 = InjHom(Sfull, full_subgroup(Sgroup), Sfull.elements)
    N = normalizer(Sgroup, V4norm)
    iota2 = InjHom(N, full_subgroup(S4), [emb[x] for x in N.elements])
    datum = AlperinDatum(F, [AlperinEntry(Sfull, Sgroup, iota1),
                             AlperinEntry(V4norm, S4, iota2)])
    return F, datum
