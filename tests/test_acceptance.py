"""End-to-end acceptance checks, one test per criterion, with time budgets.

Run `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines; each test also prints its own summary line.
"""

import itertools
import random
import time

from elimination_oracle import reference_nullspace
from restriction_oracle import reference_polynomial_part
from fusionwb.catalog import named_group
from fusionwb.corpus import corpus_check, corpus_dir
from fusionwb.fusion import (
    SylowFailure,
    fusion_equal,
    fusion_from_group,
    generate_fusion,
    is_saturated,
)
from fusionwb.groups import InjHom, Subgroup, full_subgroup, sylow_p
from fusionwb.io import load_datum
from fusionwb.models import (
    hnn_presentation,
    is_identity,
    random_pinch_free_word,
    random_word,
    recover_fusion,
    reduce_word,
    robinson_presentation,
    validate_alperin_datum,
    words_equal,
)
from fusionwb.stable import (
    family_power,
    is_nilpotent,
    quillen_limit_finite_group,
    stable_basis,
)

SEED = 1898


def _report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_1_transporter_saturation():
    t0 = time.perf_counter()
    pairs = [("C2", "C2", 2), ("V4", "A4", 2), ("D8", "S4", 2),
             ("Q8", "SL(2,3)", 2), ("C3", "S3", 3)]
    for sname, gname, p in pairs:
        G = named_group(gname)
        F = fusion_from_group(sylow_p(G, p), G, p=p)
        rep = is_saturated(F)
        assert rep.saturated, f"F_{sname}({gname}) must be saturated"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"5 transporter systems saturated in {elapsed:.2f}s")


def test_criterion_2_non_saturation_witness():
    V4 = named_group("V4")
    S = full_subgroup(V4)
    tau = InjHom(S, S, [0, 2, 1, 3])     # swaps two of the three C2s
    rep = is_saturated(generate_fusion(S, 2, [tau]))
    assert not rep.saturated
    assert rep.witnesses == [SylowFailure(S, 1, 2)]
    _report(2, "exactly one SylowFailure at P=S with |Aut_S|=1, |Aut_F|=2")


def test_criterion_3_leary_stancu_realization():
    t0 = time.perf_counter()
    C3 = named_group("C3")
    S = full_subgroup(C3)
    inv = InjHom(S, S, [0, 2, 1])
    model = hnn_presentation(S, 3, [inv])
    expected = generate_fusion(S, 3, [inv])
    got = recover_fusion(model, S, 2)
    assert fusion_equal(got, expected)
    s_words = [model.s_word([x]) for x in S.elements]
    for i, u in enumerate(s_words):
        for j, v in enumerate(s_words):
            assert words_equal(u, v) == (i == j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"HNN recovery at radius 2 equals the closure in {elapsed:.2f}s")


def test_criterion_4_robinson_realization():
    t0 = time.perf_counter()
    S4 = named_group("S4")
    spec = load_datum(corpus_dir() / "d8_s4.datum")
    F, datum = spec.fusion, spec.datum
    assert validate_alperin_datum(datum).valid
    model = robinson_presentation(datum)
    got = recover_fusion(model, F.S, 3)
    independent = fusion_from_group(sylow_p(S4, 2), S4, p=2)
    assert fusion_equal(got, independent)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"amalgam recovery at radius 3 equals F_D8(S4) in {elapsed:.2f}s")


def _poly_substitute(term_exps, coeff, matrix, nvars, p):
    result = {(0,) * nvars: coeff}
    for i, e in enumerate(term_exps):
        for _ in range(e):
            nxt = {}
            for mono, c in result.items():
                for j in range(nvars):
                    if matrix[i][j] % p == 0:
                        continue
                    m2 = list(mono)
                    m2[j] += 1
                    nxt[tuple(m2)] = (nxt.get(tuple(m2), 0)
                                      + c * matrix[i][j]) % p
            result = nxt
    return result


def _invariant_dimension(matrices, d, nvars, p):
    monos = [m for m in itertools.product(range(d + 1), repeat=nvars)
             if sum(m) == d]
    idx = {m: i for i, m in enumerate(monos)}
    rows = []
    for mat in matrices:
        for m in monos:
            row = [0] * len(monos)
            for m2, c in _poly_substitute(m, 1, mat, nvars, p).items():
                row[idx[m2]] = (row[idx[m2]] + c) % p
            row[idx[m]] = (row[idx[m]] - 1) % p
            if any(row):
                rows.append(row)
    return len(reference_nullspace(rows, len(monos), p))


def test_criterion_5_stable_vs_invariant_theory():
    t0 = time.perf_counter()
    V4 = named_group("V4")
    S = full_subgroup(V4)
    rho = InjHom(S, S, [0, 2, 3, 1])
    tau = InjHom(S, S, [0, 2, 1, 3])
    FGL = generate_fusion(S, 2, [rho, tau])
    gl2 = [[[a, b], [c, d]]
           for a, b, c, d in itertools.product((0, 1), repeat=4)
           if (a * d - b * c) % 2]
    for d in range(13):
        dim = len(stable_basis(FGL, d))
        assert dim == _invariant_dimension(gl2, d, 2, 2)
        dickson = sum(1 for i in range(d // 2 + 1) if (d - 2 * i) % 3 == 0)
        assert dim == dickson
    FC3 = generate_fusion(S, 2, [rho])
    c3 = [[[1, 0], [0, 1]], [[0, 1], [1, 1]], [[1, 1], [1, 0]]]
    for d in range(13):
        assert len(stable_basis(FC3, d)) == _invariant_dimension(c3, d, 2, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, f"GL2 and C3 fusion dims match the oracles in {elapsed:.2f}s")


def test_criterion_6_quillen_cross_check():
    V4 = named_group("V4")
    S = full_subgroup(V4)
    FA = generate_fusion(S, 2, [InjHom(S, S, [0, 2, 3, 1])])
    A4 = named_group("A4")
    for d in range(13):
        assert quillen_limit_finite_group(A4, 2, d).dimension == \
            len(stable_basis(FA, d))
    S4 = named_group("S4")
    FS = fusion_from_group(sylow_p(S4, 2), S4, p=2)
    for d in range(13):
        assert quillen_limit_finite_group(S4, 2, d).dimension == \
            len(stable_basis(FS, d))
    _report(6, "A4 and S4 Quillen limits equal the fusion limits to degree 12")


def test_criterion_7_nilpotence_criterion():
    C33 = named_group("C3xC3")
    F = fusion_from_group(full_subgroup(C33), C33, p=3)
    total = nil = 0
    for d in range(9):
        for fam in stable_basis(F, d):
            total += 1
            if is_nilpotent(fam):
                nil += 1
                assert family_power(fam, 3).is_zero()
            else:
                assert any(reference_polynomial_part(c)
                           for c in fam.components.values())
                assert not family_power(fam, 3).is_zero()
    assert total > 20
    _report(7, f"{nil} nilpotent / {total} basis families through degree 8")


def test_criterion_8_britton_property_suite():
    t0 = time.perf_counter()
    C4 = named_group("C4")
    S = full_subgroup(C4)
    half = Subgroup(C4, (0, 2))
    model = hnn_presentation(
        S, 2, [InjHom(half, S, (0, 2)), InjHom(S, S, (0, 3, 2, 1))])
    rng = random.Random(SEED)
    for _ in range(1000):
        w = random_pinch_free_word(model, rng)
        assert not is_identity(w)
        r = reduce_word(w)
        assert reduce_word(r).letters == r.letters
    for _ in range(1000):
        w = random_word(model, rng)
        ww = w.concat(w.inverse())
        assert is_identity(ww)
        r = reduce_word(ww)
        assert reduce_word(r).letters == r.letters
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(8, f"2000 seeded word checks in {elapsed:.2f}s")


def test_criterion_9_corpus_determinism():
    first = corpus_check()
    second = corpus_check()
    assert first.ok and second.ok
    assert first.render() == second.render()
    _report(9, "two corpus runs render byte-identical reports")
