import hashlib
import typing
from pathlib import Path

import pytest

from fusionwb import io
from fusionwb.catalog import cyclic, named_group, symmetric
from fusionwb.cli import main
from fusionwb.corpus import corpus_dir, load_corpus
from fusionwb.errors import CorpusMissing, DegreeBoundExceeded, NonAssociative
from fusionwb.fusion import fusion_equal
from fusionwb.groups import InjHom, full_subgroup
from fusionwb.io import (
    ParseError,
    format_elems,
    load_datum,
    load_fusion_spec,
    load_group,
    parse_elems,
    parse_family,
    parse_fusion_spec,
    parse_group,
    parse_presentation,
    parse_word,
    serialize_family,
    serialize_fusion_spec,
    serialize_group,
    serialize_presentation,
)
from fusionwb.models import (
    amalgam_presentation,
    hnn_presentation,
    is_identity,
    robinson_presentation,
)
from fusionwb.stable import stable_basis


def test_elems_round_trip():
    assert parse_elems("[0,3,5,6]") == (0, 3, 5, 6)
    assert format_elems((0, 3, 5, 6)) == "[0,3,5,6]"
    assert parse_elems("[]") == ()
    with pytest.raises(ParseError):
        parse_elems("0,1")


def test_group_file_round_trip_all_corpus():
    corpus = load_corpus()
    for name in corpus.names:
        path = corpus.directory / corpus.files[name]
        text = path.read_text()
        G = parse_group(text)
        assert serialize_group(G) == text
        assert G == corpus.groups[name]


def test_perm_mode_parsing():
    text = "group S3 order 6\nmode perm\n(1 2)\n(1 2 3)\n"
    G = parse_group(text)
    assert G.order == 6
    from fusionwb.groups import is_isomorphic
    assert is_isomorphic(G, symmetric(3))


def test_perm_mode_order_mismatch():
    with pytest.raises(ParseError):
        parse_group("group S3 order 7\nmode perm\n(1 2)\n(1 2 3)\n")


def test_corrupted_table_surfaces_nonassociative():
    # swap an intercalate away from row/column 0: the table stays a latin
    # square with identity, so the corruption can only surface as a
    # non-associative triple
    D8 = named_group("D8")
    t = [list(row) for row in D8.table]
    n = D8.order
    found = None
    for i1 in range(1, n):
        for i2 in range(i1 + 1, n):
            for j1 in range(1, n):
                for j2 in range(j1 + 1, n):
                    if t[i1][j1] == t[i2][j2] and t[i1][j2] == t[i2][j1] \
                            and t[i1][j1] != t[i1][j2]:
                        bad = [row[:] for row in t]
                        bad[i1][j1], bad[i1][j2] = bad[i1][j2], bad[i1][j1]
                        bad[i2][j1], bad[i2][j2] = bad[i2][j2], bad[i2][j1]
                        try:
                            parse_group(_table_text(bad))
                        except NonAssociative as exc:
                            found = (bad, exc.triple)
                        if found:
                            break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    bad, (a, b, c) = found
    assert bad[bad[a][b]][c] != bad[a][bad[b][c]]


def _table_text(rows):
    lines = [f"group D8bad order {len(rows)}", "mode table"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_fusion_spec_round_trip():
    corpus = load_corpus()
    text = (corpus.directory / "c3_inversion.fus").read_text()
    spec = parse_fusion_spec(text, base_dir=corpus.directory)
    assert serialize_fusion_spec(spec) == text
    F = spec.fusion()
    assert len(F.aut_set(F.S)) == 2


def test_fusion_spec_bad_morphism():
    corpus = load_corpus()
    bad = "fusion p=3 S=c3.grp\nphi: [0,1,2] -> [0,1,2] ; images=[0,1,1]\n"
    with pytest.raises(ParseError):
        parse_fusion_spec(bad, base_dir=corpus.directory)


def test_presentation_round_trip_hnn():
    C3 = cyclic(3)
    S = full_subgroup(C3)
    pres = hnn_presentation(S, 3, [InjHom(S, S, [0, 2, 1])])
    text = serialize_presentation(pres)
    again = parse_presentation(text)
    assert serialize_presentation(again) == text
    w = parse_word(again, "t1^-1 g1^1 t1^1 g1^1")
    assert is_identity(w)



@pytest.mark.parametrize("text, letters", [
    ("t1^-1 g1^1 t1^1 g2^1", ((2, -1), (0, 1), (2, 1), (1, 1))),
    ("", ()),
    ("g1", "g1"),
    ("^1", "^1"),
    ("g1^01", "g1^01"),
    ("g1^+1", "g1^+1"),
    ("g1^1^1", "g1^1^1"),
    ("x^1", "x^1"),
    ("g1^-1x", "g1^-1x"),
    ("g1^-2", "g1^-2"),
    ("g1^1 t1^2", "t1^2"),
])
def test_parse_word_tokens(text, letters):
    """A letter is a generator, '^' and 1 or -1; the first bad one is named."""
    S = full_subgroup(cyclic(3))
    pres = hnn_presentation(S, 3, [InjHom(S, S, [0, 2, 1])])
    if isinstance(letters, str):
        with pytest.raises(ParseError) as err:
            parse_word(pres, text)
        assert str(err.value) == f"bad word letter {letters!r}"
    else:
        assert parse_word(pres, text).letters == letters


def test_presentation_round_trip_amalgam():
    spec = load_datum(corpus_dir() / "d8_s4.datum")
    pres = robinson_presentation(spec.datum)
    text = serialize_presentation(pres)
    again = parse_presentation(text)
    assert serialize_presentation(again) == text
    from fusionwb.models import recover_fusion
    got = recover_fusion(again, full_subgroup(again.s_group), 3)
    assert fusion_equal(got, spec.fusion)


def test_presentation_with_trivial_s_is_refused():
    # the file of a trivial S does not name its prime, so the parser
    # refuses it and the serializer does not write it
    with pytest.raises(ParseError):
        parse_presentation("presentation kind=hnn\nsgroup order 1\n0\n")
    pres = hnn_presentation(full_subgroup(cyclic(1)), 2, [])
    with pytest.raises(ValueError, match="trivial S does not name its prime"):
        serialize_presentation(pres)


def test_presentation_rejects_edited_relators():
    C3 = cyclic(3)
    S = full_subgroup(C3)
    pres = hnn_presentation(S, 3, [InjHom(S, S, [0, 2, 1])])
    text = serialize_presentation(pres)
    lines = text.splitlines()
    lines = [ln for ln in lines if ln != "rel g1^1 g2^1"]
    with pytest.raises(ParseError):
        parse_presentation("\n".join(lines) + "\n")


def _d8_s4_text(attach=None, s_embed=None):
    """The D8/S4 Robinson model's file, with its attach map or its S
    embedding replaced; the relator lines agree with the replacement."""
    m = robinson_presentation(load_datum(corpus_dir() / "d8_s4.datum").datum)
    edges = {2: dict(m.graph_edges[0][3]) if attach is None else attach}
    return serialize_presentation(amalgam_presentation(
        m.vertices, edges, m.s_group,
        m.s_embed if s_embed is None else s_embed, 2))


def test_amalgam_file_round_trips_its_attach_map():
    text = _d8_s4_text()
    assert "attach factor=2 left=[0,1,2,3,4,5,6,7] " \
           "right=[0,1,5,8,10,15,16,21]" in text
    assert serialize_presentation(parse_presentation(text)) == text


@pytest.mark.parametrize("right, why", [
    ((0, 0, 5, 8, 10, 15, 16, 21), "not injective"),
    ((0, 5, 1, 8, 10, 15, 16, 21), "not multiplicative"),
])
def test_amalgam_file_refuses_a_bad_attach_map(right, why):
    text = _d8_s4_text(attach=dict(zip(range(8), right)))
    with pytest.raises(ParseError, match=why):
        parse_presentation(text)


@pytest.mark.parametrize("old, new", [
    ("left=[0,1,2,3,4,5,6,7]", "left=[0,1,2,3,4,5,6,99]"),
    ("right=[0,1,5,8,10,15,16,21]", "right=[0,1,5,8,10,15,16,99]"),
    ("sembed [0,1,2,3,4,5,6,7]", "sembed [0,1,2,3,4,5,6,99]"),
])
def test_amalgam_file_refuses_elements_out_of_range(old, new):
    text = _d8_s4_text().replace(old, new)
    with pytest.raises(ParseError, match="99"):
        parse_presentation(text)


def test_hnn_file_refuses_a_bad_stable_line():
    S = full_subgroup(cyclic(3))
    pres = hnn_presentation(S, 3, [InjHom(S, S, [0, 2, 1])])
    text = serialize_presentation(pres)
    for bad in ("src=[0,1,7]", "src=[0,1]"):
        with pytest.raises(ParseError, match="invalid stable line"):
            parse_presentation(text.replace("src=[0,1,2]", bad))


def test_amalgam_file_refuses_an_attach_off_a_subgroup():
    text = _d8_s4_text(attach={0: 0, 1: 1, 2: 5})
    with pytest.raises(ParseError, match="left is not a subgroup"):
        parse_presentation(text)


def test_amalgam_file_refuses_an_attach_to_no_factor():
    text = _d8_s4_text().replace("attach factor=2", "attach factor=3")
    with pytest.raises(ParseError, match="no unattached factor 3"):
        parse_presentation(text)


def test_amalgam_file_refuses_a_bad_s_embedding():
    text = _d8_s4_text(s_embed=(0, 2, 1, 3, 4, 5, 6, 7))
    with pytest.raises(ParseError, match="sembed is not an injective"):
        parse_presentation(text)


# SHA-256 of each corpus model's `.pres` text, and its relator count: the
# file form is fixed, so a change to how a model is held must not move a byte
PINNED_FILES = {
    "c3_inversion.fus": (
        "09a76e474321b3c5e073edfe610d82fb258f198ce6540794e82c3aeca6704959", 12),
    "v4_gl2.fus": (
        "5a4ddfd632953f21abc3c611cdac094e7da2c036281ca4b77739a06025553c06", 24),
    "v4_rho.fus": (
        "889419b4021f34ad0816e2b58732769ec9b3a16ec43a725c1ce27a68acecb7a8", 20),
    "v4_involution.fus": (
        "faa67d8bf7db6d32d2167c6903d96b18b6054313472850a19c417ba30b8b7b07", 20),
    "d8_s4.datum": (
        "db3a47916e0f14d811471ec5498041e5c6ba5d3a5c3863e66d87ca8bdcacc62b", 648),
}


@pytest.mark.parametrize("name", sorted(PINNED_FILES))
def test_presentation_file_form_is_pinned(name):
    path = corpus_dir() / name
    if name.endswith(".fus"):
        spec = load_fusion_spec(path)
        pres = hnn_presentation(full_subgroup(spec.group), spec.p, spec.phis)
    else:
        pres = robinson_presentation(load_datum(path).datum)
    text = serialize_presentation(pres)
    digest, relators = PINNED_FILES[name]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(pres.relators) == relators
    assert sum(ln.startswith("rel") for ln in text.splitlines()) == relators


def test_datum_spec_annotations_resolve():
    hints = typing.get_type_hints(io.DatumSpec)
    assert hints["fusion"].__name__ == "FusionSystem"


def test_family_round_trip():
    corpus = load_corpus()
    spec = parse_fusion_spec(
        (corpus.directory / "v4_rho.fus").read_text(),
        base_dir=corpus.directory)
    F = spec.fusion()
    for fam in stable_basis(F, 3):
        text = serialize_family(fam)
        again = parse_family(F, text)
        assert serialize_family(again) == text
        assert again.degree == 3
        # the sites are those of F's kept limit, the very Site objects
        assert len(again.sites) == len(fam.sites)
        assert all(a is b for a, b in zip(again.sites, fam.sites))


def test_family_parse_errors():
    corpus = load_corpus()
    spec = parse_fusion_spec(
        (corpus.directory / "v4_rho.fus").read_text(),
        base_dir=corpus.directory)
    F = spec.fusion()
    with pytest.raises(ParseError):
        parse_family(F, "V=[0,1] ; a1:1\n")      # exterior var at p=2
    with pytest.raises(ParseError):
        parse_family(F, "V=[0,5] ; x1:1\n")      # not a subgroup of S
    with pytest.raises(ParseError):
        parse_family(F, "V=[0,1] ; x1:1\nV=[0,2] ; x1^2:1\n")  # mixed degree
    with pytest.raises(ParseError, match="^element is not homogeneous$"):
        parse_family(F, "V=[0,1,2,3] ; x1:1 x1^2:1\n")
    # a term that vanishes mod p has no degree
    assert parse_family(F, "V=[0,1,2,3] ; x1:2 x1^2:1\n").degree == 2


def test_family_parse_signs_reordered_exterior_factors():
    # at p = 3, a2 a1 = -a1 a2 = 2 a1 a2; the x_i are even and commute
    F = load_fusion_spec(Path(__file__).parent / "golden/c3e2_q8.fus").fusion()

    def parsed(terms):
        return serialize_family(parse_family(F, f"V=[0,1,2,3,4,5,6,7,8] ; "
                                                f"{terms}\n"))

    assert parsed("a2 a1:1") == parsed("a1 a2:2") != parsed("a1 a2:1")
    assert parsed("a2 x1 a1:1") == parsed("a1 a2 x1:2")
    assert parsed("a2 a1:1 a1 a2:1") == parsed("0")


def test_family_above_the_degree_cap_is_refused_at_parse(tmp_path, capsys):
    # x1^400 once ran the nilpotence test for seconds before it answered
    path = corpus_dir() / "v4_gl2.fus"
    F = load_fusion_spec(path).fusion()
    assert parse_family(F, "V=[0,1,2,3] ; x1^40:1\n").degree == 40
    text = "V=[0,1,2,3] ; x1^400:1\n"
    with pytest.raises(DegreeBoundExceeded, match="degree 400 exceeds cap 40"):
        parse_family(F, text)
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(text)
    code = main(["stable", "nilpotent", "--family", str(fam_file),
                 "--fusion", str(path)])
    assert code == 2
    assert "degree 400 exceeds cap 40" in capsys.readouterr().err


def test_family_refuses_a_repeated_site(tmp_path, capsys):
    # a second V= line for a site would replace the first one
    path = corpus_dir() / "v4_rho.fus"
    F = load_fusion_spec(path).fusion()
    text = serialize_family(stable_basis(F, 2)[0]) + "V=[0,1,2,3] ; 0\n"
    with pytest.raises(ParseError, match=r"site \[0, 1, 2, 3\] is given twice"):
        parse_family(F, text)
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(text)
    code = main(["stable", "nilpotent", "--family", str(fam_file),
                 "--fusion", str(path)])
    assert code == 2
    assert "given twice" in capsys.readouterr().err


def test_load_corpus_missing(tmp_path):
    with pytest.raises(CorpusMissing):
        load_corpus(tmp_path)


def test_load_group_from_path():
    G = load_group(corpus_dir() / "q8.grp")
    assert G.order == 8 and G.name == "Q8"
