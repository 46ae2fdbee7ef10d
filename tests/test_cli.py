import os
import re
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

from fusionwb import fusion
from fusionwb.cli import main, run
from fusionwb.corpus import corpus_dir
from fusionwb.errors import UsageError
from fusionwb.io import parse_elems
from fusionwb.report import RunReport

DATA = corpus_dir()


def test_saturate_group_verb(capsys):
    code = main(["fusion", "saturate", "--group", str(DATA / "s4.grp"),
                 "--prime", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "saturated" in out and "NOT" not in out


def test_saturate_detects_failure(capsys):
    code = main(["fusion", "saturate", "--fusion",
                 str(DATA / "v4_involution.fus")])
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT saturated" in out
    assert "|Aut_S|=1, |Aut_F|=2" in out


def test_poincare_degree_zero(capsys):
    code = main(["stable", "poincare", "--fusion",
                 str(DATA / "c3_inversion.fus"), "--max-degree", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "degrees 0..0: 1" in out


def test_hnn_then_verify_pipeline(tmp_path, capsys):
    pres = tmp_path / "m.pres"
    assert main(["model", "hnn", str(DATA / "c3_inversion.fus"),
                 "--out", str(pres)]) == 0
    capsys.readouterr()
    code = main(["model", "verify", "--presentation", str(pres),
                 "--fusion", str(DATA / "c3_inversion.fus"),
                 "--radius", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[0,2,1]" in out          # the inversion shows up as recovered
    assert "equals the expected fusion" in out


def test_robinson_then_verify(tmp_path, capsys):
    pres = tmp_path / "r.pres"
    assert main(["model", "robinson", str(DATA / "d8_s4.datum"),
                 "--out", str(pres)]) == 0
    capsys.readouterr()
    code = main(["model", "verify", "--presentation", str(pres),
                 "--group", str(DATA / "s4.grp"), "--prime", "2",
                 "--radius", "3"])
    assert code == 0
    capsys.readouterr()
    code = main(["model", "verify", "--presentation", str(pres),
                 "--datum", str(DATA / "d8_s4.datum"), "--radius", "3"])
    assert code == 0


def test_truncated_presentation_exit_two(tmp_path, capsys):
    full = tmp_path / "r.pres"
    assert main(["model", "robinson", str(DATA / "d8_s4.datum"),
                 "--out", str(full)]) == 0
    lines = [ln for ln in full.read_text().splitlines() if ln.strip()]
    assert lines[1].startswith("sgroup order ")
    end_of_sgroup = 2 + int(lines[1].split()[-1])
    cut = tmp_path / "cut.pres"
    for text in ("", "\n".join(lines[:end_of_sgroup]) + "\n"):
        cut.write_text(text)
        capsys.readouterr()
        code = main(["model", "verify", "--presentation", str(cut),
                     "--datum", str(DATA / "d8_s4.datum"), "--radius", "1"])
        assert code == 2
        assert "presentation ends early" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["fusion", "saturate", "--fusion"], "fusion file is empty"),
    (["model", "hnn"], "fusion file is empty"),
    (["model", "robinson"], "datum file is empty"),
])
def test_empty_input_file_exit_two(tmp_path, capsys, argv, what):
    for text in ("", "\n  \n"):
        empty = tmp_path / "empty"
        empty.write_text(text)
        capsys.readouterr()
        assert main(argv + [str(empty)]) == 2
        assert what in capsys.readouterr().err


def test_stable_compare_verb(capsys):
    code = main(["stable", "compare", "--group", str(DATA / "a4.grp"),
                 "--fusion", str(DATA / "v4_rho.fus"), "--max-degree", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dimensions agree" in out


def test_nilpotent_verb(tmp_path, capsys):
    from fusionwb.io import load_fusion_spec, serialize_family
    from fusionwb.stable import stable_basis
    F = load_fusion_spec(DATA / "c3_inversion.fus").fusion()
    fams = stable_basis(F, 3)
    assert len(fams) == 1            # a x is fixed by inversion
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(serialize_family(fams[0]))
    code = main(["stable", "nilpotent", "--family", str(fam_file),
                 "--fusion", str(DATA / "c3_inversion.fus")])
    out = capsys.readouterr().out
    assert code == 0
    assert "nilpotent: yes" in out


def test_nilpotent_false_exits_one(tmp_path, capsys):
    from fusionwb.io import load_fusion_spec, serialize_family
    from fusionwb.stable import stable_basis
    F = load_fusion_spec(DATA / "c3_inversion.fus").fusion()
    fam = stable_basis(F, 4)[0]      # x^2 restricts nontrivially
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(serialize_family(fam))
    code = main(["stable", "nilpotent", "--family", str(fam_file),
                 "--fusion", str(DATA / "c3_inversion.fus")])
    assert code == 1
    assert "nilpotent: no" in capsys.readouterr().out


def test_group_verbs(capsys):
    assert main(["group", "info", str(DATA / "d8.grp")]) == 0
    out = capsys.readouterr().out
    assert "order 8" in out and "subgroups: 10" in out
    assert main(["group", "subgroups", str(DATA / "d8.grp")]) == 0
    out = capsys.readouterr().out
    assert out.count("[") == 10 and "[0,1,2,3,4,5,6,7]" in out
    assert main(["group", "sylow", str(DATA / "s4.grp"),
                 "--prime", "2"]) == 0
    out = capsys.readouterr().out
    assert "(order 8)" in out


def test_usage_error_exit_two(capsys):
    assert main(["fusion", "saturate"]) == 2
    assert main(["no-such-verb"]) == 2


@pytest.mark.parametrize("argv", [
    ["group", "sylow", str(DATA / "s4.grp"), "--prime", "0"],
    ["group", "sylow", str(DATA / "s4.grp"), "--prime", "4"],
    ["stable", "basis", "--fusion", str(DATA / "v4_gl2.fus"),
     "--max-degree", "-1"],
    ["stable", "poincare", "--fusion", str(DATA / "v4_gl2.fus"),
     "--max-degree", "-1"],
    ["stable", "compare", "--group", str(DATA / "a4.grp"),
     "--fusion", str(DATA / "v4_rho.fus"), "--max-degree", "-1"],
], ids=["sylow-prime-0", "sylow-prime-4", "basis-degree", "poincare-degree",
        "compare-degree"])
def test_bad_numeric_flag_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


def test_negative_radius_exit_two(tmp_path, capsys):
    pres = tmp_path / "m.pres"
    assert main(["model", "hnn", str(DATA / "c3_inversion.fus"),
                 "--out", str(pres)]) == 0
    capsys.readouterr()
    assert main(["model", "verify", "--presentation", str(pres),
                 "--fusion", str(DATA / "c3_inversion.fus"),
                 "--radius", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 0, not -1" in captured.err


def test_prime_one_exit_two_at_once():
    # in a subprocess with a timeout: p = 1 once sent p_part into a loop
    proc = subprocess.run(
        [sys.executable, "-m", "fusionwb", "fusion", "saturate",
         "--group", str(DATA / "s4.grp"), "--prime", "1"],
        capture_output=True, text=True, env=_checkout_env(), timeout=60)
    assert proc.returncode == 2
    assert "must be a prime, not 1" in proc.stderr


@pytest.mark.parametrize("p", [4, 1])
@pytest.mark.parametrize("verb", [["fusion", "saturate"],
                                  ["stable", "poincare", "--max-degree", "2"]])
def test_non_prime_on_trivial_s_exit_two(tmp_path, capsys, verb, p):
    # |S| = 1 names no prime, so p is checked on its own
    (tmp_path / "c1.grp").write_text("group C1 order 1\nmode table\n0\n")
    fus = tmp_path / "c1.fus"
    fus.write_text(f"fusion p={p} S=c1.grp\n")
    assert main(verb + ["--fusion", str(fus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"p = {p} is not a prime" in captured.err


@pytest.mark.parametrize("line", ["(1 2)(2 1)", "(1 1)", "(1 2 1)",
                                  "(1 2)(3 2)", "(0 1)", "(1 2)(0)"])
def test_bad_cycle_line_exit_two(tmp_path, capsys, line):
    grp = tmp_path / "g.grp"
    grp.write_text(f"group G order 2\nmode perm\n{line}\n")
    assert main(["group", "info", str(grp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(line) in captured.err


def _presentation(tmp_path):
    pres = tmp_path / "m.pres"
    assert main(["model", "hnn", str(DATA / "v4_rho.fus"),
                 "--out", str(pres)]) == 0
    return str(pres)


@pytest.mark.parametrize("verb, sources", [
    ("saturate", ["--group", "s4.grp", "--prime", "2",
                  "--fusion", "v4_rho.fus"]),
    ("verify", ["--group", "s4.grp", "--prime", "2",
                "--fusion", "v4_rho.fus"]),
    ("verify", ["--datum", "d8_s4.datum", "--fusion", "v4_rho.fus"]),
    ("verify", ["--datum", "d8_s4.datum", "--group", "s4.grp",
                "--prime", "2"]),
], ids=["saturate-group-fusion", "verify-group-fusion",
        "verify-datum-fusion", "verify-datum-group"])
def test_two_fusion_sources_exit_two(tmp_path, capsys, verb, sources):
    sources = [str(DATA / a) if "." in a else a for a in sources]
    argv = (["fusion", "saturate"] if verb == "saturate" else
            ["model", "verify", "--presentation", _presentation(tmp_path)])
    capsys.readouterr()
    assert main(argv + sources) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: pass " in captured.err


def test_missing_file_exit_two(capsys):
    assert main(["group", "info", "/nonexistent.grp"]) == 2


def test_broken_category_exit_three(monkeypatch, capsys):
    # a transporter system missing one automorphism of S is not a category;
    # that is a bug in the workbench, not unusable input
    real = fusion.conjugation_images

    def drop_one(G, subs, emb=None):
        found = real(G, subs, emb)
        found[subs[-1].elements].popitem()
        return found

    monkeypatch.setattr(fusion, "conjugation_images", drop_one)
    code = main(["fusion", "saturate", "--group", str(DATA / "s4.grp"),
                 "--prime", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: NotACategory: missing S-conjugation")


def test_run_raises_usage_error():
    with pytest.raises(UsageError):
        run(["fusion", "saturate"])


def test_corpus_check_determinism(capsys):
    assert main(["corpus", "check"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus", "check"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "status: ok" in first


def test_package_data_ships_whole_corpus():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    globs = config["tool"]["setuptools"]["package-data"]["fusionwb"]
    for path in DATA.rglob("*"):
        if path.is_file():
            name = path.relative_to(DATA.parent).as_posix()
            assert any(fnmatch(name, g) for g in globs), name


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fusionwb.cli", "stable", "poincare",
         "--fusion", str(DATA / "v4_gl2.fus"), "--max-degree", "6"],
        capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0
    assert "1 0 1 1 1 1 2" in proc.stdout


def _checkout_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_module_entry_point_from_a_checkout():
    env = _checkout_env()
    proc = subprocess.run(
        [sys.executable, "-m", "fusionwb", "group", "info",
         str(DATA / "d8.grp")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "subgroups: 10" in proc.stdout
    bad = subprocess.run([sys.executable, "-m", "fusionwb", "no-such-verb"],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 2


def test_report_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["fusion", "saturate", "--group", str(DATA / "a4.grp"),
                 "--prime", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout


def test_failed_step_keeps_its_origin():
    report = RunReport("demo")
    with report.step("parse"):
        parse_elems("0,1")
    with report.step("fine"):
        pass
    lines = report.render().splitlines()
    assert lines[0] == "command: demo" and lines[-1] == "status: FAILED"
    m = re.fullmatch(r"FAIL parse: ParseError: expected \[\.\.\] element "
                     r"list, got '0,1' \(io\.py:(\d+)\)", lines[1])
    assert m, lines[1]
    src = Path(parse_elems.__code__.co_filename).read_text().splitlines()
    assert "raise ParseError" in src[int(m.group(1)) - 1]
    assert len(lines) == 3
