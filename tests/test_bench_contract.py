"""What perfbench/ reads of the library: the functions its tracer wraps,
the reduce entry point its smoke check calls, the word lines its inputs
write for the word reader, what its stable-series check reads of a
family, and the answers it records in perfbench/reference.json.  A change
here would otherwise show only as the benchmark's smoke check stopping
early or its answers going wrong."""

import contextlib
import importlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

from fusionwb import models
from fusionwb.catalog import cyclic
from fusionwb.cli import main
from fusionwb.corpus import corpus_dir
from fusionwb.groups import InjHom, Subgroup, full_subgroup
from fusionwb.io import load_datum, load_fusion_spec, parse_word
from fusionwb.stable import stable_basis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name):
    """perfbench/<name>.py, loaded by path with perfbench/ on sys.path for
    the modules it imports."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _targets():
    return _load("tracing").TARGETS


@pytest.mark.parametrize("target", _targets())
def test_traced_target_is_a_library_callable(target):
    mod, *path = target.split(".")
    obj = importlib.import_module(f"fusionwb.{mod}")
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)


def _models():
    C4 = cyclic(4)
    S = full_subgroup(C4)
    half = Subgroup(C4, (0, 2))
    c4 = models.hnn_presentation(
        S, 2, [InjHom(half, S, (0, 2)), InjHom(S, S, (0, 3, 2, 1))])
    d8_s4 = models.robinson_presentation(
        load_datum(corpus_dir() / "d8_s4.datum").datum)
    return [c4, d8_s4]


@pytest.mark.parametrize("model", _models(), ids=["hnn_c4", "d8_s4"])
def test_reduce_hnn_is_the_canonical_reduce(model):
    rng = random.Random(11)
    for _ in range(200):
        w = models.random_word(model, rng, 12)
        assert (models._reduce_hnn(w, canonical=True).letters
                == models._reduce(w, canonical=True).letters)


@pytest.mark.parametrize("model", _models(), ids=["hnn_c4", "d8_s4"])
def test_parse_word_reads_the_bench_word_text(model):
    word_text = _load("inputs").word_text
    rng = random.Random(12)
    for _ in range(200):
        w = models.random_word(model, rng, 12)
        text = word_text([(model.generators[g], e) for g, e in w.letters])
        assert parse_word(model, text).letters == w.letters


@pytest.mark.parametrize("path", [corpus_dir() / "v4_gl2.fus",
                                  GOLDEN / "c3e2_q8.fus"],
                         ids=["v4_gl2", "c3e2_q8"])
def test_render_stable_is_the_cli_basis_block(path):
    # the stable-series answers are rendered from fam.sites and
    # fam.components[key].describe(), as `stable basis` prints them
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["stable", "basis", "--fusion", str(path),
                     "--max-degree", "6"]) == 0
    blocks = stdout.getvalue().split("\ndegree ")[1:]
    blocks[-1] = blocks[-1].rsplit("\nstatus: ", 1)[0]
    assert len(blocks) == 7
    render_stable = _load("workloads").render_stable
    F = load_fusion_spec(path).fusion()
    for d, block in enumerate(blocks):
        assert render_stable(d, stable_basis(F, d)) == f"degree {block}"


def test_every_workload_answers_right_on_one_pass(tmp_path):
    # one pass of each workload against perfbench/reference.json: the whole
    # fusion-ladder list and the short lists of the other three; stable-series
    # twice, as every pass after the first reads the answers each system's
    # Limit keeps, and those are the passes the benchmark times
    inputs, workloads = _load("inputs"), _load("workloads")
    inp = inputs.Inputs(tmp_path, 0)
    ref = workloads.Reference()
    for name, cls in sorted(workloads.WORKLOADS.items()):
        workload = cls(inp, random.Random(name), ref,
                       small=name != "fusion-ladder")
        tasks = workload.tasks(workload.setup())
        assert tasks, name
        for _ in range(2 if name == "stable-series" else 1):
            workload.begin_pass()
            failures = [task.check(task.run()) for task in tasks]
            failures += workload.pass_failures()
            assert [line for line in failures if line] == [], name
