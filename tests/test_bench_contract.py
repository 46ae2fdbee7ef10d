"""What perfbench/ reads of the library: the functions its tracer wraps and
the reduce entry point its smoke check calls.  A rename here would
otherwise show only as the benchmark's smoke check stopping early."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from fusionwb import models
from fusionwb.catalog import cyclic
from fusionwb.corpus import corpus_dir
from fusionwb.groups import InjHom, Subgroup, full_subgroup
from fusionwb.io import load_datum

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


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
