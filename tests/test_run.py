"""One Run memoizes a whole verify, and no memo outlives its Run."""

import gc
import importlib
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from greencorr import cli
from greencorr.catalog import symmetric
from greencorr.decompose import Run, decompose
from greencorr.linalg import rref
from greencorr.modules import regular_module

D = importlib.import_module("greencorr.decompose")
GREEN = importlib.import_module("greencorr.green")
ROOT = Path(__file__).resolve().parents[1]


def scenario(path: str):
    return cli.Config.from_file(str(ROOT / path)).scenario()


# (config, decompositions computed, vertices computed) in one verify, as the
# process-global caches that Run replaced counted them
VERIFY_WORK = [
    ("perfbench/configs/d8_v4_c2.json", 14, 7),
    ("configs/s4_d8_d8.json", 34, 21),
]


@pytest.mark.parametrize("path, decompositions, vertices", VERIFY_WORK)
def test_one_run_computes_each_fingerprint_once(path, decompositions, vertices,
                                                monkeypatch):
    computed = {"decompose": Counter(), "vertex": Counter()}
    for name, table in (("decompose", "decompositions"),
                        ("vertex", "vertices")):
        original = getattr(D, name)

        def counting(M, run=None, original=original, name=name, table=table):
            key = M.fingerprint()
            if run is None or key not in getattr(run, table):
                computed[name][key] += 1
            return original(M, run)

        for namespace in (D, GREEN):
            monkeypatch.setattr(namespace, name, counting)
    report = GREEN.verify_scenario(scenario(path), Run())
    assert report.all_pass
    assert max(computed["decompose"].values()) == 1
    assert max(computed["vertex"].values()) == 1
    assert sum(computed["decompose"].values()) == decompositions
    assert sum(computed["vertex"].values()) == vertices


def test_calls_without_a_run_share_nothing():
    M = regular_module(symmetric(3), 2)
    run = Run()
    assert decompose(M, run) is decompose(M, run)
    assert decompose(M) is not decompose(M)
    assert decompose(M, Run()) is not decompose(M, run)


def test_a_dropped_run_is_freed_without_the_cycle_collector():
    # a reference cycle through decompose's state would keep every table of
    # a Run alive until a collection; on mackey_odd_p that raised peak RSS
    M = regular_module(symmetric(3), 2)
    gc.disable()
    try:
        run = Run()
        dec = decompose(M, run)
        assert len(dec.pieces) > 1
        alive = weakref.ref(run)
        del run
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("span, ideal", [("identity", False), ("end", True)])
def test_factoring_is_ideal_verdict(span, ideal, monkeypatch):
    # on s4_d8_c4 the first eligible H-module has a 2-dim End; the span of
    # the identity is not closed under composition with it, all of End is
    original = GREEN.factoring_subspace

    def replaced(M, N, family, homs):
        if M is not N:
            return original(M, N, family, homs)
        rows = ([np.eye(M.dim, dtype=np.int64)] if span == "identity"
                else homs)
        return rref(np.stack([f.ravel() for f in rows]), M.p)

    monkeypatch.setattr(GREEN, "factoring_subspace", replaced)
    report = GREEN.verify_scenario(scenario("configs/s4_d8_c4.json"), Run())
    assert report.verdicts["factoring_is_ideal"] is ideal


def test_factoring_is_ideal_checks_nonzero_subspaces(monkeypatch):
    # on d8_v4_c2 an eligible G-module has a nonzero X-factoring subspace of
    # its End, so the closure test runs on it, and finds an ideal
    sizes = []
    original = GREEN._is_two_sided_ideal

    def recording(R, piv, ends, p):
        sizes.append(len(R))
        return original(R, piv, ends, p)

    monkeypatch.setattr(GREEN, "_is_two_sided_ideal", recording)
    sc = scenario("perfbench/configs/d8_v4_c2.json")
    report = GREEN.verify_scenario(sc, Run())
    assert report.verdicts["factoring_is_ideal"] is True
    assert sizes and min(sizes) > 0
