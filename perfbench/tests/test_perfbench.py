"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Run from the root of a checkout.  The corrupted-reference tests run one
whole benchmark job per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=240)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the contract of BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_names_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        bench_run.END_TO_END_UNITS
    per_layer = dict(tracer.metric_units(), **{"trace.job_s": "s"})
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify_d8_p2", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------


def corrupt_reference(src: Path, dst: Path) -> None:
    """A copy of the reference in which every recorded output is wrong."""
    dst.mkdir()
    for name in wl.VERIFY_REPORTS:
        (dst / name).write_bytes((src / name).read_bytes() + b" ")
    mackey = json.loads((src / "mackey.json").read_text())
    for chain in mackey["chains"]:
        for mod in chain["modules"]:
            mod["classes"][0][1] += 1
    (dst / "mackey.json").write_text(json.dumps(mackey))
    groupoid = json.loads((src / "groupoid.json").read_text())
    for sigs in groupoid["bridge"].values():
        for sig in sigs:
            sig[2] = [order + 1 for order in sig[2]]
    for chain in groupoid["chains"].values():
        for key, sig in chain.items():
            chain[key] = sig[:-1] + [sig[-1] + 1]
    (dst / "groupoid.json").write_text(json.dumps(groupoid))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_corrupted_reference_fails_every_operation(workload, tmp_path):
    # a copy of the benchmark checks against the reference beside it
    bench = tmp_path / "perfbench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns(
        "__pycache__", "reference"))
    corrupt_reference(BENCH / "reference", bench / "reference")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]  # fail_share is 1
    assert result["metrics"]["ok_share"]["value"] == 0


def test_seeded_inputs_keep_their_invariants():
    rng = np.random.default_rng(5)
    for p in (3, 5):
        P, P_inv = wl.random_monomial(9, p, rng)
        assert ((P @ P_inv) % p == np.eye(9, dtype=np.int64)).all()
    sigma = rng.permutation(4)
    a, b = (1, 2, 3, 0), (2, 1, 0, 3)
    ab = tuple(a[b[i]] for i in range(4))
    ra, rb = wl.relabel(a, sigma), wl.relabel(b, sigma)
    assert wl.relabel(ab, sigma) == tuple(ra[rb[i]] for i in range(4))


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    import importlib

    for layer in tracer.TARGETS:
        importlib.import_module(f"greencorr.{layer}")
    t = tracer.Tracer()
    t.install()
    try:
        assert t.unwrapped_bindings() == []
        wrapped = t.wrapped_bindings()
        for key in tracer.KEYS:
            assert f"greencorr.{key}" in wrapped, key
        # functions imported by name are rebound too
        assert "greencorr.decompose.rref" in wrapped
        assert "greencorr.decompose" in {b.rsplit(".", 1)[0] for b in wrapped}
    finally:
        t.remove()
    assert t.wrapped_bindings() == []
    for key, orig in t.originals.items():
        layer, fn = key.split(".")
        assert getattr(importlib.import_module(f"greencorr.{layer}"), fn) is orig


VERIFY_ONCE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import json
from greencorr import cli
from tracer import Tracer
t = Tracer()
if sys.argv[3] == "1":
    t.install()
rc = cli.run(["verify", "--scenario", sys.argv[4], "--out", sys.argv[5]])
t.remove()
print(json.dumps({"rc": rc, "metrics": t.metrics()}))
"""


def test_traced_verify_writes_the_same_report(tmp_path):
    results = {}
    for trace in ("0", "1"):
        out = tmp_path / f"trace{trace}"
        proc = subprocess.run(
            [sys.executable, "-c", VERIFY_ONCE, str(BENCH), str(ROOT / "src"),
             trace, str(ROOT / "configs" / "s3_c2_c2.json"), str(out)],
            capture_output=True, text=True, timeout=120, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        results[trace] = last_json(proc.stdout)
        assert results[trace]["rc"] == 0
    assert (tmp_path / "trace0" / "verify.json").read_bytes() == \
        (tmp_path / "trace1" / "verify.json").read_bytes()
    untraced, traced = results["0"]["metrics"], results["1"]["metrics"]
    assert untraced["cli.run.calls"] == 0
    assert traced["cli.run.calls"] == 1
    assert traced["green.verify_scenario.calls"] == 1
    assert traced["linalg.rref.calls"] > 0 and traced["linalg.rref.cells"] > 0
    assert traced["cli.report_bytes"] > 0
    assert traced["linalg.self_s"] > 0
