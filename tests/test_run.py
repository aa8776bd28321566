"""One Run memoizes a whole verify, and no memo outlives its Run."""

import gc
import importlib
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from greencorr import cli
from greencorr.catalog import alternating, cyclic, scenario_chains, symmetric
from greencorr.decompose import Run, decompose
from greencorr.linalg import rref
from greencorr.modules import (
    FpModule, hom_space, induce, permutation_module, regular_module,
    submodule_from_vectors)
from greencorr.permgroups import (
    all_subgroups, class_representatives, p_part, p_subgroups_up_to_conjugacy,
    sylow, trivial_subgroup)

from oracles import (
    galois_regular_classes,
    module_catalog_all_inductions,
    vertex_by_subgroup_descent,
)

D = importlib.import_module("greencorr.decompose")
GREEN = importlib.import_module("greencorr.green")
ROOT = Path(__file__).resolve().parents[1]


def scenario(path: str):
    """The scenario of a config file, or of a chain of CHAINS."""
    if path in CHAINS:
        p, degree, gens_g, gens_h, gens_d = CHAINS[path]
        return cli.Config.from_dict({
            "p": p, "degree": degree, "generators_G": gens_g,
            "generators_H": gens_h, "generators_D": gens_d}).scenario()
    return cli.Config.from_file(str(ROOT / path)).scenario()


# (config, decompositions computed, vertices computed) in one verify.  The
# process-global caches that Run replaced counted 14 and 34 decompositions:
# module_catalog no longer decomposes Ind_D s for a projective kD-module s
# (12 and 33), and vertex no longer decomposes Res_Q M to find a source
VERIFY_WORK = [
    ("perfbench/configs/d8_v4_c2.json", 7, 7),
    ("configs/s4_d8_d8.json", 19, 21),
]
# (config, Higman traces that is_relatively_projective computes) in one
# verify.  Higman's criterion alone took 30, 104 and 63: Green's vertex theory
# now settles a test without a trace when |G:X|_p does not divide dim M or
# the module's vertex is known, and vertex tests the trivial subgroup first.
# The catalog no longer tests which kD-modules are projective before it
# induces them, which took 8 and 33 traces.  It finds each class's vertex
# before its D-object test, so that where H = G, with no X-object test to
# find it, neither that test nor the correspondent's repeats a trace: on
# s3_s3_c2 the vertex found last made 22 traces, some twice
HIGMAN_TRACES = {
    "perfbench/configs/d8_v4_c2.json": 7,
    "configs/s4_d8_d8.json": 49,
    "configs/a5_a4_v4.json": 30,
    "configs/s3_s3_c2.json": 10,
}


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


# (config, correspondence pairs in one verify)
PAIRS = [
    ("configs/s4_d8_d8.json", 4),
    ("configs/a5_a4_v4.json", 3),
    ("perfbench/configs/d8_v4_c2.json", 1),
]


# Ind_H^G n is built once per pair.  The fully-faithful table and the
# up-correspondent each built their own, 8, 6 and 2 in all
@pytest.mark.parametrize("path, pairs", PAIRS, ids=[path for path, _ in PAIRS])
def test_one_verify_induces_each_eligible_module_once(path, pairs,
                                                      monkeypatch):
    sc = scenario(path)
    induced = []
    original = GREEN.induce

    def counting(M, emb):
        if emb is sc.H:
            induced.append(M.fingerprint())
        return original(M, emb)

    monkeypatch.setattr(GREEN, "induce", counting)
    report = GREEN.verify_scenario(sc, Run())
    assert report.all_pass
    assert len(report.correspondence_pairs) == pairs
    assert len(induced) == len(set(induced)) == pairs


# Res_H m is built once per pair.  The down-correspondent and the retract
# test n | Res_H m each built their own, 8, 6 and 2 in all
@pytest.mark.parametrize("path, pairs", PAIRS, ids=[path for path, _ in PAIRS])
def test_one_verify_restricts_each_correspondent_once(path, pairs,
                                                      monkeypatch):
    restricted = []
    original = GREEN.restrict

    def counting(M, emb, name=""):
        restricted.append(M.fingerprint())
        return original(M, emb, name)

    monkeypatch.setattr(GREEN, "restrict", counting)
    report = GREEN.verify_scenario(scenario(path), Run())
    assert report.all_pass
    assert len(report.correspondence_pairs) == pairs
    assert len(restricted) == len(set(restricted)) == pairs


# (End solves in decompose, largest module dim solved) in one mackey_odd_p
# job (seed 0).  Solving End of the whole module before cutting it into its
# support components made 20 solves, four of them on dims 40 to 60; solving
# it on every component, repeats included, made 51, and on every component
# with distinct actions, 38
MACKEY_WORK = (28, 24)
# Hom solves between a component and one split before it in the same
# decompose call; each finds an isomorphism, which saves an End solve
MACKEY_COMPARISONS = 10


def test_mackey_job_solves_no_end_of_a_whole_mackey_side(monkeypatch):
    solved, compared = [], []
    from_actions, first_invertible = (D.hom_space_from_actions,
                                      D._first_invertible)

    def counting(action_m, dim_m, action_n, dim_n, p):
        # decompose is its only caller in decompose.py, on the same actions
        solved.append(dim_m)
        return from_actions(action_m, dim_m, action_n, dim_n, p)

    def recording(homs, p):
        phi = first_invertible(homs, p)
        if sys._getframe(1).f_code.co_name == "_carried_split":
            compared.append(phi is not None)
        return phi

    monkeypatch.setattr(D, "hom_space_from_actions", counting)
    monkeypatch.setattr(D, "_first_invertible", recording)
    bench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    wl = importlib.import_module("workloads")
    ref = wl.load_reference(bench / "reference", "mackey_odd_p")
    outcome = wl.mackey_run(wl.mackey_setup(0, ref), ref)
    assert outcome.attempted > 0 and outcome.failed == 0, outcome.errors
    assert max(solved) < 40
    assert (len(solved), max(solved)) == MACKEY_WORK
    assert compared == [True] * MACKEY_COMPARISONS


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


def test_an_unmatched_g_class_fails_the_bijection(monkeypatch):
    # on s4_d8_d8, flag one G-side X-object non-X: it becomes an eligible
    # class that no correspondent_up reaches, so the map is not onto
    original = GREEN.module_catalog

    def flagging(sc, side, run=None):
        rows = original(sc, side, run)
        if side == "G":
            k = next(k for k, (_, d_obj, x_obj) in enumerate(rows)
                     if d_obj and x_obj)
            rows[k] = (rows[k][0], True, False)
        return rows

    sc = scenario("configs/s4_d8_d8.json")
    assert GREEN.verify_scenario(sc, Run()).verdicts["bijection_round_trip"]
    monkeypatch.setattr(GREEN, "module_catalog", flagging)
    report = GREEN.verify_scenario(sc, Run())
    assert report.verdicts["bijection_round_trip"] is False
    assert all(pair["m"].startswith("G:") and "?" not in pair["m"]
               for pair in report.correspondence_pairs)


def test_a_correspondent_outside_the_catalog_fails_the_bijection(monkeypatch):
    # on s4_d8_c4 (D = C4, H = D8), send the first eligible H-module to the
    # correspondent of Ind_D^H U, U the 3-dim uniserial kC4-module: by Green's
    # indecomposability theorem an eligible H-module outside the catalog, so
    # its correspondent has source U and is no eligible G class
    sc = scenario("configs/s4_d8_c4.json")
    kC4 = regular_module(sc.D.group, sc.p)
    e = np.eye(kC4.dim, dtype=np.int64)
    # (1 + x) kC4 is the radical of kC4 for x of order 4
    U = next(U for x in e for U in [
        submodule_from_vectors(kC4, [e[sc.D.group.identity] + x])]
        if U.dim == 3)
    stranger = induce(U, sc.d_in_h)
    original = GREEN.induce
    swapped = []

    def swapping(M, emb):
        # the correspondence induces each eligible H-module once, the
        # first of them first
        if emb is sc.H and not swapped:
            swapped.append(M)
            M = stranger
        return original(M, emb)

    monkeypatch.setattr(GREEN, "induce", swapping)
    report = GREEN.verify_scenario(sc, Run())
    pair = report.correspondence_pairs[0]
    assert pair["m"] == f"G:d{pair['dim_m']}?"
    assert pair["round_trip"] is False
    assert report.verdicts["bijection_round_trip"] is False
    assert all("?" not in other["m"]
               for other in report.correspondence_pairs[1:])


CONFIGS = ["configs/s3_c2_c2.json", "configs/degenerate_s3.json",
           "configs/s4_d8_c4.json", "configs/s4_d8_d8.json",
           "configs/a5_a4_v4.json", "perfbench/configs/d8_v4_c2.json",
           "configs/s4_s3_s3_p3.json", "configs/s3_s3_c2.json"]
# chains as (p, degree, generators of G, of H, of D).  D is not a p-group,
# so kD has several projective indecomposables and kX is the sum of their
# inductions; in the last, H = G, so the X family is empty and the
# projective classes are eligible
CHAINS = {
    "S4>=S3>=S3, p=2": (2, 4, ["(0 1)", "(0 1 2 3)"], ["(0 1)", "(0 1 2)"],
                        ["(0 1)", "(0 1 2)"]),
    "A5>=D10>=D10, p=2": (2, 5, ["(0 1 2 3 4)", "(2 3 4)"],
                          ["(0 1 2 3 4)", "(1 4)(2 3)"],
                          ["(0 1 2 3 4)", "(1 4)(2 3)"]),
    "S4>=S4>=S3, p=3": (3, 4, ["(0 1)", "(0 1 2 3)"], ["(0 1)", "(0 1 2 3)"],
                        ["(0 1)", "(0 1 2)"]),
}


def former_places(sc, side, catalog):
    """For each row of the catalog, the row of the former catalog, which
    also decomposed kX, that holds its class; the former rows are
    ``module_catalog_all_inductions``'s."""
    old = module_catalog_all_inductions(sc, side, Run())
    assert [(m.dim, d, x) for m, d, x in catalog] == \
        [(m.dim, d, x) for m, d, x in old]
    place = [[k for k, (mod, _, _) in enumerate(old)
              if D._iso_indec(new, mod)] for new, _, _ in catalog]
    assert sorted(place) == [[k] for k in range(len(old))]
    return [k for k, in place]


@pytest.mark.parametrize("path", CONFIGS + list(CHAINS))
def test_run_tables_match_fresh_computations(path):
    sc = scenario(path)
    run = Run()
    assert GREEN.verify_scenario(sc, run).all_pass
    modules = {mod.fingerprint(): mod for dec in run.decompositions.values()
               for mod in dec.pieces}
    for side, X in (("H", sc.H.group), ("G", sc.G)):
        catalog = GREEN.module_catalog(sc, side, run)
        # the inductions of the kD family hold kX = Ind_D kD, so they find
        # the former catalog's classes with the same flags, and each class
        # that is not projective in the former's row.  The projective
        # classes of one dimension lead it in both, but in the order in
        # which the inductions meet them rather than kX's
        for k, ((new, _, _), at) in enumerate(
                zip(catalog, former_places(sc, side, catalog))):
            assert at == k or D.is_relatively_projective(
                new, trivial_subgroup(X))
        # the Higman verdict of each catalog module and p-subgroup class,
        # decided with the run's vertices, is what a call without a Run
        # decides
        classes = p_subgroups_up_to_conjugacy(X, sylow(X, sc.p))
        for mod, _, _ in catalog:
            modules[mod.fingerprint()] = mod
            for R in classes:
                assert D.is_relatively_projective(mod, R, run) == \
                    D.is_relatively_projective(mod, R)
    # each leaf keeps the End basis that hom_space returns, in an array of
    # its own rather than a view into its parent's blocks
    for mod in modules.values():
        ends = run.ends[mod.fingerprint()].ends
        assert all(e.base is ends[0].base for e in ends)
        assert ends[0].base.shape == (len(ends), mod.dim, mod.dim)
        fresh = hom_space(mod, mod)
        assert len(ends) == len(fresh)
        assert all((a == b).all() for a, b in zip(ends, fresh))


@pytest.mark.parametrize("path", ["configs/s4_s3_s3_p3.json",
                                  "configs/s3_s3_c2.json", "S4>=S4>=S3, p=3"])
def test_reports_match_the_former_catalog_up_to_names(path, monkeypatch):
    # the verify report is the former catalog's once each name is read as
    # the name of its class there.  Projective rows of one dimension can
    # trade names, and where H = G the X family is empty, so they are
    # eligible and the ff table and the pairs name them: on s3_s3_c2 the
    # 2-dimensional simple module and P(k) trade d2#1 and d2#2
    sc = scenario(path)
    rename = {}
    for side in ("H", "G"):
        catalog = GREEN.module_catalog(sc, side, Run())
        for k, ((mod, _, _), at) in enumerate(
                zip(catalog, former_places(sc, side, catalog))):
            rename[f"{side}:d{mod.dim}#{k}"] = f"{side}:d{mod.dim}#{at}"
    report = GREEN.verify_scenario(sc, Run()).to_dict()
    monkeypatch.setattr(GREEN, "module_catalog", module_catalog_all_inductions)
    former = GREEN.verify_scenario(sc, Run()).to_dict()

    def rows(doc, names):
        rows = [{key: names.get(value, value) if isinstance(value, str)
                 else value for key, value in row.items()} for row in doc]
        return sorted(rows, key=lambda row: sorted(row.items()))

    lists = ("indecomposables_H", "indecomposables_G",
             "correspondence_pairs", "ff_table")
    for key in lists:
        assert rows(report[key], rename) == rows(former[key], {})
    assert {k: v for k, v in report.items() if k not in lists} == \
        {k: v for k, v in former.items() if k not in lists}
    if path == "configs/s3_s3_c2.json":
        assert {new: old for new, old in rename.items() if new != old} == \
            {"H:d2#1": "H:d2#2", "H:d2#2": "H:d2#1",
             "G:d2#1": "G:d2#2", "G:d2#2": "G:d2#1"}


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIGS)
def test_one_verify_solves_each_end_and_higman_test_once(path, monkeypatch):
    # End solves: the solve of each support component in decompose and every
    # hom_space(M, M) of one module object, by fingerprint; Higman tests: the
    # trace images of End that is_relatively_projective computes, by module
    # and subgroup.  No table keeps a Higman verdict: vertex tests each class
    # once, and the vertex it keeps answers every later test
    ends, higman = Counter(), Counter()
    hom, from_actions = D.hom_space, D.hom_space_from_actions
    trace = D.relative_trace_image

    def counting_hom(M, N):
        if M is N:
            ends[M.fingerprint()] += 1
        return hom(M, N)

    def counting_from_actions(action, dim, *args):
        # decompose solves End of each distinct support component of the
        # module it was given, through _split_component, over its group
        group = sys._getframe(1).f_locals["group"]
        ends[FpModule(group, args[-1], action, check=False,
                      dim=dim).fingerprint()] += 1
        return from_actions(action, dim, *args)

    def counting_trace(M, N, emb, homs):
        if sys._getframe(1).f_code.co_name == "is_relatively_projective":
            higman[(M.fingerprint(), emb.element_indices)] += 1
        return trace(M, N, emb, homs)

    for namespace in (D, GREEN):
        monkeypatch.setattr(namespace, "hom_space", counting_hom)
    monkeypatch.setattr(D, "hom_space_from_actions", counting_from_actions)
    monkeypatch.setattr(D, "relative_trace_image", counting_trace)
    run = Run()
    sc = scenario(path)
    assert GREEN.verify_scenario(sc, run).all_pass
    # the Run keeps End bases of certified indecomposables only; the End of
    # a decomposable induced module is solved by decompose and again by the
    # quotient hom of the fully-faithful table
    leaves = {key for key, info in run.ends.items() if info.local}
    assert higman and max(higman.values()) == 1
    if path in HIGMAN_TRACES:
        assert sum(higman.values()) == HIGMAN_TRACES[path]
    # no shortcut skips the Sylow guard of vertex where the Sylow subgroup
    # is proper (on a5_a4_v4, for every module on both sides)
    guarded = [(key, P.element_indices) for key, Q in run.vertices.items()
               for P in [sylow(Q.ambient, sc.p)] if P.order < Q.ambient.order]
    assert all(test in higman for test in guarded)
    if "a5_a4_v4" in path:
        assert len(guarded) == len(run.vertices) > 0
    assert {key: n for key, n in ends.items() if key in leaves and n > 1} == {}


@pytest.mark.parametrize("p", [2, 5])
def test_vertex_runs_each_higman_test_once(p, monkeypatch):
    # no table keeps a Higman verdict, so vertex must not repeat a test: over
    # C6 at p = 5 the Sylow subgroup is trivial, and at p = 2 the simple
    # 2-dimensional module has vertex C2, below which lies only the trivial
    # subgroup, tested before the descent
    G = cyclic(6)
    traces = Counter()
    trace = D.relative_trace_image

    def counting(M, N, emb, homs):
        traces[(M.fingerprint(), emb.element_indices)] += 1
        return trace(M, N, emb, homs)

    monkeypatch.setattr(D, "relative_trace_image", counting)
    run = Run()
    for E in class_representatives(all_subgroups(G)):
        for mod, _ in decompose(permutation_module(G, E, p), run).summands:
            D.vertex(mod, run)
    assert traces and max(traces.values()) == 1


@pytest.mark.parametrize("chain", sorted(scenario_chains()) + CONFIGS
                         + ["configs/s5_s4_d8.json"])
def test_vertex_descends_through_one_class_list_per_group(chain, monkeypatch):
    # vertex lists the p-subgroup classes of G once, a Sylow subgroup
    # first, and keeps at each step those subconjugate to the current
    # subgroup; the former descent listed the subgroup classes of each
    # subgroup it visited.  Both find the same vertex with the same traces
    if chain in scenario_chains():
        sc = GREEN.Scenario.build(2, *scenario_chains()[chain], name=chain)
    else:
        sc = scenario(chain)
    traces = []
    trace = D.relative_trace_image

    def counting(M, N, emb, homs):
        traces.append(emb.order)
        return trace(M, N, emb, homs)

    monkeypatch.setattr(D, "relative_trace_image", counting)
    shared = Run()
    groups = set()
    for side in ("H", "G"):
        for mod, _, _ in GREEN.module_catalog(sc, side, Run()):
            traces.clear()
            new = D.vertex(mod, Run()).element_indices
            new_traces = sorted(traces)
            traces.clear()
            assert vertex_by_subgroup_descent(mod, Run()) == new
            assert sorted(traces) == new_traces
            D.vertex(mod, shared)
            groups.add(mod.group.fingerprint)
    assert set(shared.p_subgroups) == {(key, sc.p) for key in groups}
    for key, classes in shared.p_subgroups.items():
        G = next(X for X in (sc.H.group, sc.G) if X.fingerprint == key[0])
        assert classes[0].order == p_part(G.order, sc.p)


# ---------------------------------------------------------------------------
# each catalog holds every projective indecomposable, by the group alone
# ---------------------------------------------------------------------------


def solve_exactly(A, b):
    """x with A x = b over the rationals, for an invertible square A."""
    n = len(A)
    rows = [[Fraction(v) for v in row] + [Fraction(c)] for row, c in zip(A, b)]
    for c in range(n):
        k = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[k] = rows[k], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def check_projective_rows(X, p, pims, run):
    """The PIMs of kX are exactly ``pims``: one per simple module, so as
    many as galois_regular_classes counts, and their Hom dimensions satisfy
    the Cartan identities.  H_ij = dim Hom(P_i, P_j) is symmetric, since kX
    is a symmetric algebra; C_ij = H_ij / e_i = [P_j : S_i], e_i the residue
    degree of End(P_i) = dim End(S_i); dim S = (C^T)^-1 dim P, with e_i | dim
    S_i; and kX is the sum of dim S_i / e_i copies of each P_i."""
    assert len(pims) == galois_regular_classes(X, p)
    e = [D.end_info(P, run).residue_degree for P in pims]
    H = [[len(hom_space(P, Q)) for Q in pims] for P in pims]
    assert H == [list(col) for col in zip(*H)]
    assert all(h % e_i == 0 for row, e_i in zip(H, e) for h in row)
    C = [[h // e_i for h in row] for row, e_i in zip(H, e)]
    dim_s = solve_exactly([list(col) for col in zip(*C)],
                          [P.dim for P in pims])
    assert all(d.denominator == 1 and d > 0 and d % e_i == 0
               for d, e_i in zip(dim_s, e))
    assert sum(P.dim * d / e_i for P, d, e_i in zip(pims, dim_s, e)) == X.order


# (H, G) projective rows of each catalog; p = 2 on the scenario_chains()
PIM_COUNTS = {
    "a5_a4_v4": (2, 3), "s3_c2_c2": (1, 2), "s4_d8_c4": (1, 2),
    "s4_d8_d8": (1, 2),
    "configs/s3_c2_c2.json": (1, 2), "configs/degenerate_s3.json": (2, 2),
    "configs/s4_d8_c4.json": (1, 2), "configs/s4_d8_d8.json": (1, 2),
    "configs/a5_a4_v4.json": (2, 3), "perfbench/configs/d8_v4_c2.json": (1, 1),
    "configs/s4_s3_s3_p3.json": (2, 4), "configs/s3_s3_c2.json": (2, 2),
    "S4>=S3>=S3, p=2": (2, 2), "A5>=D10>=D10, p=2": (2, 3),
    "S4>=S4>=S3, p=3": (4, 4),
}


@pytest.mark.parametrize("chain", sorted(scenario_chains()) + CONFIGS
                         + list(CHAINS))
def test_each_catalog_holds_one_projective_row_per_simple_module(chain):
    if chain in scenario_chains():
        sc = GREEN.Scenario.build(2, *scenario_chains()[chain], name=chain)
    else:
        sc = scenario(chain)
    run = Run()
    counts = []
    for side in ("H", "G"):
        X = sc.side(side)[0]
        pims = [mod for mod, _, _ in GREEN.module_catalog(sc, side, run)
                if D.vertex(mod, run).order == 1]
        check_projective_rows(X, sc.p, pims, run)
        counts.append(len(pims))
    assert tuple(counts) == PIM_COUNTS[chain]


def test_simple_modules_are_counted_with_galois_fusion():
    # A4 has three classes of 2-regular elements, but its two non-trivial
    # one-dimensional modules over GF(4) make one simple module over GF(2)
    assert galois_regular_classes(alternating(4), 2) == 2
    assert galois_regular_classes(alternating(5), 3) == 3
    assert galois_regular_classes(symmetric(4), 3) == 4
