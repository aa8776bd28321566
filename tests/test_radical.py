"""The Jacobson radical of End(M) and the leaf certificates read from it.

The radical is checked against the exhaustive nonunit enumeration of
``oracles.brute_radical`` where p^m <= 2 * 10^5 (m = dim End M); beyond
that it is checked to be a nilpotent two-sided ideal.  Modules with d < p
exercise the trace form alone, modules with d >= p the levels i >= 1.
"""

import importlib
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greencorr import cli
from greencorr.catalog import alternating, cyclic, symmetric
from greencorr.decompose import Run, decompose, end_info
from greencorr.linalg import mat_inv, mat_pow, rank
from greencorr.modules import (
    FpModule,
    _default_pool,
    direct_sum,
    hom_space,
    random_module,
    regular_module,
)
from greencorr.permgroups import PermGroup

from oracles import brute_isomorphic, brute_radical, rank_mod, rref_mod

D = importlib.import_module("greencorr.decompose")
GREEN = importlib.import_module("greencorr.green")
ROOT = Path(__file__).resolve().parents[1]

BRUTE_LIMIT = 200_000

# groups with p | |G| (a nonzero radical) and without (a semisimple End)
GROUPS = {2: (cyclic(2), cyclic(4), symmetric(3), alternating(4)),
          3: (cyclic(3), symmetric(3), alternating(4)),
          5: (cyclic(5), symmetric(3)),
          7: (cyclic(7), symmetric(3))}
# random_module's default pool of each group, built once
POOLS = {p: [_default_pool(G, p) for G in groups] for p, groups in GROUPS.items()}


def in_random_basis(M: FpModule, rng: np.random.Generator) -> FpModule:
    p, d = M.p, M.dim
    P = rng.integers(0, p, size=(d, d))
    while rank_mod(P, p) < d:
        P = rng.integers(0, p, size=(d, d))
    Pi = mat_inv(P, p)
    return FpModule(M.group, p, [(Pi @ A @ P) % p for A in M.action],
                    name=f"{M.name}^P")


def sample_module(p: int, seed: int, double: bool, small: bool) -> FpModule:
    """A random module, doubled (M ⊕ M, so End has a matrix-algebra block)
    when asked, in a random basis; of dim < p when small, else of dim >= p."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(len(GROUPS[p])))
    G, pool = GROUPS[p][k], POOLS[p][k]
    cap = p - 1 if small else 6
    if small and double:
        cap //= 2
    M = random_module(G, p, cap, rng, pool)
    if double:
        M = direct_sum(M, M)
    while not small and M.dim < p:
        M = direct_sum(M, random_module(G, p, cap, rng, pool))
    return in_random_basis(M, rng)


def radical_of(M: FpModule):
    ends = hom_space(M, M)
    alg = D._EndAlgebra(ends, M.p)
    mult = alg.structure_constants()
    J, _ = D._radical(alg, mult)
    return ends, mult, J


def assert_nilpotent_ideal(mult: np.ndarray, J: np.ndarray, p: int, d: int):
    m = mult.shape[0]
    for prods in (np.einsum("ja,abk->jbk", J, mult),    # J E
                  np.einsum("ja,bak->jbk", J, mult)):   # E J
        stacked = np.concatenate([J, prods.reshape(-1, m) % p])
        assert len(rref_mod(stacked, p)[0]) == len(J)
    power = J
    for _ in range(d):
        if not len(power):
            break
        prods = np.einsum("sa,tb,abk->stk", power, J, mult).reshape(-1, m)
        power = rref_mod(prods % p, p)[0]
    assert not len(power)


def semisimple_dim(M: FpModule) -> int:
    """dim End(M)/J by Wedderburn: the sum of n^2 f over the summand classes,
    n the multiplicity (classes matched by brute_isomorphic) and f the
    residue degree of the local End of the class (from brute_radical)."""
    p = M.p
    classes: list[list] = []
    for piece in decompose(M).pieces:
        for cls in classes:
            if cls[0].dim == piece.dim and \
                    brute_isomorphic(cls[0].action, piece.action, p):
                cls[1] += 1
                break
        else:
            classes.append([piece, 1])
    total = 0
    for rep, n in classes:
        ends = hom_space(rep, rep)
        J = brute_radical(ends, p)
        assert J is not None, "a summand with a non-local End"
        total += n * n * (len(ends) - len(J))
    return total


def check_radical(M: FpModule) -> None:
    p = M.p
    ends, mult, J = radical_of(M)
    assert_nilpotent_ideal(mult, J, p, M.dim)
    if p ** len(ends) > BRUTE_LIMIT:
        return
    info = D._analyze_end(ends, p, M.dim)
    brute = brute_radical(ends, p, BRUTE_LIMIT)
    assert info.local == (brute is not None)
    if info.local:
        flat = np.stack([e.ravel() for e in ends])
        assert np.array_equal(rref_mod((J @ flat) % p, p)[0], brute)
        assert info.radical_dim == len(J) == len(brute)
    else:
        assert len(ends) - len(J) == semisimple_dim(M)


@pytest.mark.parametrize("p", [3, 5, 7])
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), double=st.booleans())
def test_radical_by_trace_form_when_dim_below_p(p, seed, double):
    M = sample_module(p, seed, double, small=True)
    assert M.dim < p
    check_radical(M)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), double=st.booleans())
def test_radical_by_higher_levels_when_dim_at_least_p(p, seed, double):
    M = sample_module(p, seed, double, small=False)
    assert M.dim >= p
    check_radical(M)


# ---------------------------------------------------------------------------
# E/J = M_2(GF(p)): the noncommutative-quotient split
# ---------------------------------------------------------------------------

# A leaf of Res_H Ind_H^A5 M for a pool module M of the mackey_odd_p
# benchmark (chain a5_a4_p3, benchmark seed 1): two copies of the 3-dim
# absolutely irreducible kA4-module at p = 3, so End = M_2(GF(3)).  No basis
# endomorphism b and no shift b - c·1 is a Fitting splitter.
A4_GENERATORS = [(0, 2, 3, 1, 4), (1, 0, 3, 2, 4)]
A4_TWO_COPIES = [
    [[0, 1, 0, 0, 0, 2], [0, 2, 1, 1, 1, 1], [2, 2, 0, 1, 1, 0],
     [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 2, 1, 0, 1, 1]],
    [[0, 1, 2, 2, 2, 2], [2, 2, 0, 1, 1, 0], [0, 2, 0, 0, 0, 1],
     [2, 0, 0, 0, 1, 0], [0, 1, 2, 0, 2, 2], [2, 2, 1, 1, 1, 0]],
]


def a4_two_copies() -> FpModule:
    G = PermGroup(5, A4_GENERATORS)
    return FpModule(G, 3, [np.array(a, dtype=np.int64) for a in A4_TWO_COPIES],
                    name="V+V")


def two_copies_of_simple(p: int, seed: int) -> FpModule:
    """V ⊕ V in a random basis, V the 2-dim absolutely irreducible kS3."""
    V = next(mod for mod, mult in decompose(regular_module(symmetric(3), p)).summands
             if mod.dim == 2 and mult == 2)
    return in_random_basis(direct_sum(V, V), np.random.default_rng(seed))


def fitting_splits(f: np.ndarray, p: int) -> bool:
    d = f.shape[0]
    return 0 < rank(mat_pow(f, 2 * d, p), p) < d


def test_no_basis_element_or_shift_splits_the_a4_leaf():
    M = a4_two_copies()
    eye = np.eye(M.dim, dtype=np.int64)
    ends = hom_space(M, M)
    assert len(ends) == 4
    assert not any(fitting_splits((b - c * eye) % 3, 3)
                   for b in ends for c in range(3))


@pytest.mark.parametrize("make", [
    a4_two_copies,
    lambda: two_copies_of_simple(2, 11),
    lambda: two_copies_of_simple(5, 12),
])
def test_matrix_algebra_quotient_splits_into_two_isomorphic_summands(make):
    M = make()
    p = M.p
    ends = hom_space(M, M)
    info = D._analyze_end(ends, p, M.dim)
    assert len(ends) == 4 and not info.local and info.radical_dim == 0
    assert fitting_splits(info.splitter, p)
    dec = decompose(M)
    assert [mult for _, mult in dec.summands] == [2]
    assert [(c.end_dim, c.radical_dim, c.residue_degree)
            for c in dec.certificates] == [(1, 0, 1)]
    # the change of basis block-diagonalizes M into the two pieces
    P = dec.change_of_basis
    Pi = mat_inv(P, p)
    a, b = dec.pieces
    k = a.dim
    for A, Aa, Ab in zip(M.action, a.action, b.action):
        conj = (Pi @ A @ P) % p
        assert (conj[:k, :k] == Aa).all() and (conj[k:, k:] == Ab).all()
        assert not conj[:k, k:].any() and not conj[k:, :k].any()
    assert brute_isomorphic(a.action, b.action, p)


def test_span_vectors_come_lazily_in_product_order():
    for p, span in ((2, 3), (3, 2), (5, 3)):
        assert [tuple(x) for x in D._lex_vectors(p, span)] == list(
            itertools.product(range(p), repeat=span))


def test_matrix_units_split_at_a_prime_near_the_product_bound():
    # M_2(GF(p)) on its matrix units at p = 67108859 < 2^26, where
    # 2 * (p - 1)^2 < 2^53 still holds: the Chevalley-Warning span is
    # walked without building range(p) as a tuple (about 2 GB here)
    p = 67108859
    units = [np.zeros((2, 2), dtype=np.int64) for _ in range(4)]
    for k, unit in enumerate(units):
        unit[k // 2, k % 2] = 1
    tracemalloc.start()
    try:
        info = D._analyze_end(units, p, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not info.local and info.radical_dim == 0
    assert fitting_splits(info.splitter, p)
    assert peak < 2**20


def test_split_is_identical_for_every_seed():
    M = a4_two_copies()
    # a fresh Run each time, so each decomposes from scratch
    bases = [decompose(M, Run()).change_of_basis for _ in range(5)]
    assert all(np.array_equal(bases[0], other) for other in bases[1:])


# ---------------------------------------------------------------------------
# certificates are kept and unchanged
# ---------------------------------------------------------------------------


def test_end_info_of_summands_needs_no_hom_space(monkeypatch):
    rng = np.random.default_rng(17)
    G = alternating(4)
    M = direct_sum(random_module(G, 2, 6, rng), regular_module(G, 2))
    run = Run()
    dec = decompose(M, run)
    calls = []
    monkeypatch.setattr(D, "hom_space",
                        lambda *args: calls.append(args) or hom_space(*args))
    for mod in [mod for mod, _ in dec.summands] + dec.pieces:
        assert end_info(mod, run).local
    assert calls == []


# summand rows (dim, multiplicity, end_dim, radical_dim, residue_degree) of
# every decomposition made by `green verify` on each config, recorded with
# the budgeted Fitting search and unit enumeration that the radical replaced.
# A verify no longer looks for sources, so the rows that only the
# decompositions of Res_Q M made (Q a vertex) are gone: 1 each on s3_c2_c2
# and degenerate_s3, 4 each on s4_d8_c4 and s4_d8_d8, and 7 on a5_a4_v4
RECORDED_CERTIFICATES = {
    "s3_c2_c2": [[1, 1, 1, 0, 1], [2, 1, 1, 0, 1], [2, 1, 2, 1, 1],
                 [2, 2, 1, 0, 1]],
    "degenerate_s3": [[1, 1, 1, 0, 1], [2, 1, 1, 0, 1], [2, 1, 2, 1, 1],
                      [2, 2, 1, 0, 1]],
    "s4_d8_c4": [[1, 1, 1, 0, 1], [2, 1, 2, 1, 1], [4, 1, 3, 2, 1],
                 [4, 1, 4, 3, 1], [4, 2, 3, 2, 1], [6, 1, 3, 2, 1],
                 [8, 1, 4, 3, 1], [8, 1, 8, 7, 1], [8, 2, 3, 2, 1],
                 [12, 1, 8, 7, 1]],
    "s4_d8_d8": [[1, 1, 1, 0, 1], [2, 1, 1, 0, 1], [2, 1, 2, 1, 1],
                 [2, 2, 1, 0, 1], [4, 1, 2, 1, 1], [4, 1, 3, 2, 1],
                 [4, 1, 4, 3, 1], [6, 1, 3, 2, 1], [8, 1, 3, 2, 1],
                 [8, 1, 4, 3, 1], [8, 1, 8, 7, 1], [8, 2, 3, 2, 1],
                 [12, 1, 8, 7, 1]],
    "a5_a4_v4": [[1, 1, 1, 0, 1], [2, 1, 2, 0, 2], [2, 1, 2, 1, 1],
                 [4, 1, 1, 0, 1], [4, 1, 2, 1, 1], [4, 1, 4, 3, 1],
                 [4, 2, 1, 0, 1], [4, 4, 1, 0, 1], [6, 1, 2, 1, 1],
                 [6, 1, 4, 3, 1], [8, 1, 6, 4, 2], [10, 1, 4, 2, 2],
                 [12, 1, 4, 3, 1], [16, 1, 6, 4, 2], [16, 2, 6, 4, 2]],
}


@pytest.mark.parametrize("name", sorted(RECORDED_CERTIFICATES))
def test_config_certificates_match_recorded(name, monkeypatch, tmp_path):
    rows = set()
    original = D.decompose

    def recording(M, run=None):
        dec = original(M, run)
        rows.update((mod.dim, mult, c.end_dim, c.radical_dim, c.residue_degree)
                    for (mod, mult), c in zip(dec.summands, dec.certificates))
        return dec

    for namespace in (D, GREEN, cli):
        monkeypatch.setattr(namespace, "decompose", recording)
    config = ROOT / "configs" / f"{name}.json"
    assert cli.run(["verify", "--scenario", str(config),
                    "--out", str(tmp_path)]) == 0
    assert sorted(rows) == sorted(map(tuple, RECORDED_CERTIFICATES[name]))


@pytest.mark.parametrize("seed", [0, 1])
def test_mackey_pool_certificates_match_reference(seed, monkeypatch):
    bench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    wl = importlib.import_module("workloads")
    ref = wl.load_reference(bench / "reference", "mackey_odd_p")
    outcome = wl.mackey_run(wl.mackey_setup(seed, ref), ref)
    assert outcome.attempted > 0 and outcome.failed == 0, outcome.errors
