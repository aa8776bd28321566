"""Dual-route checks: every optimized computation against a naive route."""

import numpy as np

from greencorr.catalog import (
    alternating,
    chain_s3,
    chain_s4_d8_c4,
    cyclic,
    scenario_chains,
    symmetric,
)
from greencorr.decompose import decompose, relative_trace_image, _iso_indec
from greencorr.green import (
    Scenario,
    factoring_subspace,
    is_x_object,
    is_x_object_summand_check,
    quotient_hom_dim,
)
from greencorr.linalg import rref
from greencorr.modules import (
    counit_ind_res,
    direct_sum,
    hom_space,
    induce,
    permutation_module,
    random_module,
    regular_module,
    restrict,
    trivial_module,
)
from greencorr.permgroups import (
    all_subgroups,
    subgroup,
    trivial_subgroup,
    whole_group,
)

from oracles import kron_hom_basis, literal_trace_image, rref_mod


def test_hom_space_vs_kron_on_structured_modules():
    # block-permutation induced modules stress the seed-block bookkeeping
    for p in (2, 3):
        G = symmetric(4)
        D8 = subgroup(G, ["(0 1 2 3)", "(0 2)"])
        C3 = subgroup(G, ["(0 1 2)"])
        mods = [
            trivial_module(G, p),
            permutation_module(G, D8, p),
            permutation_module(G, C3, p),
            induce(trivial_module(D8.group, p), D8),
        ]
        for M in mods:
            for N in mods:
                ours = hom_space(M, N)
                oracle = kron_hom_basis(M.action, N.action, p)
                assert len(ours) == len(oracle), (p, M.name, N.name)


def test_trace_transitivity_matches_direct_sum():
    # Tr_1^G on A5 (index 60, the case once routed through a Sylow
    # subgroup) equals the literal sum over all cosets, here between the
    # permutation modules on A5/A4 and A5/S3
    from greencorr.catalog import a5

    G = a5()
    T = trivial_subgroup(G)
    A4 = subgroup(G, ["(0 1 2)", "(0 1)(2 3)"])
    S3 = subgroup(G, ["(0 1 2)", "(0 1)(3 4)"])
    M = permutation_module(G, A4, 2)
    N = permutation_module(G, S3, 2)
    R, piv = relative_trace_image(M, N, T)
    R_lit, piv_lit = literal_trace_image(M, N, T)
    assert 0 < len(R) < len(hom_space(M, N))
    assert R.shape == R_lit.shape
    assert (R == R_lit).all() and piv == piv_lit


def _subgroup_classes(G):
    reps = {}
    for S in all_subgroups(G):
        reps.setdefault(S.canonical_class_key(), S)
    return sorted(reps.values(), key=lambda S: (S.order, S.element_indices))


def _trace_cases():
    """(G, subgroups X to trace from, subgroups whose permutation modules
    seed the random modules)."""
    G = symmetric(4)
    classes = _subgroup_classes(G)
    yield G, classes, [S for S in classes if G.order // S.order <= 6]
    G = alternating(5)
    yield G, [trivial_subgroup(G)] + [subgroup(G, gens) for gens in (
        ["(0 1)(2 3)"], ["(0 1)(2 3)", "(0 2)(1 3)"], ["(0 1 2)"],
        ["(0 1 2 3 4)"])], [whole_group(G),
                            subgroup(G, ["(0 1 2)", "(0 1)(2 3)"]),
                            subgroup(G, ["(0 1 2 3 4)", "(1 4)(2 3)"])]


def test_relative_trace_image_matches_literal_trace():
    # every S4 subgroup class and 1, C2, V4, C3, C5 in A5 (indices up to 60),
    # in both directions between M and N = M + k[G/S], so dim M != dim N and
    # Hom_G(M, N) != 0
    rng = np.random.default_rng(23)
    proper = 0
    for G, family, bases in _trace_cases():
        for p in (2, 3, 5):
            pool = [permutation_module(G, S, p) for S in bases]
            for X in family:
                M = random_module(G, p, 6, rng, pool)
                N = direct_sum(M, pool[int(rng.integers(len(pool)))])
                for A, B in ((M, N), (N, M)):
                    R, piv = relative_trace_image(A, B, X)
                    R_lit, piv_lit = literal_trace_image(A, B, X)
                    assert R.shape == R_lit.shape, (G.order, X.order, p)
                    assert (R == R_lit).all() and piv == piv_lit
                    proper += 0 < len(R) < len(hom_space(A, B))
    assert proper >= 10


def test_factoring_subspace_matches_literal_trace_on_catalog_families():
    rng = np.random.default_rng(29)
    for G, H, D in scenario_chains().values():
        for p in (2, 3):
            sc = Scenario.build(p, G, H, D)
            for K, family in ((G, sc.x_in_g()), (H.group, sc.x_in_h()),
                              (H.group, sc.y_in_h())):
                M = random_module(K, p, 4, rng)
                N = direct_sum(M, random_module(K, p, 3, rng))
                R, piv = factoring_subspace(M, N, family)
                rows = [literal_trace_image(M, N, X)[0] for X in family]
                R_lit, piv_lit = rref_mod(np.concatenate(rows), p)
                assert R.shape == R_lit.shape
                assert (R == R_lit).all() and piv == piv_lit


def test_factoring_subspace_vs_literal_counit_image():
    # the relative-trace computation equals the image of postcomposition
    # with the explicit counit Ind_X Res_X N -> N
    for chain, p in ((chain_s3, 2), (chain_s4_d8_c4, 2), (chain_s3, 3)):
        G, H, D = chain()
        sc = Scenario.build(p, G, H, D)
        kH = trivial_module(sc.H.group, p)
        M = induce(kH, sc.H)
        N = M
        fam = sc.x_in_g()
        R_fast, piv_fast = factoring_subspace(M, N, fam)
        rows = []
        for X in fam:
            indres = induce(restrict(N, X), X)
            eps = counit_ind_res(N, X)  # Ind Res N -> N
            for phi in hom_space(M, indres):
                rows.append(((eps @ phi) % p).ravel())
        if rows:
            R_lit, piv_lit = rref(np.stack(rows), p)
        else:
            R_lit = np.zeros((0, M.dim * N.dim), dtype=np.int64)
        assert R_fast.shape == R_lit.shape
        assert (R_fast == R_lit).all()


def test_quotient_dim_vs_literal_route_small():
    G = cyclic(4)
    p = 2
    T = trivial_subgroup(G)
    kG = regular_module(G, p)
    k = trivial_module(G, p)
    for M, N in ((k, k), (k, kG), (kG, kG)):
        fast = quotient_hom_dim(M, N, [T])
        indres = induce(restrict(N, T), T)
        eps = counit_ind_res(N, T)
        rows = [((eps @ phi) % p).ravel() for phi in hom_space(M, indres)]
        lit_dim = rref(np.stack(rows), p)[0].shape[0] if rows else 0
        assert fast == len(hom_space(M, N)) - lit_dim


def test_x_object_routes_agree_on_s4_scenario():
    # vertex-subconjugacy route vs direct summand route on |G| <= 24;
    # small permutation-module summands keep the naive route desk-scale
    G, H, D = chain_s4_d8_c4()
    sc = Scenario.build(2, G, H, D)
    fam = sc.x_in_g()
    S3 = subgroup(G, ["(0 1)", "(0 1 2)"], tag="S3")
    pool = [trivial_module(G, 2),
            permutation_module(G, H, 2),
            permutation_module(G, S3, 2)]
    seen = 0
    for X in pool:
        for mod, _ in decompose(X).summands:
            if mod.dim > 4:
                continue
            via_vertex = is_x_object(mod, fam)
            via_summand = is_x_object_summand_check(mod, fam)
            assert via_vertex == via_summand, mod.name
            seen += 1
    assert seen >= 3


def test_decompose_extreme_seeds_agree():
    from greencorr.decompose import same_multiset

    G = alternating(4)
    M = induce(trivial_module(subgroup(G, ["(0 1)(2 3)"]).group, 2),
               subgroup(G, ["(0 1)(2 3)"]))
    base = list(decompose(M, 0).summands)
    for seed in (1, 2**31 - 1, 987654321):
        assert same_multiset(base, list(decompose(M, seed).summands))


def test_iso_indec_symmetry():
    # the radical-based indecomposable iso test is symmetric
    G = symmetric(3)
    kG = regular_module(G, 2)
    dec = decompose(kG)
    mods = [mod for mod, _ in dec.summands]
    for a in mods:
        for b in mods:
            assert _iso_indec(a, b) == _iso_indec(b, a)
