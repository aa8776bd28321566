"""Dual-route checks: every optimized computation against a naive route."""

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greencorr import cli
from greencorr.catalog import (
    alternating,
    bridge_groups,
    chain_s3,
    chain_s4_d8_c4,
    cyclic,
    scenario_chains,
    symmetric,
)
from greencorr.decompose import (
    Run,
    _iso_indec,
    _support_components,
    decompose,
    is_relatively_projective,
    relative_trace_image,
    source,
    vertex,
)
from greencorr.green import (
    Scenario,
    _vertex_verdicts,
    factoring_subspace,
    generating_family_over_D,
    is_x_object,
    module_catalog,
    quotient_hom_dim,
)
from greencorr.groupoids import group_groupoid, isocomma, subgroup_inclusion
from greencorr.linalg import rref
from greencorr.modules import (
    FpModule,
    _default_pool,
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
    p_part,
    p_subgroups_up_to_conjugacy,
    subgroup,
    sylow,
    trivial_subgroup,
    whole_group,
)

from oracles import (
    generating_family_with_regular,
    is_x_object_summand_check,
    kron_hom_basis,
    literal_trace_image,
    relatively_projective_by_trace,
    rref_mod,
    source_by_induction,
    vertex_by_subgroup_descent,
)

ROOT = Path(__file__).resolve().parents[1]
# the module, which the package's ``decompose`` function shadows
DECOMPOSE = importlib.import_module("greencorr.decompose")


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
    R, piv = relative_trace_image(M, N, T, hom_space(M, N))
    R_lit, piv_lit = literal_trace_image(M, N, T)
    assert 0 < len(R) < len(hom_space(M, N))
    assert R.shape == R_lit.shape
    assert (R == R_lit).all() and piv == piv_lit


def _subgroup_classes(G):
    reps = {}
    for S in all_subgroups(G):
        reps.setdefault(S.canonical_class_key, S)
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
                    R, piv = relative_trace_image(A, B, X, hom_space(A, B))
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
            for K, family in ((G, sc.x_in_g), (H.group, sc.x_in_h),
                              (H.group, sc.y_in_h)):
                pool = _default_pool(K, p)
                M = random_module(K, p, 4, rng, pool)
                N = direct_sum(M, random_module(K, p, 3, rng, pool))
                R, piv = factoring_subspace(M, N, family, hom_space(M, N))
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
        fam = sc.x_in_g
        R_fast, piv_fast = factoring_subspace(M, N, fam, hom_space(M, N))
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
    fam = sc.x_in_g
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


@pytest.mark.parametrize("path", sorted(
    str(path.relative_to(ROOT)) for path in [
        *(ROOT / "configs").glob("*.json"),
        ROOT / "perfbench" / "configs" / "d8_v4_c2.json"]))
def test_kd_family_needs_no_regular_source(path):
    # k[D/1] is the regular kD-module: dropping kD from the sources changes
    # no member of the family and no place in it
    sc = cli.Config.from_file(str(ROOT / path)).scenario()
    family = generating_family_over_D(sc, Run())
    oracle = generating_family_with_regular(sc, Run())
    assert [mod.fingerprint() for mod in family] == \
        [mod.fingerprint() for mod in oracle]


@pytest.mark.parametrize("name", ["s3_c2_c2", "degenerate_s3", "s4_d8_c4",
                                  "s4_d8_d8", "a5_a4_v4"])
def test_source_routes_agree_on_every_catalog_module(name):
    # Green's theorem (the first summand of Res_Q M of vertex Q) vs the first
    # summand s of Res_Q M with M | Ind_Q s, on both sides of the config
    sc = cli.Config.from_file(str(ROOT / "configs" / f"{name}.json")).scenario()
    run, oracle_run = Run(), Run()
    mods = [mod for side in ("H", "G")
            for mod, _, _ in module_catalog(sc, side, run)]
    assert mods
    for mod in mods:
        assert source(mod, run).fingerprint() == \
            source_by_induction(mod, oracle_run).fingerprint(), mod.name


@pytest.mark.parametrize("name", ["s3_c2_c2", "degenerate_s3", "s4_d8_c4",
                                  "s4_d8_d8", "a5_a4_v4"])
def test_relative_projectivity_agrees_with_the_trace(name):
    # Higman's trace alone vs two routes.  is_relatively_projective (the
    # p-part of |G:X| dividing dim M, then the trace) for every p-subgroup
    # class X of a Sylow subgroup, on the catalog modules of both sides and
    # on the decomposable kG and Ind_D s, s in the kD catalog; and the
    # D-object and X-object verdicts that _vertex_verdicts reads off each
    # catalog module's vertex, with the family's members as X
    sc = cli.Config.from_file(str(ROOT / "configs" / f"{name}.json")).scenario()
    run = Run()
    family = generating_family_over_D(sc, run)
    decided = {"dimension": 0, "eligible": 0}
    for side, K, d_emb in (("H", sc.H.group, sc.d_in_h), ("G", sc.G, sc.D)):
        mods = [mod for mod, _, _ in module_catalog(sc, side, run)]
        induced = [regular_module(K, sc.p)] + [induce(s, d_emb) for s in family]
        for X in p_subgroups_up_to_conjugacy(K, sylow(K, sc.p)):
            index_p = p_part(K.order // X.order, sc.p)
            for M in mods + induced:
                expected = relatively_projective_by_trace(M, X)
                assert is_relatively_projective(M, X, Run()) == expected
                decided["dimension"] += M.dim % index_p > 0
        _, _, fam = sc.side(side)
        for mod in mods:
            _, d_obj, x_obj = _vertex_verdicts(mod, sc, side, run)
            assert d_obj == relatively_projective_by_trace(mod, d_emb), \
                (side, mod.name)
            assert x_obj == any(relatively_projective_by_trace(mod, X)
                                for X in fam), (side, mod.name)
            decided["eligible"] += d_obj and not x_obj
    assert decided["dimension"] and decided["eligible"]


@settings(max_examples=40)
@given(st.sampled_from(sorted(bridge_groups())), st.sampled_from([2, 3, 5]),
       st.integers(0, 2 ** 32 - 1))
def test_a_dimension_prime_to_the_index_is_never_relatively_projective(
        name, p, seed):
    # Green: each summand of a relatively X-projective M has a vertex
    # Q <=_G X, and |G:Q|_p, a multiple of |G:X|_p, divides its dimension
    G = bridge_groups()[name]
    M = random_module(G, p, 8, np.random.default_rng(seed))
    for X in all_subgroups(G):
        if M.dim % p_part(G.order // X.order, p):
            assert not relatively_projective_by_trace(M, X), (name, p, X)


@settings(max_examples=40)
@given(st.sampled_from(sorted(bridge_groups())), st.sampled_from([2, 3, 5]),
       st.integers(0, 2 ** 32 - 1))
def test_vertex_first_fit_matches_the_descent(name, p, seed):
    # the first class, smallest first, relative to which a summand is
    # projective is the class the former descent ends at, and takes no more
    # traces to find
    G = bridge_groups()[name]
    M = random_module(G, p, 8, np.random.default_rng(seed))
    traces = []
    trace = DECOMPOSE.relative_trace_image

    def counting(M, N, emb, homs):
        traces.append(emb.order)
        return trace(M, N, emb, homs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DECOMPOSE, "relative_trace_image", counting)
        for mod, _ in decompose(M, Run()).summands:
            traces.clear()
            found = vertex(mod, Run()).element_indices
            first_fit = len(traces)
            traces.clear()
            assert vertex_by_subgroup_descent(mod, Run()) == found, (name, p)
            assert first_fit <= len(traces), (name, p)


def test_source_passes_over_a_summand_of_smaller_vertex():
    # Res_Q M of an 18-dim summand M of Ind_V4^A5 W, W the 5-dim kV4-module
    # with top 3 and socle 2, is kV4 + a conjugate of W: the first summand,
    # kV4, has vertex 1 and is no source, so both routes must skip it
    G = alternating(5)
    V4 = subgroup(G, ["(0 1)(2 3)", "(0 2)(1 3)"])
    X, Y = np.zeros((2, 5, 5), dtype=np.int64)
    X[[3, 4], [0, 1]] = 1   # u1 -> v1, u2 -> v2
    Y[[3, 4], [1, 2]] = 1   # u2 -> v1, u3 -> v2
    eye = np.eye(5, dtype=np.int64)
    W = FpModule(V4.group, 2, [eye + X, eye + Y])
    run = Run()
    M = next(m for m, _ in decompose(induce(W, V4), run).summands
             if m.dim == 18)
    Q = vertex(M, run)
    first = decompose(restrict(M, Q), run).summands[0][0]
    assert Q.order == 4 and vertex(first, run).order == 1
    s = source(M, run)
    assert s.dim == 5
    assert s.fingerprint() == source_by_induction(M, Run()).fingerprint()


def test_decompose_extreme_seeds_agree():
    # the CLI accepts any integer seed and ignores it; five fresh Runs agree
    from greencorr.decompose import same_multiset

    G = alternating(4)
    M = induce(trivial_module(subgroup(G, ["(0 1)(2 3)"]).group, 2),
               subgroup(G, ["(0 1)(2 3)"]))
    decs = [decompose(M, Run()) for _ in range(5)]
    assert len({id(dec) for dec in decs}) == 5
    for other in decs[1:]:
        assert np.array_equal(decs[0].change_of_basis, other.change_of_basis)
        assert same_multiset(decs[0].summands, other.summands)


def test_iso_indec_symmetry():
    # the radical-based indecomposable iso test is symmetric
    G = symmetric(3)
    kG = regular_module(G, 2)
    dec = decompose(kG)
    mods = [mod for mod, _ in dec.summands]
    for a in mods:
        for b in mods:
            assert _iso_indec(a, b) == _iso_indec(b, a)


def test_support_components_of_res_ind_match_the_isocomma():
    # Res_K Ind_H^G k is the permutation module on G/H, whose support
    # components are the K-orbits: one per double coset KgH, of size
    # [K : K ∩ gHg^-1], which is K.order over the automorphism order of the
    # matching component of the isocomma (H/K/G)
    pairs = 0
    for name, G in bridge_groups().items():
        Ggpd = group_groupoid(G, name)
        subs = all_subgroups(G)
        inclusions = [subgroup_inclusion(S, Ggpd) for S in subs]
        for H, iH in zip(subs, inclusions):
            ind = induce(trivial_module(H.group, 2), H)
            for K, iK in zip(subs, inclusions):
                res = restrict(ind, K)
                dims = [len(c) for c in _support_components(res.action, res.dim)]
                comps = isocomma(iH, iK).groupoid.components
                assert sorted(dims) == sorted(K.order // c.aut_order
                                              for c in comps), (name, H, K)
                pairs += 1
    assert pairs == 1152
