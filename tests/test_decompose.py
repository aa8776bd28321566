import functools
import importlib
import sys
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
    cyclic,
    symmetric,
)
from greencorr.decompose import (
    Run,
    decompose,
    end_info,
    is_direct_summand,
    is_isomorphic,
    is_relatively_projective,
    multiset_of_classes,
    relative_trace_image,
    same_multiset,
    source,
    vertex,
)
from greencorr.errors import InputError, TheoremViolationError, UndecidedError
from greencorr.green import verify_scenario
from greencorr.linalg import in_row_space
from greencorr.modules import (
    FpModule,
    _default_pool,
    direct_sum,
    hom_space,
    hom_space_from_actions,
    induce,
    random_module,
    regular_module,
    restrict,
    trivial_module,
)
from greencorr.permgroups import subgroup, sylow, trivial_subgroup, whole_group

from oracles import (
    brute_decompose_dims,
    brute_isomorphic,
    brute_support_components,
    dense_conjugate,
    first_fit_tally,
    mackey_job_modules,
    rank_mod,
    retract_by_radical,
    summand_route_relatively_projective,
)

D = importlib.import_module("greencorr.decompose")
ROOT = Path(__file__).resolve().parents[1]


def test_simple_module_single_summand():
    G = symmetric(3)
    k = trivial_module(G, 2)
    dec = decompose(k)
    assert len(dec.summands) == 1
    assert dec.summands[0][1] == 1
    assert dec.certificates[0].end_dim == 1


def test_kc2_gf3_splits():
    # kC2 over GF(3): trivial plus sign; frozen from the idempotent oracle
    G = cyclic(2)
    kG = regular_module(G, 3)
    assert brute_decompose_dims([a.copy() for a in kG.action], 3) == [1, 1]
    dec = decompose(kG)
    assert dec.dims_multiset() == [1, 1]
    assert len(dec.summands) == 2  # trivial and sign are not isomorphic
    tr = trivial_module(G, 3)
    assert sum(1 for mod, _ in dec.summands if is_isomorphic(mod, tr)) == 1


def test_kc2_gf2_indecomposable():
    # kC2 over GF(2) is indecomposable: the only idempotents are 0 and 1
    G = cyclic(2)
    kG = regular_module(G, 2)
    assert brute_decompose_dims([a.copy() for a in kG.action], 2) == [2]
    dec = decompose(kG)
    assert dec.dims_multiset() == [2]
    cert = dec.certificates[0]
    assert cert.end_dim == 2 and cert.radical_dim == 1 and cert.residue_degree == 1
    assert kG.dim and end_info(kG).local


def test_regular_s3_gf2_golden():
    # kS3 at p=2: dims [2, 2, 2]; one class appears twice (the projective
    # simple), one once.  Frozen from the exhaustive idempotent oracle.
    G = symmetric(3)
    kG = regular_module(G, 2)
    assert brute_decompose_dims([a.copy() for a in kG.action], 2) == [2, 2, 2]
    dec = decompose(kG)
    assert dec.dims_multiset() == [2, 2, 2]
    assert sorted(mult for _, mult in dec.summands) == [1, 2]


def test_regular_s3_gf3():
    # p = 3: kS3 = k ⊕ sign ⊕ P(2-dim) with the 3-dim projective cover twice?
    # frozen from the oracle instead of guessing
    G = symmetric(3)
    kG = regular_module(G, 3)
    oracle = brute_decompose_dims([a.copy() for a in kG.action], 3)
    dec = decompose(kG)
    assert dec.dims_multiset() == oracle


def test_ind_c2_s3_k_decomposition():
    # Ind_{C2}^{S3} k at p=2 = k ⊕ (2-dim projective simple)
    G, H, D = chain_s3()
    k = trivial_module(H.group, 2)
    ind = induce(k, H)
    assert ind.dim == 3
    oracle = brute_decompose_dims([a.copy() for a in ind.action], 2)
    assert sorted(oracle) == [1, 2]
    dec = decompose(ind)
    assert dec.dims_multiset() == [1, 2]
    one = next(mod for mod, _ in dec.summands if mod.dim == 1)
    assert is_isomorphic(one, trivial_module(G, 2))


def test_change_of_basis_certifies_the_splitting():
    G = symmetric(3)
    kG = regular_module(G, 2)
    dec = decompose(kG)
    from greencorr.linalg import mat_inv
    P = dec.change_of_basis
    Pi = mat_inv(P, 2)
    offset = 0
    for piece in dec.pieces:
        for A, B in zip(kG.action, piece.action):
            conj = (Pi @ A @ P) % 2
            blk = conj[offset:offset + piece.dim, offset:offset + piece.dim]
            assert (blk == B).all()
        offset += piece.dim


def test_decomposition_seed_determinism():
    # five fresh Runs decompose from scratch and agree exactly
    rng = np.random.default_rng(11)
    G = alternating(4)
    for p in (2, 3):
        pool = _default_pool(G, p)
        for _ in range(3):
            M = random_module(G, p, 8, rng, pool)
            decs = [decompose(M, Run()) for _ in range(5)]
            assert len({id(dec) for dec in decs}) == 5
            for other in decs[1:]:
                assert np.array_equal(decs[0].change_of_basis,
                                      other.change_of_basis)
                assert same_multiset(decs[0].summands, other.summands)


def test_matches_oracle_on_random_modules():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        for G in (symmetric(3), cyclic(4)):
            pool = _default_pool(G, p)
            for _ in range(4):
                M = random_module(G, p, 5, rng, pool)
                mine = decompose(M).dims_multiset()
                try:
                    oracle = brute_decompose_dims(
                        [a.copy() for a in M.action], p)
                except ValueError:
                    continue  # End too big to exhaust
                assert mine == sorted(oracle)


def test_is_isomorphic_basics():
    G = symmetric(3)
    kG = regular_module(G, 2)
    assert is_isomorphic(kG, kG)
    k = trivial_module(G, 2)
    assert not is_isomorphic(kG, k)  # different dimensions
    # conjugate modules over the same subgroup: isomorphism via intertwiner
    C2 = subgroup(G, ["(0 1)"])
    M = regular_module(C2.group, 2)
    from greencorr.modules import conjugate_module
    conj, target = conjugate_module(M, C2, C2.element_indices[1])
    assert target.element_indices == C2.element_indices
    assert is_isomorphic(conj, M)


def test_is_isomorphic_distinguishes_nonisomorphic_same_dim():
    G = cyclic(2)
    p = 3
    kG = regular_module(G, p)  # k ⊕ sign
    two_trivial = direct_sum(trivial_module(G, p), trivial_module(G, p))
    assert not is_isomorphic(kG, two_trivial)
    dec = decompose(kG)
    assert len(dec.summands) == 2


def test_relative_projectivity_trivial_cases():
    G = symmetric(3)
    kG = regular_module(G, 2)
    W = whole_group(G)
    assert is_relatively_projective(kG, W)  # D = G always true
    k = trivial_module(G, 2)
    assert is_relatively_projective(k, W)


def test_relative_projectivity_sylow():
    # any module is projective relative to a Sylow p-subgroup
    rng = np.random.default_rng(9)
    for p in (2, 3):
        G = symmetric(3)
        S = sylow(G, p)
        pool = _default_pool(G, p)
        for _ in range(3):
            M = random_module(G, p, 5, rng, pool)
            assert is_relatively_projective(M, S)


def test_trivial_module_not_projective_rel_trivial_subgroup():
    # k over C_p at GF(p) with D = 1: Ind Res k = kC_p is indecomposable
    for p in (2, 3):
        G = cyclic(p)
        k = trivial_module(G, p)
        T = trivial_subgroup(G)
        assert not is_relatively_projective(k, T)


def test_trace_route_matches_summand_route():
    # Higman's criterion (the library) agrees with the decompose-and-match
    # reference kept in the oracles
    rng = np.random.default_rng(21)
    G = alternating(4)
    V4 = subgroup(G, ["(0 1)(2 3)", "(0 2)(1 3)"])
    C3 = subgroup(G, ["(0 1 2)"])
    T = trivial_subgroup(G)
    for p in (2, 3):
        pool = _default_pool(G, p)
        for _ in range(4):
            M = random_module(G, p, 6, rng, pool)
            for emb in (V4, C3, T):
                via_trace = is_relatively_projective(M, emb)
                via_summand = summand_route_relatively_projective(M, emb)
                assert via_trace == via_summand, (p, M.dim, emb.tag)


def test_relative_trace_image_is_ideal_like():
    # pre/post composition with arbitrary homs stays inside the image
    rng = np.random.default_rng(4)
    G = symmetric(3)
    C2 = subgroup(G, ["(0 1)"])
    p = 2
    pool = _default_pool(G, p)
    M = random_module(G, p, 5, rng, pool)
    N = random_module(G, p, 5, rng, pool)
    R, piv = relative_trace_image(M, N, C2, hom_space(M, N))
    ends_m = hom_space(M, M)
    ends_n = hom_space(N, N)
    for row in R:
        F = row.reshape(N.dim, M.dim)
        for e in ends_m[:3]:
            assert in_row_space(((F @ e) % p).ravel(), R, piv, p)
        for e in ends_n[:3]:
            assert in_row_space(((e @ F) % p).ravel(), R, piv, p)


def test_relative_trace_image_rejects_foreign_subgroup():
    # the subgroup must lie in the modules' group, as for relative projectivity
    G = symmetric(3)
    M = trivial_module(G, 2)
    other = subgroup(symmetric(4), ["(0 1)"])
    with pytest.raises(InputError):
        relative_trace_image(M, M, other, hom_space(M, M))
    with pytest.raises(InputError):
        is_relatively_projective(M, other)


def test_vertex_projective_is_trivial():
    # projective indecomposables have vertex 1; the 2-dim simple of S3 at p=2
    G = symmetric(3)
    kG = regular_module(G, 2)
    dec = decompose(kG)
    simple2 = next(mod for mod, mult in dec.summands if mult == 2)
    assert vertex(simple2).order == 1
    assert source(simple2).dim == 1


def test_vertex_trivial_module_is_sylow():
    for p in (2, 3):
        G = symmetric(3)
        k = trivial_module(G, p)
        v = vertex(k)
        assert v.order == sylow(G, p).order
        # Res_Q k is the trivial kQ-module, so it is the source
        assert is_isomorphic(source(k), trivial_module(v.group, p))


def test_vertex_conjugation_invariance():
    # vertex(conj_g M) is the same conjugacy class, for a g that moves C2
    from greencorr.modules import conjugate_module
    from greencorr.permgroups import SubgroupEmbedding

    G = alternating(4)
    p = 2
    C2 = subgroup(G, ["(0 1)(2 3)"], tag="C2")
    M = induce(trivial_module(C2.group, p), C2)
    dec = decompose(M)
    target = next(mod for mod, _ in dec.summands
                  if mod.dim and end_info(mod).local)
    g = G.index[(1, 2, 0, 3)]  # the 3-cycle (0 1 2)
    assert C2.conjugated(g).element_indices != C2.element_indices
    conj, W = conjugate_module(target, whole_group(G), g)
    assert any((a != b).any() for a, b in zip(target.action, conj.action))
    v1 = vertex(target)
    v2 = vertex(conj)
    amb2 = SubgroupEmbedding(
        G, tuple(W.to_ambient[x] for x in v2.element_indices))
    assert v1.canonical_class_key == amb2.canonical_class_key


def test_vertex_requires_indecomposable():
    G = cyclic(2)
    kG = regular_module(G, 3)  # decomposable
    with pytest.raises(InputError):
        vertex(kG)


def test_is_direct_summand_adaptive_routes_agree():
    # the homs into and out of X come from hom_space whether X is induced or
    # not; on both kinds of X the answer agrees with decomposing X
    G = alternating(4)
    p = 2
    V4 = subgroup(G, ["(0 1)(2 3)", "(0 2)(1 3)"])

    def by_decomposition(M, X):
        return any(brute_isomorphic(M.action, mod.action, p)
                   for mod, _ in decompose(X).summands)

    k = trivial_module(G, p)
    ind = induce(restrict(k, V4), V4)  # k[A4/V4] = k ⊕ (2-dim simple) at p = 2
    assert is_direct_summand(k, ind)
    # False: Ind_V4 kV4 = kA4, and k is not projective
    free = induce(regular_module(V4.group, p), V4)
    assert not is_direct_summand(k, free)
    assert not by_decomposition(k, free)
    # a non-induced X: Res_V4 kA4 is three copies of the indecomposable kV4
    res = restrict(regular_module(G, p), V4)
    kv4 = regular_module(V4.group, p)
    assert is_direct_summand(kv4, res) and by_decomposition(kv4, res)
    # False with nonzero composites kV4 -> X -> kV4, all in the radical
    C2 = subgroup(V4.group, [V4.group.generators[0]])
    for X in (restrict(k, V4), induce(trivial_module(C2.group, p), C2)):
        assert not is_direct_summand(kv4, X)
        assert not by_decomposition(kv4, X)


@functools.cache
def bridge_pool(name: str, p: int) -> list[FpModule]:
    return _default_pool(bridge_groups()[name], p)


def summand_cases(name: str, p: int, seed: int):
    """M, a piece of the decomposition of a random module over the bridge
    group ``name``, and the modules X to test it against: M itself, a dense
    conjugate of M, Y ⊕ M and M ⊕ Y, where no hom M -> X is square, and Y,
    for Y a random module drawn until it does not contain M."""
    rng = np.random.default_rng(seed)
    G, pool = bridge_groups()[name], bridge_pool(name, p)
    pieces = decompose(random_module(G, p, 8, rng, pool)).pieces
    M = pieces[int(rng.integers(len(pieces)))]
    Y = random_module(G, p, 8, rng, pool)
    while retract_by_radical(M, Y, Run()):
        Y = random_module(G, p, 8, rng, pool)
    conj = FpModule(G, p, dense_conjugate(M.action, p, rng), name="conj")
    return M, [M, conj, direct_sum(Y, M), direct_sum(M, Y), Y]


def first_invertible_composite(M, X):
    """The position, in the order a then b over the hom_space bases, of the
    first invertible composite b∘a of homs a: M -> X and b: X -> M, or None;
    and whether some composite is nonzero."""
    composites = [(b @ a) % M.p for a in hom_space(M, X)
                  for b in hom_space(X, M)]
    at = next((k for k, c in enumerate(composites)
               if rank_mod(c, M.p) == M.dim), None)
    return at, any(c.any() for c in composites)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5]),
       name=st.sampled_from(sorted(bridge_groups())))
def test_summand_test_matches_the_radical_criterion(seed, p, name):
    M, targets = summand_cases(name, p, seed)
    run = Run()
    verdicts = [is_direct_summand(M, X, run) for X in targets]
    assert verdicts == [retract_by_radical(M, X, run) for X in targets]
    assert verdicts == [True, True, True, True, False]
    # End(M ⊕ M) is not local, and a sum containing it has no square hom
    # from it, so the composites are needed and the test refuses
    twice = direct_sum(M, M)
    X = direct_sum(twice, targets[-1])
    with pytest.raises(InputError):
        is_direct_summand(twice, X, run)
    with pytest.raises(InputError):
        retract_by_radical(twice, X, run)


def test_summand_cases_reach_every_branch_of_the_composite_test():
    # over fixed draws, the composite test decides some pairs by a composite
    # other than the first, and rejects some whose composites are nonzero
    # (all in the radical), so a test of the first pair only, or of
    # nonzero composites, would answer differently
    later, radical_only = 0, 0
    for seed in range(6):
        for name in sorted(bridge_groups()):
            for p in (2, 3):
                M, targets = summand_cases(name, p, seed)
                for X in targets[2:]:
                    at, nonzero = first_invertible_composite(M, X)
                    later += bool(at)
                    radical_only += at is None and nonzero
    assert later > 0 and radical_only > 0


def test_multiset_helpers():
    G = cyclic(2)
    kG = regular_module(G, 3)
    d1 = decompose(kG)
    d2 = decompose(direct_sum(kG, kG))
    merged = multiset_of_classes([d1, d1])
    assert same_multiset(merged, list(d2.summands))


def test_mackey_with_k_different_from_h():
    # Res_D Ind_H M for the S4 chain C4 <= D8 <= S4, both sides decomposed
    from greencorr.catalog import chain_s4_d8_c4
    from greencorr.modules import conjugate_module, induce, restrict
    from greencorr.permgroups import SubgroupEmbedding, double_cosets

    G, H, D = chain_s4_d8_c4()
    rng = np.random.default_rng(31)
    for p in (2, 3):
        pool = _default_pool(H.group, p)
        for _ in range(3):
            M = random_module(H.group, p, 5, rng, pool)
            lhs = decompose(restrict(induce(M, H), D))
            parts = []
            for g, L in double_cosets(G, D, H):
                L_inner = L.conjugated(int(G.inv[g]))
                li_in_h = SubgroupEmbedding(
                    H.group,
                    tuple(H.from_ambient[a] for a in L_inner.element_indices))
                conjM, _ = conjugate_module(
                    restrict(M, li_in_h), L_inner, g, target=L)
                l_in_d = SubgroupEmbedding(
                    D.group, tuple(D.from_ambient[a] for a in L.element_indices))
                parts.append(decompose(induce(conjM, l_in_d)))
            from greencorr.decompose import multiset_of_classes, same_multiset
            assert same_multiset(multiset_of_classes([lhs]),
                                 multiset_of_classes(parts))


def test_vertex_conjugation_invariance_nontrivial():
    # k over S3 <= S4 has vertex C2; conjugating the subgroup moves the
    # vertex to a conjugate subgroup, i.e. the same S4-class
    from greencorr.catalog import symmetric as _sym
    from greencorr.modules import conjugate_module
    from greencorr.permgroups import SubgroupEmbedding

    G = _sym(4)
    S3 = subgroup(G, ["(0 1)", "(0 1 2)"], tag="S3")
    k = trivial_module(S3.group, 2)
    v1 = vertex(k)
    g = G.index[(0, 1, 3, 2)]  # the transposition (2 3), moving S3
    conj, target = conjugate_module(k, S3, g)
    v2 = vertex(conj)
    amb1 = SubgroupEmbedding(
        G, tuple(S3.to_ambient[x] for x in v1.element_indices))
    amb2 = SubgroupEmbedding(
        G, tuple(target.to_ambient[x] for x in v2.element_indices))
    assert v1.order == 2 and v2.order == 2
    assert amb1.canonical_class_key == amb2.canonical_class_key


# ---------------------------------------------------------------------------
# End bases of Fitting pieces, read off the parent's End basis
# ---------------------------------------------------------------------------


def check_piece_ends(monkeypatch) -> list[int]:
    """Make every split check that the End basis passed down to each piece
    equals a fresh hom_space_from_actions on that piece.  Returns the list
    that collects the dimension of each module split."""
    split_dims = []
    original = D._leaf_or_split

    def checking(mats, dim, p, ends):
        out = original(mats, dim, p, ends)
        if not isinstance(out, D._LeafInfo):
            for piece, cols, passed in out:
                d = cols.shape[1]
                fresh = hom_space_from_actions(piece, d, piece, d, p)
                assert len(passed) == len(fresh), (dim, d)
                assert all(np.array_equal(a, b) for a, b in zip(passed, fresh))
            split_dims.append(dim)
        return out

    monkeypatch.setattr(D, "_leaf_or_split", checking)
    return split_dims


@pytest.mark.parametrize("name", ["s3_c2_c2", "s4_d8_c4", "s4_d8_d8",
                                  "a5_a4_v4", "degenerate_s3"])
def test_piece_ends_equal_a_fresh_solve_on_configs(name, monkeypatch, tmp_path):
    split_dims = check_piece_ends(monkeypatch)
    config = ROOT / "configs" / f"{name}.json"
    assert cli.run(["verify", "--scenario", str(config),
                    "--out", str(tmp_path)]) == 0
    assert split_dims


def certificate_rows(dec) -> list[tuple[int, ...]]:
    return sorted((mod.dim, mult, c.end_dim, c.radical_dim, c.residue_degree)
                  for (mod, mult), c in zip(dec.summands, dec.certificates))


def test_piece_ends_equal_a_fresh_solve_on_mackey_pool(monkeypatch):
    # decompose solves End(Res_H Ind_H^G M) on its support components, the
    # blocks of the Mackey formula; a dense change of basis joins them, so
    # the Fitting splits below start from the whole module
    lhs, _, recorded = max(mackey_job_modules(2), key=lambda m: m[0].dim)
    mixed = dense_conjugate(lhs.action, lhs.p, np.random.default_rng(2))
    M = FpModule(lhs.group, lhs.p, mixed, name="mixed")
    assert len(D._support_components(M.action, M.dim)) == 1
    split_dims = check_piece_ends(monkeypatch)
    assert certificate_rows(decompose(M)) == sorted(map(tuple, recorded))
    assert max(split_dims) >= 40


# ---------------------------------------------------------------------------
# support components, split before any End is solved
# ---------------------------------------------------------------------------


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5]),
       group=st.sampled_from([symmetric(3), alternating(4)]),
       parts=st.integers(2, 3))
def test_support_components_match_oracle_and_keep_the_decomposition(
        seed, p, group, parts):
    rng = np.random.default_rng(seed)
    # random_module spins one vector, so a part of dim >= 2 acts by no
    # scalar, and a dense change of basis can join every component
    pool = _default_pool(group, p)
    first = random_module(group, p, 8, rng, pool)
    while first.dim < 3:
        first = random_module(group, p, 8, rng, pool)
    S = first
    for _ in range(parts - 1):
        S = direct_sum(S, random_module(group, p, 8, rng, pool))
    # a dense conjugate of the first part repeats its isomorphism class on
    # other actions, so its pieces may be carried over from the first's
    S = direct_sum(S, FpModule(group, p, dense_conjugate(first.action, p,
                                                         rng)))
    perm = rng.permutation(S.dim)
    M = FpModule(group, p, [a[np.ix_(perm, perm)] for a in S.action],
                 name="sum")
    components = D._support_components(M.action, M.dim)
    assert [c.tolist() for c in components] == \
        brute_support_components(M.action, M.dim)
    assert len(components) >= parts + 1
    mixed = FpModule(group, p, dense_conjugate(M.action, p, rng), name="mixed")
    assert len(D._support_components(mixed.action, mixed.dim)) == 1
    dec, ref = decompose(M), decompose(mixed)
    assert certificate_rows(dec) == certificate_rows(ref)
    assert same_multiset(dec.summands, ref.summands)


def riffled_sum(blocks: list[FpModule], rng) -> FpModule:
    """The direct sum of ``blocks`` under a random basis permutation that
    interleaves the blocks but keeps the order of each block's basis, so a
    repeated block restricts to byte-equal actions on its components."""
    S = blocks[0]
    for B in blocks[1:]:
        S = direct_sum(S, B)
    starts = np.cumsum([0] + [B.dim for B in blocks])
    owner = rng.permutation(np.repeat(np.arange(len(blocks)),
                                      [B.dim for B in blocks]))
    taken = starts[:-1].copy()
    src = []
    for b in owner:
        src.append(taken[b])
        taken[b] += 1
    return FpModule(S.group, S.p, [a[np.ix_(src, src)] for a in S.action],
                    name="riffled")


@pytest.mark.parametrize("group, p, seed", [
    (symmetric(3), 3, 0), (alternating(4), 2, 1), (cyclic(4), 5, 2)])
def test_repeated_components_are_split_once(group, p, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    A = regular_module(group, p)
    B = random_module(group, p, 5, rng)
    M = riffled_sum([A, B, A, A, B], rng)
    keys = [FpModule(group, p, [a[np.ix_(c, c)] for a in M.action],
                     check=False, dim=len(c)).fingerprint()
            for c in D._support_components(M.action, M.dim)]
    assert len(keys) > len(set(keys))
    solved = []
    from_actions = D.hom_space_from_actions

    def counting(action, dim, *args):
        solved.append(FpModule(group, p, action, check=False,
                               dim=dim).fingerprint())
        return from_actions(action, dim, *args)

    monkeypatch.setattr(D, "hom_space_from_actions", counting)
    dec = decompose(M)
    assert sorted(solved) == sorted(set(keys))
    # the same decomposition as a single component, split from one End
    mixed = FpModule(group, p, dense_conjugate(M.action, p, rng),
                     name="mixed")
    assert len(D._support_components(mixed.action, mixed.dim)) == 1
    ref = decompose(mixed)
    assert certificate_rows(dec) == certificate_rows(ref)
    assert same_multiset(dec.summands, ref.summands)
    # a repeated piece is a module of its own, named by its place
    assert len({id(mod) for mod in dec.pieces}) == len(dec.pieces)
    assert [mod.name for mod in dec.pieces] == \
        [f"riffled[{i}]" for i in range(len(dec.pieces))]


def conjugate_repeat(group, p, seed):
    """A ⊕ A' ⊕ B with A the regular module, A' a dense conjugate of A and
    B a random module of smaller dimension: three support components."""
    rng = np.random.default_rng(seed)
    A = regular_module(group, p)
    conj = FpModule(group, p, dense_conjugate(A.action, p, rng), name="A'")
    B = random_module(group, p, min(5, A.dim - 1), rng)
    M = direct_sum(direct_sum(A, conj), B)
    assert len(D._support_components(M.action, M.dim)) == 3
    return M, A, B, rng


@pytest.mark.parametrize("group, p, seed", [
    (symmetric(3), 3, 0), (alternating(4), 2, 1), (cyclic(4), 5, 2)])
def test_isomorphic_components_are_split_once(group, p, seed, monkeypatch):
    M, A, B, rng = conjugate_repeat(group, p, seed)
    solved, compared = [], []
    from_actions, first_invertible = (D.hom_space_from_actions,
                                      D._first_invertible)

    def counting(action, dim, *args):
        solved.append(FpModule(group, p, action, check=False,
                               dim=dim).fingerprint())
        return from_actions(action, dim, *args)

    def recording(homs, p):
        phi = first_invertible(homs, p)
        if sys._getframe(1).f_code.co_name == "_carried_split":
            compared.append(phi is not None)
        return phi

    monkeypatch.setattr(D, "hom_space_from_actions", counting)
    monkeypatch.setattr(D, "_first_invertible", recording)
    dec = decompose(M)
    # End is solved on A and on B only; A' takes A's pieces through the
    # isomorphism that the one comparison finds, and B differs from A in
    # dimension, so no Hom is solved for it
    assert solved == [A.fingerprint(), B.fingerprint()]
    assert compared == [True]
    # the same decomposition as a single component, split from one End
    mixed = FpModule(group, p, dense_conjugate(M.action, p, rng),
                     name="mixed")
    assert len(D._support_components(mixed.action, mixed.dim)) == 1
    ref = decompose(mixed)
    assert certificate_rows(dec) == certificate_rows(ref)
    assert same_multiset(dec.summands, ref.summands)
    # a carried piece is a module of its own, with the actions of A's piece
    n = len(dec.pieces) - len(decompose(B).pieces)
    assert len({id(mod) for mod in dec.pieces}) == len(dec.pieces)
    assert [m.fingerprint() for m in dec.pieces[:n // 2]] == \
        [m.fingerprint() for m in dec.pieces[n // 2:n]]


def test_an_inverted_isomorphism_fails_the_final_check(monkeypatch):
    M, _, _, _ = conjugate_repeat(symmetric(3), 3, 0)
    first_invertible = D._first_invertible

    def inverted(homs, p):
        phi = first_invertible(homs, p)
        return None if phi is None else D.mat_inv(phi, p)

    monkeypatch.setattr(D, "_first_invertible", inverted)
    with pytest.raises(TheoremViolationError):
        decompose(M)


def test_a_misplaced_component_index_fails_the_final_check(monkeypatch):
    kS3 = regular_module(symmetric(3), 3)
    M = direct_sum(kS3, kS3)
    components = D._support_components

    def misplaced(mats, dim):
        first, second, *rest = components(mats, dim)
        return [first[1:], np.sort(np.append(second, first[0])), *rest]

    conjugate, checked = D._conjugate, []

    def recording(mats, *args):
        checked.append(mats is M.action)
        return conjugate(mats, *args)

    monkeypatch.setattr(D, "_support_components", misplaced)
    monkeypatch.setattr(D, "_conjugate", recording)
    with pytest.raises(TheoremViolationError):
        decompose(M)
    # the change of basis of the whole module is what failed
    assert checked[-1]


def test_fitting_split_rejects_a_map_that_is_not_an_endomorphism():
    # on kC2 at p = 3 the projection onto e0 is idempotent but does not
    # commute with the swap, so its im ⊕ ker is no module split
    M = regular_module(cyclic(2), 3)
    f = np.diag([1, 0]).astype(np.int64)
    assert not any(np.array_equal(f, e) for e in hom_space(M, M))
    with pytest.raises(TheoremViolationError):
        D._fitting_split(M.action, hom_space(M, M), f, 3)
    # an End element splits kC2 into its two one-dimensional pieces
    e = (np.eye(2, dtype=np.int64) + M.action[0]) * 2 % 3  # (1 + g) / 2
    pieces = D._fitting_split(M.action, hom_space(M, M), e, 3)
    assert [cols.shape[1] for _, cols, _ in pieces] == [1, 1]
    assert sorted(int(acts[0][0, 0]) for acts, _, _ in pieces) == [1, 2]


# ---------------------------------------------------------------------------
# isomorphism classes, screened by conjugation invariants
# ---------------------------------------------------------------------------


def check_screened_tally(group, p, seed):
    """Certified indecomposables of random modules, of a direct sum of them
    and of its dense conjugate, each with a dense conjugate copy: the copies
    agree with their originals on every invariant, and the screened tally
    finds the classes of the unscreened first fit, with the same
    representatives."""
    rng = np.random.default_rng(seed)
    pool = _default_pool(group, p)
    mods = [random_module(group, p, 6, rng, pool) for _ in range(3)]
    total = direct_sum(mods[0], mods[1])
    mods += [total, FpModule(group, p, dense_conjugate(total.action, p, rng))]
    run = Run()
    pieces = [mod for M in mods for mod in decompose(M, run).pieces]
    copies = [FpModule(group, p, dense_conjugate(mod.action, p, rng),
                       name="copy") for mod in pieces]
    for mod, copy in zip(pieces, copies):
        assert mod.generator_traces() == copy.generator_traces()
        assert mod.generator_moved_ranks() == copy.generator_moved_ranks()
        assert not D._invariants_differ(mod, copy)
    items = [(mod, 1) for mod in pieces + copies]
    items = [items[i] for i in rng.permutation(len(items))]
    screened = D._tally(items, run)
    oracle = first_fit_tally(items, Run())
    assert [(id(rep), n) for rep, n in screened] == \
        [(id(rep), n) for rep, n in oracle]


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5]),
       group=st.sampled_from([symmetric(3), alternating(4), cyclic(4)]))
def test_screened_tally_matches_first_fit_oracle(seed, p, group):
    check_screened_tally(group, p, seed)


def test_an_invariant_that_depends_on_the_basis_fails_the_check(monkeypatch):
    check_screened_tally(symmetric(3), 3, 0)
    monkeypatch.setattr(FpModule, "generator_traces", lambda self: tuple(
        int(a[0, 0]) for a in self.action))
    with pytest.raises(AssertionError):
        check_screened_tally(symmetric(3), 3, 0)


def invariants(M):
    """The screen's invariants, recomputed apart from the modules' memos."""
    eye = np.eye(M.dim, dtype=np.int64)
    return (M.dim, [int(np.trace(a)) % M.p for a in M.action],
            [rank_mod(a - eye, M.p) for a in M.action])


def test_mackey_job_tests_no_isomorphism_that_an_invariant_rules_out(
        monkeypatch):
    pairs = []
    summand = D.is_direct_summand

    def recording(M, X, run=None):
        pairs.append(invariants(M) == invariants(X))
        return summand(M, X, run)

    monkeypatch.setattr(D, "is_direct_summand", recording)
    bench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    wl = importlib.import_module("workloads")
    ref = wl.load_reference(bench / "reference", "mackey_odd_p")
    outcome = wl.mackey_run(wl.mackey_setup(0, ref), ref)
    assert outcome.attempted > 0 and outcome.failed == 0, outcome.errors
    assert pairs and all(pairs)


def test_verify_tests_no_isomorphism_that_an_invariant_rules_out(monkeypatch):
    # every summand test that an isomorphism test makes, in the round trips
    # and the bijection checks too; the other callers of is_direct_summand
    # may compare modules that differ in an invariant, and are left out
    pairs = []
    summand = D.is_direct_summand

    def recording(M, X, run=None):
        if sys._getframe(1).f_code.co_name == "_iso_indec":
            pairs.append(invariants(M) == invariants(X))
        return summand(M, X, run)

    monkeypatch.setattr(D, "is_direct_summand", recording)
    sc = cli.Config.from_file(str(ROOT / "configs/s4_d8_d8.json")).scenario()
    assert verify_scenario(sc, Run()).all_pass
    assert pairs and all(pairs)


def test_isomorphism_tests_tell_invariants_apart_without_a_hom(monkeypatch):
    G = symmetric(3)
    k = trivial_module(G, 3)
    sign = FpModule(G, 3, [np.array([[2]]), np.array([[1]])], name="sign")
    regular = regular_module(cyclic(2), 2)
    two = direct_sum(trivial_module(cyclic(2), 2), trivial_module(cyclic(2), 2))

    def no_hom(*args):
        raise AssertionError("solved a Hom that an invariant rules out")

    monkeypatch.setattr(D, "is_direct_summand", no_hom)
    monkeypatch.setattr(D, "hom_space", no_hom)
    assert not D._iso_indec(k, sign)  # traces 1 and 2 of the transposition
    assert not is_isomorphic(k, sign)
    assert not is_isomorphic(regular, two)  # rank(a - I) is 1 and 0


def projective_cover_of_trivial_s3_p3():
    """P_k, the summand of kS3 at p = 3 with k on top: dim 3, local End of
    dim 2, radical of dim 1."""
    G = symmetric(3)
    k = trivial_module(G, 3)
    return next(P for P in decompose(regular_module(G, 3)).pieces
                if hom_space(P, k))


def test_undecided_in_the_semisimple_quotient_says_where_it_fired(
        monkeypatch):
    P = projective_cover_of_trivial_s3_p3()

    def stuck(self):
        raise UndecidedError("stuck")

    monkeypatch.setattr(D._Semisimple, "splitting_element", stuck)
    with pytest.raises(UndecidedError) as exc:
        decompose(P)
    assert str(exc.value) == \
        "stuck (p = 3, dim M = 3, dim End M = 2, dim J = 1)"


def test_undecided_split_says_where_it_fired(monkeypatch):
    # k ⊕ P_k under a dense basis: one support component of dim 4, End of
    # dim 1 + 1 + 1 + 2 = 5, radical of dim 3
    P = projective_cover_of_trivial_s3_p3()
    k = trivial_module(P.group, 3)
    M = FpModule(P.group, 3, dense_conjugate(direct_sum(k, P).action, 3,
                                             np.random.default_rng(0)))
    monkeypatch.setattr(D, "_fitting_split", lambda *args: None)
    with pytest.raises(UndecidedError) as exc:
        decompose(M)
    assert str(exc.value) == ("certificate splitter failed to split "
                              "(p = 3, dim M = 4, dim End M = 5, dim J = 3)")
