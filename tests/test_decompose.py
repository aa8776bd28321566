import numpy as np
import pytest

from greencorr.catalog import alternating, chain_s3, cyclic, symmetric
from greencorr.decompose import (
    decompose,
    is_direct_summand,
    is_indecomposable,
    is_isomorphic,
    is_relatively_projective,
    multiset_of_classes,
    relative_trace_image,
    same_multiset,
    vertex,
)
from greencorr.errors import InputError
from greencorr.linalg import in_row_space
from greencorr.modules import (
    direct_sum,
    hom_space,
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
    summand_route_relatively_projective,
)


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
    assert is_indecomposable(kG)


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
    # Krull-Schmidt: multisets of iso classes agree across seeds
    rng = np.random.default_rng(11)
    G = alternating(4)
    for p in (2, 3):
        for _ in range(3):
            M = random_module(G, p, 8, rng)
            decs = [decompose(M, seed) for seed in range(5)]
            base = [(m, c) for m, c in decs[0].summands]
            for other in decs[1:]:
                assert same_multiset(base, list(other.summands))


def test_matches_oracle_on_random_modules():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        for G in (symmetric(3), cyclic(4)):
            for _ in range(4):
                M = random_module(G, p, 5, rng)
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
        for _ in range(3):
            M = random_module(G, p, 5, rng)
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
        for _ in range(4):
            M = random_module(G, p, 6, rng)
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
    M = random_module(G, p, 5, rng)
    N = random_module(G, p, 5, rng)
    R, piv = relative_trace_image(M, N, C2)
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
        relative_trace_image(M, M, other)
    with pytest.raises(InputError):
        is_relatively_projective(M, other)


def test_vertex_projective_is_trivial():
    # projective indecomposables have vertex 1; the 2-dim simple of S3 at p=2
    G = symmetric(3)
    kG = regular_module(G, 2)
    dec = decompose(kG)
    simple2 = next(mod for mod, mult in dec.summands if mult == 2)
    res = vertex(simple2)
    assert res.vertex.order == 1
    assert res.source.dim == 1


def test_vertex_trivial_module_is_sylow():
    for p in (2, 3):
        G = symmetric(3)
        k = trivial_module(G, p)
        res = vertex(k)
        S = sylow(G, p)
        assert res.vertex.order == S.order
        assert is_isomorphic(res.source, trivial_module(res.vertex.group, p)) or \
            res.source.dim >= 1


def test_vertex_conjugation_invariance():
    # vertex(conj_g M) is the same conjugacy class
    G = alternating(4)
    p = 2
    C2 = subgroup(G, ["(0 1)(2 3)"], tag="C2")
    M = induce(trivial_module(C2.group, p), C2)
    dec = decompose(M)
    target = next(mod for mod, _ in dec.summands if is_indecomposable(mod))
    v1 = vertex(target)
    from greencorr.modules import conjugate_module
    W = whole_group(G)
    Mc = restrict(target, W)  # relabel through the whole group (identity)
    v2 = vertex(target, seed=5)
    assert v1.vertex.canonical_class_key() == v2.vertex.canonical_class_key()


def test_vertex_requires_indecomposable():
    G = cyclic(2)
    kG = regular_module(G, 3)  # decomposable
    with pytest.raises(InputError):
        vertex(kG)


def test_is_direct_summand_adaptive_routes_agree():
    # induced X takes its homs through the adjunction, any other X from
    # hom_space; both agree with decomposing X
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
        for _ in range(3):
            M = random_module(H.group, p, 5, rng)
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
        G, tuple(S3.to_ambient[x] for x in v1.vertex.element_indices))
    amb2 = SubgroupEmbedding(
        G, tuple(target.to_ambient[x] for x in v2.vertex.element_indices))
    assert v1.vertex.order == 2 and v2.vertex.order == 2
    assert amb1.canonical_class_key() == amb2.canonical_class_key()
