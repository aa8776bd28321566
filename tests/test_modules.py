import functools
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greencorr.catalog import alternating, bridge_groups, cyclic, symmetric
from greencorr.errors import InputError
from greencorr.modules import (
    FpModule,
    _default_pool,
    _SpinData,
    cohomological_composite,
    conjugate_module,
    counit_ind_res,
    counit_res_ind_on_base,
    direct_sum,
    hom_space,
    hom_space_from_actions,
    induce,
    module_from_json,
    module_to_json,
    permutation_module,
    random_module,
    regular_module,
    restrict,
    submodule_from_vectors,
    trivial_module,
    unit_ind_res_on_base,
    unit_res_ind,
)
from greencorr.permgroups import (
    PermGroup, all_subgroups, closure, subgroup, trivial_subgroup, whole_group)

from oracles import (
    ReferenceSpin,
    dense_hom_space,
    frontier_submodule_actions,
    kron_hom_basis,
    loop_induce,
    loop_permutation_module,
    loop_regular_module,
    mackey_job_modules,
)


def test_module_construction_and_cache():
    G = symmetric(3)
    M = regular_module(G, 2)
    assert M.dim == 6
    # the cached element actions respect the multiplication table
    for g, h in product(range(G.order), repeat=2):
        assert (M.element_action(int(G.mult[g, h]))
                == M.element_action(g) @ M.element_action(h) % 2).all()
    # singular action rejected
    with pytest.raises(InputError):
        FpModule(G, 2, [np.zeros((2, 2)), np.eye(2)])


def test_hom_trivial_to_trivial():
    G = symmetric(3)
    k = trivial_module(G, 2)
    assert len(hom_space(k, k)) == 1


def test_hom_regular_endos():
    # Hom(kG, kG) has dimension |G|
    for p in (2, 3):
        G = symmetric(3)
        kG = regular_module(G, p)
        assert len(hom_space(kG, kG)) == 6


def test_hom_k_to_kc2_gf2():
    # Hom(k, kC2) over GF(2) has dimension 1: nullspace of a 2x1 system
    G = cyclic(2)
    k = trivial_module(G, 2)
    kC2 = regular_module(G, 2)
    basis = hom_space(k, kC2)
    assert len(basis) == 1
    F = basis[0]
    assert F.shape == (2, 1)
    # image must be the fixed line spanned by 1 + t
    assert (F[:, 0] == np.array([1, 1])).all()


def test_hom_matches_kron_oracle():
    # spin-based hom spaces against the naive kronecker nullspace
    rng = np.random.default_rng(1)
    for p in (2, 3):
        for G in (symmetric(3), cyclic(4), alternating(4)):
            pool = _default_pool(G, p)
            for _ in range(4):
                M = random_module(G, p, 6, rng, pool)
                N = random_module(G, p, 6, rng, pool)
                ours = hom_space(M, N)
                oracle = kron_hom_basis(M.action, N.action, p)
                assert len(ours) == len(oracle), (p, M.dim, N.dim)
                for F in ours:
                    for A, B in zip(M.action, N.action):
                        assert ((F @ A) % p == (B @ F) % p).all()


def test_hom_is_canonical_basis():
    G = symmetric(3)
    kG = regular_module(G, 2)
    b1 = hom_space(kG, kG)
    b2 = hom_space(kG, kG)
    for x, y in zip(b1, b2):
        assert (x == y).all()


def test_induce_from_whole_group_is_identity():
    G = symmetric(3)
    W = whole_group(G)
    k = trivial_module(W.group, 2)
    ind = induce(k, W)
    assert ind.dim == 1
    assert all((a == b).all() for a, b in zip(
        ind.action, trivial_module(G, 2).action))


def test_induce_regular_from_trivial():
    # Ind_1^G k is the regular module, dimension |G|, with the same matrices
    G = symmetric(3)
    T = trivial_subgroup(G)
    for p in (2, 3):
        ind = induce(trivial_module(T.group, p), T)
        assert ind.dim == 6
        kG = regular_module(G, p)
        assert all((a == b).all() for a, b in zip(ind.action, kG.action))
        assert len(ind.action) == len(kG.action) == len(G.generators)


def test_restrict_dimensions_and_identity():
    G = symmetric(3)
    C2 = subgroup(G, ["(0 1)"])
    kG = regular_module(G, 2)
    res = restrict(kG, C2)
    assert res.dim == kG.dim
    W = whole_group(G)
    again = restrict(kG, W)
    assert again.dim == kG.dim
    for x in range(again.group.order):
        pass


def test_conjugate_module():
    G = symmetric(3)
    C2 = subgroup(G, ["(0 1)"], tag="C2")
    M = regular_module(C2.group, 2)
    g = G.index[(0, 2, 1)]  # the transposition (1 2)
    conj, target = conjugate_module(M, C2, g)
    assert conj.dim == M.dim
    assert target.order == 2
    # conjugating by an element of D itself gives an isomorphic module over D
    h = C2.element_indices[1]
    conj2, target2 = conjugate_module(M, C2, h)
    assert target2.element_indices == C2.element_indices
    assert len(hom_space(conj2, M)) >= 1


def test_adjunction_dim_identities():
    # dim Hom_G(Ind M, N) = dim Hom_H(M, Res N) and the two-sided version
    rng = np.random.default_rng(5)
    G = symmetric(3)
    C2 = subgroup(G, ["(0 1)"])
    for p in (2, 3):
        pool_c2, pool_g = _default_pool(C2.group, p), _default_pool(G, p)
        for _ in range(3):
            M = random_module(C2.group, p, 4, rng, pool_c2)
            N = random_module(G, p, 6, rng, pool_g)
            lhs = len(hom_space(induce(M, C2), N))
            rhs = len(hom_space(M, restrict(N, C2)))
            assert lhs == rhs
            lhs2 = len(hom_space(N, induce(M, C2)))
            rhs2 = len(hom_space(restrict(N, C2), M))
            assert lhs2 == rhs2


def test_unit_counit_triangle_identities():
    rng = np.random.default_rng(6)
    G = symmetric(3)
    C2 = subgroup(G, ["(0 1)"])
    p = 2
    M = random_module(C2.group, p, 4, rng)
    ind = induce(M, C2)
    # triangle: (eps_Ind) ∘ (Ind eta) = id on Ind M
    eta = unit_ind_res_on_base(M, C2)          # M -> Res Ind M
    eps = counit_ind_res(ind, C2)              # Ind Res Ind M -> Ind M
    r, d = ind.dim // M.dim, M.dim
    ind_eta = np.kron(np.eye(r, dtype=np.int64), eta)  # Ind M -> Ind Res Ind M
    composite = (eps @ ind_eta) % p
    assert (composite == np.eye(r * d, dtype=np.int64)).all()
    # triangle: (Res eps') ∘ (eta' Res) = id on Res N, for the other adjunction
    N = random_module(G, p, 5, rng)
    eta2 = unit_res_ind(N, C2)                  # N -> Ind Res N
    eps2 = counit_res_ind_on_base(restrict(N, C2), C2)  # Res Ind Res N -> Res N
    composite2 = (eps2 @ eta2) % p
    assert (composite2 == np.eye(N.dim, dtype=np.int64)).all()


def test_cohomological_identity():
    # eps ∘ eta = [G:H] id, exactly, independent of the module
    rng = np.random.default_rng(7)
    for p in (2, 3):
        G = alternating(4)
        V4 = subgroup(G, ["(0 1)(2 3)", "(0 2)(1 3)"])
        pool = _default_pool(G, p)
        for _ in range(3):
            N = random_module(G, p, 6, rng, pool)
            comp = cohomological_composite(N, V4)
            index = G.order // V4.order
            assert (comp == (index % p) * np.eye(N.dim, dtype=np.int64) % p).all()


def test_submodule_from_vectors():
    G = symmetric(3)
    kG = regular_module(G, 2)
    ones = np.ones(6, dtype=np.int64)
    sub = submodule_from_vectors(kG, [ones], name="fixline")
    assert sub.dim == 1  # the all-ones vector spans the fixed line
    for A in sub.action:
        assert (A == np.eye(1, dtype=np.int64)).all()


def test_submodule_from_vectors_spins_every_seed():
    # in kS3 ⊕ kS3 at p = 3, e6 and e0 generate the two free summands; the
    # span must spin from each seed, whatever the order of their pivots
    kG = regular_module(symmetric(3), 3)
    M = direct_sum(kG, kG)
    e0, e6 = np.eye(12, dtype=np.int64)[[0, 6]]
    for seeds in ([e6, e0], [e0, e6]):
        assert submodule_from_vectors(M, seeds).dim == 12


def test_random_module_determinism():
    G = symmetric(3)
    a = random_module(G, 2, 6, np.random.default_rng(42))
    b = random_module(G, 2, 6, np.random.default_rng(42))
    assert a.dim == b.dim
    assert all((x == y).all() for x, y in zip(a.action, b.action))


def test_module_json_roundtrip():
    G = symmetric(3)
    kG = regular_module(G, 3)
    doc = module_to_json(kG)
    back = module_from_json(doc)
    assert back.dim == kG.dim and back.p == kG.p
    assert all((a == b).all() for a, b in zip(back.action, kG.action))
    assert module_to_json(back) == doc


def test_trivial_group_modules():
    G = symmetric(3)
    T = trivial_subgroup(G)
    M = FpModule(T.group, 2, [], dim=3)
    assert M.dim == 3
    assert len(hom_space(M, M)) == 9  # no constraints at all
    ind = induce(M, T)
    assert ind.dim == 18


def test_group_prime_mismatch_errors():
    G = symmetric(3)
    with pytest.raises(InputError):
        hom_space(trivial_module(G, 2), trivial_module(G, 3))
    with pytest.raises(InputError):
        hom_space(trivial_module(G, 2), trivial_module(cyclic(6), 2))


def test_adjunction_dims_across_catalog():
    # dim Hom_G(Ind M, N) = dim Hom_H(M, Res N) and the two-sided version,
    # exactly, on every scenario chain
    from greencorr.catalog import scenario_chains

    rng = np.random.default_rng(77)
    for name, (G, H, D) in scenario_chains().items():
        for p in (2, 3):
            M = random_module(H.group, p, 4, rng)
            N = random_module(G, p, 5, rng)
            ind = induce(M, H)
            res = restrict(N, H)
            assert len(hom_space(ind, N)) == len(hom_space(M, res)), (name, p)
            assert len(hom_space(N, ind)) == len(hom_space(res, M)), (name, p)


def test_triangle_identities_across_catalog():
    # on every subgroup pair S <= G of the bridge groups and on H <= G of
    # every scenario chain: (eps_Ind) ∘ (Ind eta) = id on Ind M,
    # (Res eps') ∘ (eta' Res) = id on Res N, and eps ∘ eta = [G:S] id on N
    from greencorr.catalog import scenario_chains

    pairs = [(G, all_subgroups(G)) for G in bridge_groups().values()]
    pairs += [(G, [H]) for G, H, _ in scenario_chains().values()]
    rng = np.random.default_rng(78)
    for (G, subgroups), p in product(pairs, (2, 3, 5)):
        N = random_module(G, p, 4, rng)
        for S in subgroups:
            r = G.order // S.order
            M = random_module(S.group, p, 3, rng)
            ind = induce(M, S)
            assert ind.dim // M.dim == r
            ind_eta = np.kron(np.eye(r, dtype=np.int64),
                              unit_ind_res_on_base(M, S))
            assert ((counit_ind_res(ind, S) @ ind_eta) % p
                    == np.eye(ind.dim, dtype=np.int64)).all(), (S, p)
            eps = counit_res_ind_on_base(restrict(N, S), S)
            assert ((eps @ unit_res_ind(N, S)) % p
                    == np.eye(N.dim, dtype=np.int64)).all(), (S, p)
            assert (cohomological_composite(N, S)
                    == r % p * np.eye(N.dim, dtype=np.int64)).all(), (S, p)


def assert_bit_identical(A, B):
    """Same group, p, dim, name and generator matrices, int64 included."""
    assert A.group is B.group and A.p == B.p and A.dim == B.dim
    assert A.name == B.name
    assert len(A.action) == len(B.action)
    for a, b in zip(A.action, B.action):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(bridge_groups()))
def test_induce_gather_matches_the_coset_loops(name):
    G = bridge_groups()[name]
    rng = np.random.default_rng(79)
    for p in (2, 3, 5):
        assert_bit_identical(regular_module(G, p), loop_regular_module(G, p))
        for S in all_subgroups(G):
            M = random_module(S.group, p, 4, rng)
            assert_bit_identical(induce(M, S), loop_induce(M, S))
            assert_bit_identical(permutation_module(G, S, p),
                                 loop_permutation_module(G, S, p))


def test_induce_gather_on_degenerate_inputs():
    # a generator-free group, and dimension 0 over a group with generators
    G, E = symmetric(4), PermGroup(3, [])
    for grp, S in ((E, whole_group(E)), (G, subgroup(G, ["(0 1)"]))):
        for d in (0, 2):
            M = FpModule(S.group, 3, [np.eye(d, dtype=np.int64)
                                      for _ in S.group.generators], dim=d)
            assert_bit_identical(induce(M, S), loop_induce(M, S))
        assert_bit_identical(regular_module(grp, 3), loop_regular_module(grp, 3))
        assert_bit_identical(permutation_module(grp, S, 3),
                             loop_permutation_module(grp, S, 3))


def test_element_action_cache_concurrent_fill():
    # the element-action memo is write-once: concurrent fills agree
    from concurrent.futures import ThreadPoolExecutor

    G = symmetric(4)
    M = regular_module(G, 2)

    def fill(start):
        out = []
        for i in range(start, G.order, 4):
            out.append(M.element_action(i).copy())
        return out

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(fill, range(4)))
    fresh = regular_module(G, 2)
    for start, mats in enumerate(results):
        for k, mat in enumerate(mats):
            idx = start + 4 * k
            assert (mat == fresh.element_action(idx)).all()


def test_conjugate_module_defining_identity():
    # rho'(x) = rho(g^-1 x g) exactly, checked against the flipped convention
    G = symmetric(4)
    from greencorr.permgroups import subgroup as _sub

    S3 = _sub(G, ["(0 1)", "(0 1 2)"], tag="S3")
    M = regular_module(S3.group, 2)
    g = G.index[(0, 2, 3, 1)]  # a 3-cycle moving the subgroup
    assert len(G.subgroup_closure([g])) == 3
    conj, target = conjugate_module(M, S3, g)
    ginv = int(G.inv[g])
    flipped_breaks = False
    for pos, x in enumerate(target.group.gen_indices):
        amb = target.to_ambient[x]
        back = int(G.mult[G.mult[ginv, amb], g])       # g^-1 x g
        fwd = int(G.mult[G.mult[g, amb], ginv])        # g x g^-1 (wrong side)
        assert (conj.action[pos] == M.element_action(S3.from_ambient[back])).all()
        if back == fwd:
            continue
        # the flipped convention is either ill-typed (element outside the
        # source subgroup) or yields a different matrix
        if not S3.mask[fwd]:
            flipped_breaks = True
        elif (conj.action[pos] != M.element_action(S3.from_ambient[fwd])).any():
            flipped_breaks = True
    assert flipped_breaks


# ---------------------------------------------------------------------------
# the edge-batched hom solver against the dense system
# ---------------------------------------------------------------------------

def assert_same_basis(ours, oracle):
    assert len(ours) == len(oracle)
    for F, B in zip(ours, oracle):
        assert F.dtype == np.int64 and np.array_equal(F, B)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5]),
       group=st.sampled_from([symmetric(3), alternating(4), cyclic(4)]))
def test_hom_space_matches_dense_system(seed, p, group):
    rng = np.random.default_rng(seed)
    pool = _default_pool(group, p)
    M = random_module(group, p, 12, rng, pool)
    N = random_module(group, p, 12, rng, pool)
    for X, Y in ((M, N), (N, M), (M, M)):
        assert_same_basis(
            hom_space_from_actions(X.action, X.dim, Y.action, Y.dim, p),
            dense_hom_space(X.action, X.dim, Y.action, Y.dim, p))


@pytest.fixture(scope="module")
def mackey_ends():
    """(dim, p, actions) of each module of dimension 40 to 60 that one
    mackey_odd_p benchmark job (seed 0) hands to decompose: Res_H Ind_H^G of
    the pool modules of dims 4 and 5 over S3 at p = 3 and of dim 10 over D10
    at p = 5, and one induced module of dim 50 over D10.  decompose solves
    End on their support components only, so the modules are built here."""
    found = [(X.dim, X.p, X.action)
             for lhs, rhs, _ in mackey_job_modules(0)
             for X in (lhs, *rhs) if X.dim >= 40]
    assert sorted((d, p) for d, p, _ in found) == [(40, 3), (50, 3), (50, 5),
                                                   (60, 5)]
    return found


def test_mackey_ends_match_dense_system(mackey_ends):
    for dim, p, acts in mackey_ends:
        assert_same_basis(hom_space_from_actions(acts, dim, acts, dim, p),
                          dense_hom_space(acts, dim, acts, dim, p))


@pytest.mark.parametrize("dim, p", [(50, 3), (60, 5)])
def test_hom_space_working_set_is_bounded_by_its_basis(mackey_ends, dim, p):
    # the constraints fold into a running echelon basis one batch of edges
    # at a time, and the basis is reduced where it is built, so the peak
    # stays within a small multiple of what the call returns
    acts = next(a for d, q, a in mackey_ends if (d, q) == (dim, p))
    tracemalloc.start()
    try:
        basis = hom_space_from_actions(acts, dim, acts, dim, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(F.nbytes for F in basis)


# ---------------------------------------------------------------------------
# the spin against the reference spin over a SpanBuilder
# ---------------------------------------------------------------------------

@functools.cache
def bridge_pool(name: str, p: int) -> list[FpModule]:
    return _default_pool(bridge_groups()[name], p)


def assert_same_spin(action, dim, p):
    spin, ref = _SpinData(action, dim, p), ReferenceSpin(action, dim, p)
    assert spin.seeds == ref.seeds
    assert spin.prov == ref.prov
    assert spin.edges == ref.edges
    assert spin.basis.dtype == np.int64
    assert np.array_equal(spin.basis, ref.basis)
    span, pivots = spin.reduced_span()
    assert np.array_equal(span, ref.span.basis())
    assert pivots.tolist() == ref.span.pivots


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5]),
       name=st.sampled_from(sorted(bridge_groups())))
def test_spin_matches_reference_spin(seed, p, name):
    rng = np.random.default_rng(seed)
    pool = bridge_pool(name, p)
    M = random_module(bridge_groups()[name], p, 12, rng, pool)
    # a sum of two draws spins more than one orbit
    S = direct_sum(M, random_module(M.group, p, 12, rng, pool))
    for X in (M, S):
        assert_same_spin(X.action, X.dim, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_spin_without_generators_or_dimension(p):
    # with no generators every standard basis vector seeds an orbit of its
    # own, and no edge closes; in dimension 0 nothing is spun
    for dim in range(4):
        assert_same_spin([], dim, p)
        spin = _SpinData([], dim, p)
        assert spin.seeds == list(range(dim)) and not spin.edges
    acts = [np.zeros((0, 0), dtype=np.int64)] * 2
    assert_same_spin(acts, 0, p)
    assert _SpinData(acts, 0, p).basis.shape == (0, 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5]),
       name=st.sampled_from(sorted(bridge_groups())),
       count=st.integers(1, 4))
def test_submodule_matches_frontier_spin(seed, p, name, count):
    rng = np.random.default_rng(seed)
    pool = bridge_pool(name, p)
    X = direct_sum(pool[int(rng.integers(len(pool)))],
                   pool[int(rng.integers(len(pool)))])
    vectors = [rng.integers(0, p, size=X.dim) for _ in range(count)]
    # a start vector the span already holds adds nothing
    vectors.append((2 * vectors[0]) % p)
    sub = submodule_from_vectors(X, vectors)
    want = frontier_submodule_actions(X, vectors)
    assert len(sub.action) == len(want)
    for got, ref in zip(sub.action, want):
        assert got.dtype == np.int64 and np.array_equal(got, ref)
    assert sub.dim == want[0].shape[0]


def test_submodule_of_a_generator_free_group():
    # every subspace is a submodule: (2, 1) = 2 (1, 2) mod 3 adds nothing
    M = FpModule(closure([], degree=2), 3, [], dim=4)
    vectors = [np.array([1, 2, 0, 0]), np.array([2, 1, 0, 0]),
               np.array([0, 0, 0, 1])]
    assert submodule_from_vectors(M, vectors).dim == 2

