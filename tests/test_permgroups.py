import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greencorr.catalog import (
    a5,
    alternating,
    bridge_groups,
    cyclic,
    dihedral8,
    symmetric,
)
from greencorr.errors import InputError
from greencorr.permgroups import (
    SubgroupEmbedding,
    all_subgroups,
    class_representatives,
    closure,
    coerce_perm,
    coset_lookup,
    cycle_string,
    double_cosets,
    is_subconjugate,
    left_coset_representatives,
    normalizer,
    p_subgroups_up_to_conjugacy,
    parse_cycles,
    require_prime,
    subgroup,
    sylow,
    trivial_subgroup,
    whole_group,
    x_y_u_families,
)

from oracles import (
    brute_all_subgroups,
    brute_class_key,
    brute_closure,
    brute_coset_lookup,
    brute_double_cosets,
    brute_is_subconjugate,
    brute_normalizer,
    brute_tables,
    image_tuple_to_ambient,
    perm_inv,
    perm_mul,
    tables_isomorphic,
    two_walk_tree,
)

BRIDGE = {name: (G, all_subgroups(G)) for name, G in bridge_groups().items()}


def test_parse_cycles_roundtrip():
    p = parse_cycles("(0 1)(2 3)", 4)
    assert p == (1, 0, 3, 2)
    assert cycle_string(p) == "(0 1)(2 3)"
    assert parse_cycles("()", 3) == (0, 1, 2)
    with pytest.raises(InputError):
        parse_cycles("(0 5)", 3)
    with pytest.raises(InputError):
        coerce_perm([0, 0, 1], 3)
    # images must be integers: int() would read these as (1, 0, 2)
    for images in ([1.5, 0, 2], [True, 0, 2], ["1", 0, 2]):
        with pytest.raises(InputError):
            coerce_perm(images, 3)


def test_closure_trivial_and_s3():
    T = closure([], degree=3)
    assert T.order == 1
    S3 = closure(["(0 1)", "(0 1 2)"], degree=3)
    assert S3.order == 6
    assert S3.elements == tuple(sorted(S3.elements))


def test_closure_a5_order_60():
    # brute-force oracle on the same generators
    gens = [(1, 2, 3, 4, 0), (0, 1, 3, 4, 2)]
    assert len(brute_closure(gens, 5)) == 60
    assert a5().order == 60


def test_closure_degree_mismatch():
    with pytest.raises(InputError):
        closure([(1, 0), (1, 2, 0)])


def test_mult_table_consistency():
    G = symmetric(3)
    for i in range(G.order):
        for j in range(G.order):
            import greencorr.permgroups as pg
            assert G.elements[G.mult[i, j]] == pg.pmul(G.elements[i], G.elements[j])
        assert G.mult[i, G.inv[i]] == G.identity


@pytest.mark.parametrize("G", [*bridge_groups().values(), symmetric(5),
                               closure([], degree=0), closure([], degree=1)],
                         ids=[*bridge_groups(), "S5", "degree 0", "degree 1"])
def test_tables_match_per_pair_oracle(G):
    mult, inv = brute_tables(G)
    assert G.mult.dtype == mult.dtype and G.inv.dtype == inv.dtype
    assert (G.mult == mult).all()
    assert (G.inv == inv).all()


def assert_closure_matches_references(G):
    """G's elements, spanning tree and tables against the brute-force closure
    and tables and the two-walk construction of the tree."""
    assert list(G.elements) == brute_closure(G.generators, G.degree)
    elements, factor_of = two_walk_tree(G.generators, G.degree)
    assert list(G.elements) == elements
    assert G.factor_of == factor_of
    mult, inv = brute_tables(G)
    assert np.array_equal(G.mult, mult) and np.array_equal(G.inv, inv)
    conj = [[G.index[perm_mul(perm_mul(g, x), perm_inv(g))]
             for x in G.elements] for g in G.elements]
    assert G.conj.tolist() == conj


CLOSURE_GROUPS = {**bridge_groups(), "A5": a5(), "S5": symmetric(5)}


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_closure_of_every_subgroup_matches_references(name):
    G = CLOSURE_GROUPS[name]
    subgroups = BRIDGE[name][1] if name in BRIDGE else all_subgroups(G)
    assert_closure_matches_references(G)
    for S in subgroups:
        assert_closure_matches_references(S.group)


@pytest.mark.parametrize("gens, degree", [
    (["(0 1)", "(0 1)", "(0 1 2)"], 3), (["(0 1 2 3 4 5 6)"], 7),
    ([], 0), ([], 1)], ids=["repeated generator", "C7", "degree 0", "S1"])
def test_closure_of_small_groups_matches_references(gens, degree):
    G = closure(gens, degree=degree)
    assert_closure_matches_references(G)
    assert G.factor_of[G.identity] is None


def test_factorization_tree():
    G = symmetric(4)
    for i in range(G.order):
        step = G.factor_of[i]
        if step is None:
            assert i == G.identity
        else:
            parent, gpos = step
            assert G.mult[parent, G.gen_indices[gpos]] == i


def test_double_cosets_s3():
    G = symmetric(3)
    H = subgroup(G, ["(0 1)"])
    dcs = double_cosets(G, H, H)
    assert len(dcs) == 2
    assert sorted(S.order for _, S in dcs) == [1, 2]
    # identity class has representative identity with intersection H
    assert dcs[0][0] == G.identity and dcs[0][1].order == 2


def test_double_cosets_match_bruteforce():
    G = symmetric(4)
    H = subgroup(G, ["(0 1 2 3)"])
    K = subgroup(G, ["(0 1)", "(2 3)"])
    ours = double_cosets(G, H, K)
    Helems = [G.elements[i] for i in H.element_indices]
    Kelems = [G.elements[i] for i in K.element_indices]
    brute = brute_double_cosets(G.elements, Helems, Kelems)
    assert len(ours) == len(brute)
    assert sorted(len(orb) for _, orb in brute) == sorted(
        H.order * K.order // S.order for _, S in ours)


def test_double_cosets_match_bruteforce_on_bridge_pairs():
    # every subgroup pair of the bridge groups: the same representatives in
    # the same order, and each intersection H ∩ gKg^-1 of the size the
    # class gives
    for G, subs in BRIDGE.values():
        elems = [[G.elements[i] for i in S.element_indices] for S in subs]
        for H, he in zip(subs, elems):
            for K, ke in zip(subs, elems):
                brute = brute_double_cosets(G.elements, he, ke)
                ours = double_cosets(G, H, K)
                assert [G.elements[g] for g, _ in ours] == [g for g, _ in brute]
                for (g, S), (_, orbit) in zip(ours, brute):
                    assert all(H.mask[x] and K.mask[G.conj[G.inv[g], x]]
                               for x in S.element_indices)
                    assert len(orbit) * S.order == H.order * K.order


def test_double_cosets_whole_group():
    G = symmetric(3)
    W = whole_group(G)
    dcs = double_cosets(G, W, W)
    assert len(dcs) == 1
    assert dcs[0][0] == G.identity and dcs[0][1].order == G.order


def test_normalizer():
    G = symmetric(3)
    D = subgroup(G, ["(0 1)"])
    assert normalizer(G, D).element_indices == D.element_indices
    A3 = subgroup(G, ["(0 1 2)"])
    assert normalizer(G, A3).order == 6  # normal subgroup
    A = a5()
    V4 = sylow(A, 2)
    N = normalizer(A, V4)
    assert N.order == 12


def test_sylow():
    S4 = symmetric(4)
    assert sylow(S4, 2).order == 8
    assert sylow(S4, 3).order == 3
    assert sylow(S4, 5).order == 1  # p does not divide |G|
    P = sylow(cyclic(8), 2)
    assert P.order == 8
    A = a5()
    V4 = sylow(A, 2)
    assert V4.order == 4
    orders = sorted(len(A.subgroup_closure([x])) for x in V4.element_indices)
    assert orders == [1, 2, 2, 2]  # Klein four group
    with pytest.raises(InputError):
        sylow(S4, 4)


def test_p_subgroups_up_to_conjugacy():
    A = a5()
    V4 = sylow(A, 2)
    classes = p_subgroups_up_to_conjugacy(A, V4)
    assert [S.order for S in classes] == [4, 2, 1]
    G = cyclic(6)
    triv = trivial_subgroup(G)
    assert [S.order for S in p_subgroups_up_to_conjugacy(G, triv)] == [1]
    C2 = subgroup(symmetric(3), ["(0 1)"])
    assert [S.order for S in p_subgroups_up_to_conjugacy(symmetric(3), C2)] == [2, 1]


def test_all_subgroups_counts():
    # classical subgroup counts
    assert len(all_subgroups(symmetric(3))) == 6
    assert len(all_subgroups(cyclic(6))) == 4
    assert len(all_subgroups(dihedral8())) == 10
    assert len(all_subgroups(alternating(4))) == 10
    assert len(all_subgroups(symmetric(4))) == 30


def test_families_h_equals_g():
    G = symmetric(3)
    W = whole_group(G)
    fam = x_y_u_families(G, W, W)
    assert fam.x_pairs == [] and fam.y_pairs == [] and fam.u_pairs == []


def test_families_s3():
    G = symmetric(3)
    H = subgroup(G, ["(0 1)"])
    fam = x_y_u_families(G, H, H)
    assert [S.order for S in fam.x_classes] == [1]
    assert [S.order for S in fam.y_classes] == [1]
    assert [S.order for S in fam.u_classes] == [1]


def test_families_a5():
    G, H, D = __import__("greencorr.catalog", fromlist=["chain_a5_a4_v4"]).chain_a5_a4_v4()
    fam = x_y_u_families(G, H, D)
    assert [S.order for S in fam.x_classes] == [1]


def test_families_chain_violation():
    G = symmetric(4)
    H = subgroup(G, ["(0 1)"])
    D = subgroup(G, ["(0 1 2)"])
    with pytest.raises(InputError):
        x_y_u_families(G, H, D)


def test_conjugation_invariance_of_families():
    # replacing representatives by conjugates leaves the class sets unchanged
    G = symmetric(4)
    H = subgroup(G, ["(0 1 2 3)", "(0 2)"], tag="D8")
    D = subgroup(G, ["(0 1 2 3)"], tag="C4")
    fam = x_y_u_families(G, H, D)
    keys = {S.canonical_class_key for _, S in fam.x_pairs}
    for g, S in fam.x_pairs:
        for t in range(G.order):
            assert S.conjugated(t).canonical_class_key in keys


def test_coset_representatives():
    G = symmetric(3)
    H = subgroup(G, ["(0 1)"])
    reps = left_coset_representatives(G, H)
    assert len(reps) == 3
    assert reps[0] == G.identity
    seen = set()
    for r in reps:
        for s in H.element_indices:
            seen.add(int(G.mult[r, s]))
    assert len(seen) == 6


def test_subgroup_embedding_validation():
    G = symmetric(3)
    with pytest.raises(InputError):
        SubgroupEmbedding(G, (1, 2))  # not closed


def test_is_subconjugate():
    A = a5()
    V4 = sylow(A, 2)
    classes = p_subgroups_up_to_conjugacy(A, V4)
    C2 = next(S for S in classes if S.order == 2)
    assert is_subconjugate(A, C2, V4)
    assert not is_subconjugate(A, V4, C2)


def test_subgroup_group_view():
    G = symmetric(4)
    D8 = subgroup(G, ["(0 1 2 3)", "(0 2)"])
    sub = D8.group
    assert sub.order == 8
    # embedding maps subgroup elements to matching ambient indices
    for i, amb in enumerate(D8.to_ambient):
        assert sub.elements[i] == G.elements[amb]


@pytest.mark.parametrize("name", sorted(BRIDGE))
def test_embedding_maps_and_containment_match_the_oracles(name):
    # a subgroup is its sorted element indices: to_ambient is that tuple,
    # and contains reads the membership mask
    G, subs = BRIDGE[name]
    for S in subs:
        want = image_tuple_to_ambient(S)
        assert S.to_ambient == want
        assert S.from_ambient == {a: i for i, a in enumerate(want)}
    for A in subs:
        for B in subs:
            assert A.contains(B) == (
                frozenset(B.element_indices) <= frozenset(A.element_indices))


def test_a5_nonstandard_generators_order():
    # closure count oracle for <(0 1 2 3 4), (0 1 2)>
    gens = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]
    assert len(brute_closure(gens, 5)) == 60
    assert closure(gens).order == 60


def test_normalizer_order_divisible_by_subgroup():
    for G in (symmetric(4), a5()):
        for gens in (["(0 1)(2 3)"], ["(0 1 2)"]):
            D = subgroup(G, gens)
            N = normalizer(G, D)
            assert N.order % D.order == 0
            assert N.contains(D)


def test_normalizer_of_v4_in_a5_is_a4():
    # |N| = 12 and the abstract group is A4, by table isomorphism
    A = a5()
    V4 = sylow(A, 2)
    N = normalizer(A, V4)
    assert N.order == 12

    def mult_table(P):
        return np.array([[P.mult[i, j] for j in range(P.order)]
                         for i in range(P.order)])

    assert tables_isomorphic(mult_table(N.group), mult_table(alternating(4)))
    # and it is not the other order-12 candidates
    assert not tables_isomorphic(mult_table(N.group), mult_table(cyclic(12)))


def test_all_subgroups_match_oracle():
    for name, (G, subs) in BRIDGE.items():
        want = sorted(brute_all_subgroups(G), key=lambda e: (len(e), e))
        assert [S.element_indices for S in subs] == want, name
        # one member per class, the first in input order
        first = {}
        for S in subs:
            first.setdefault(brute_class_key(G, S.element_indices), S)
        assert class_representatives(subs) == list(first.values()), name


def test_all_subgroups_s5():
    subs = all_subgroups(symmetric(5))
    assert len(subs) == 156
    assert len(class_representatives(subs)) == 19


def test_subgroup_embedding_rejects_missing_inverse():
    G = symmetric(3)
    r = G.index[parse_cycles("(0 1 2)", 3)]
    with pytest.raises(InputError, match="inverse"):
        SubgroupEmbedding(G, (G.identity, r))


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(BRIDGE)), data=st.data())
def test_subgroup_calculus_matches_oracles(name, data):
    G, subs = BRIDGE[name]
    A = data.draw(st.sampled_from(subs), label="A")
    B = data.draw(st.sampled_from(subs), label="B")
    g = data.draw(st.integers(0, G.order - 1), label="g")
    a, b = A.element_indices, B.element_indices

    key = brute_class_key(G, a)
    assert A.canonical_class_key == key
    assert A.conjugated(g).canonical_class_key == key
    assert normalizer(G, A).element_indices == brute_normalizer(G, a)
    assert is_subconjugate(G, A, B) == brute_is_subconjugate(G, a, b)

    reps, where = coset_lookup(G, A)
    assert (reps, where.tolist()) == brute_coset_lookup(G, a)
    assert left_coset_representatives(G, A) == reps

    # double cosets A g B on permutations, with A ∩ gBg^-1
    E = G.elements
    brute = brute_double_cosets(E, [E[x] for x in a], [E[y] for y in b])
    ours = double_cosets(G, A, B)
    assert [rep for rep, _ in ours] == [G.index[rep] for rep, _ in brute]
    Bperms = {E[y] for y in b}
    for (rep, inter), (_, orbit) in zip(ours, brute):
        r = E[rep]
        assert inter.element_indices == tuple(
            x for x in a if perm_mul(perm_mul(perm_inv(r), E[x]), r) in Bperms)
        assert len(orbit) == A.order * B.order // inter.order


def test_fingerprint_is_the_exact_degree_elements_and_generators():
    G = symmetric(3)
    assert G.fingerprint == b"".join(
        [b"3|", *(bytes(e) for e in G.elements),
         *(bytes(g) for g in G.generators)])


def test_fingerprint_tells_constructions_apart_by_their_generators():
    gens = ["(0 1)", "(0 1 2)"]
    key = closure(gens, degree=3).fingerprint
    assert closure(list(gens), degree=3).fingerprint == key
    assert closure([(1, 0, 2), (1, 2, 0)]).fingerprint == key
    # the same elements from other generators, or in another order
    assert closure(["(0 1)", "(1 2)"], degree=3).fingerprint != key
    assert closure(gens[::-1], degree=3).fingerprint != key
    # the same generators fixing one more point
    assert closure(gens, degree=4).fingerprint != key


def test_fingerprint_takes_two_bytes_a_point_above_degree_256():
    gens = ["(0 1)", "(2 299)"]
    key = closure(gens, degree=300).fingerprint
    # 4 elements and 2 generators of 300 points, two bytes a point
    assert len(key) == len(b"300|") + 6 * 300 * 2
    assert closure(list(gens), degree=300).fingerprint == key
    assert closure(["(0 1)", "(2 298)"], degree=300).fingerprint != key
    assert closure(gens, degree=301).fingerprint != key
    # up to degree 256 a point takes one byte
    assert len(closure(["(0 255)"], degree=256).fingerprint) == \
        len(b"256|") + 3 * 256


def test_require_prime_agrees_with_trial_division():
    for n in range(-3, 20000):
        prime = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        try:
            require_prime(n)
        except InputError as e:
            assert not prime and str(e) == f"{n} is not prime"
        else:
            assert prime, n


# each is the least strong pseudoprime to the first k primes as bases, for
# k = 4, 11 and 12 (3215031751 = 151 * 751 * 28351 passes the bases 2, 3, 5
# and 7), so a Miller-Rabin with too few bases calls it prime
@pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_require_prime_refuses_strong_pseudoprimes(n):
    with pytest.raises(InputError, match=f"^{n} is not prime$"):
        require_prime(n)


def test_require_prime_accepts_large_primes_and_refuses_past_its_bound():
    for p in (2 ** 61 - 1, 10 ** 18 + 3, 2 ** 64 - 59):
        require_prime(p)
    with pytest.raises(InputError, match="bound is 3317044064679887385961981"):
        require_prime(3317044064679887385961981)
