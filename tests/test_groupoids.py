import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from greencorr.catalog import bridge_groups, cyclic, symmetric
from greencorr.errors import InputError
from greencorr.groupoids import (
    CommaSquare,
    GroupoidFunctor,
    TwoCell,
    _distinct,
    compose_functors,
    connected_components,
    full_subgroupoid,
    group_groupoid,
    identity_functor,
    induced_comparison,
    is_equivalence,
    is_mackey_square,
    isocomma,
    isocomma_square,
    paste_squares,
    subgroup_inclusion,
)
from greencorr.permgroups import all_subgroups, double_cosets, subgroup, trivial_subgroup

from oracles import (
    ORACLE_PAIRS,
    BruteGroupoid,
    RelabeledGroupoid,
    assert_matches_span_construction,
    assert_object_index_agrees,
    assert_same_groupoid,
    brute_isocomma,
    brute_isocomma_components,
    sweep_bridge_groups,
    tables_isomorphic,
)


def s3_c2_setup():
    G = symmetric(3)
    C2 = subgroup(G, ["(0 1)"], tag="C2")
    Ggpd = group_groupoid(G, "S3")
    i = subgroup_inclusion(C2, Ggpd)
    return G, C2, Ggpd, i


def s3_c2_isocomma():
    """B = (C2/C2/S3) for C2 = <(0 1)>: 6 objects in 2 components, one of 2
    objects with automorphism group C2 and one of 4 with a trivial one."""
    G, C2, Ggpd, i = s3_c2_setup()
    return isocomma(i, i).groupoid


def test_group_groupoid_axioms():
    G = symmetric(3)
    gpd = group_groupoid(G)
    gpd.validate()
    assert gpd.n_objects == 1 and gpd.n_morphisms == 6
    comps = gpd.components
    assert len(comps) == 1
    assert comps[0].aut_order == 6
    table = comps[0].aut_table(gpd)
    assert (table == G.mult).all()


def test_isocomma_trivial_group():
    T = group_groupoid(symmetric(1), "1")
    i = identity_functor(T)
    iso = isocomma(i, i)
    assert iso.groupoid.n_objects == 1
    assert iso.groupoid.n_morphisms == 1
    iso.groupoid.validate()


def test_isocomma_identity_leg_is_equivalence():
    # u = Id_G, i : H -> G faithful: the comparison <Id_H, i, id_i> is an equivalence
    G, C2, Ggpd, i = s3_c2_setup()
    u = identity_functor(Ggpd)
    iso = isocomma(i, u)
    iso.groupoid.validate()
    H = i.domain
    cell = TwoCell(i, compose_functors(u, i),
                   [Ggpd.identity_morphism(i.obj(0))], check=True)
    square = CommaSquare(i, u, identity_functor(H), i, cell)
    comp = induced_comparison(square, iso)
    comp.validate()
    assert is_equivalence(comp)
    assert is_mackey_square(square)


def test_isocomma_own_square_is_mackey():
    G, C2, Ggpd, i = s3_c2_setup()
    iso = isocomma(i, i)
    square = isocomma_square(iso)
    comp = induced_comparison(square, iso)
    # the comparison of the isocomma's own square is the identity up to relabeling
    assert (comp.obj_map == np.arange(iso.groupoid.n_objects)).all()
    assert (comp.mor_map == np.arange(iso.groupoid.n_morphisms)).all()
    assert is_mackey_square(square)


def test_isocomma_s3_c2_c2():
    # frozen from the brute-force oracle: 2 components, aut orders {2, 1}
    G, C2, Ggpd, i = s3_c2_setup()
    iso = isocomma(i, i)
    iso.groupoid.validate()
    i.validate()
    iso.pr1.validate()
    iso.pr2.validate()
    iso.gamma.validate()
    assert iso.groupoid.n_objects == 6
    comps = iso.groupoid.components
    assert len(comps) == 2
    assert sorted(c.aut_order for c in comps) == [1, 2]
    Helems = [G.elements[k] for k in C2.element_indices]
    oracle = brute_isocomma_components(G.elements, Helems, Helems)
    assert sorted(a for _, a in oracle) == [1, 2]
    assert sorted(len(objs) for objs, _ in oracle) == sorted(
        len(c.objects) for c in comps)


def test_isocomma_codomain_mismatch():
    G, C2, Ggpd, i = s3_c2_setup()
    other = group_groupoid(symmetric(3), "S3'")
    with pytest.raises(InputError):
        isocomma(i, identity_functor(other))


def test_comparison_not_full():
    # L = trivial group over the cospan C2 = C2 <- C2 with gamma = id:
    # the comparison is not full (target automorphism group has order 2)
    C2grp = cyclic(2)
    C2 = group_groupoid(C2grp, "C2")
    idc2 = identity_functor(C2)
    triv_into = subgroup_inclusion(trivial_subgroup(C2grp), C2)
    L = triv_into.domain
    cell = TwoCell(compose_functors(idc2, triv_into),
                   compose_functors(idc2, triv_into),
                   [C2.identity_morphism(triv_into.obj(0))])
    square = CommaSquare(idc2, idc2, triv_into, triv_into, cell)
    comp = induced_comparison(square)
    comp.validate()
    iso = isocomma(idc2, idc2)
    assert iso.groupoid.n_objects == 2
    assert not is_equivalence(comp)
    assert not is_mackey_square(square)
    # exhaustive fullness refutation on the 2-object isocomma
    img = comp.obj(0)
    assert len(iso.groupoid.hom(img, img)) == 2
    assert len(L.hom(0, 0)) == 1


def test_is_equivalence_basics():
    A = group_groupoid(symmetric(3), "S3")
    assert is_equivalence(identity_functor(A))
    C2grp = cyclic(2)
    C2 = group_groupoid(C2grp, "C2")
    triv_into = subgroup_inclusion(trivial_subgroup(C2grp), C2)
    assert not is_equivalence(triv_into)  # not full


def test_skeleton_inclusion_is_equivalence():
    # inclusion of one object per component with full automorphisms
    G, C2, Ggpd, i = s3_c2_setup()
    iso = isocomma(i, i)
    P = iso.groupoid
    bases = [c.base for c in P.components]
    skel, incl = full_subgroupoid(P, bases, name="skeleton")
    skel.validate()
    incl.validate()
    assert is_equivalence(incl)
    # dropping a whole component breaks essential surjectivity
    part, pincl = full_subgroupoid(P, [bases[0]])
    assert not is_equivalence(pincl)


def test_is_equivalence_matches_bruteforce():
    # brute-force fullness/faithfulness/ess-surjectivity oracle
    def brute(F):
        dom, cod = F.domain, F.codomain
        for x in range(dom.n_objects):
            for y in range(dom.n_objects):
                imgs = [F.mor(m) for m in dom.hom(x, y)]
                if len(set(imgs)) != len(imgs):
                    return False
        for x in range(dom.n_objects):
            for y in range(dom.n_objects):
                image = {F.mor(m) for m in dom.hom(x, y)}
                if set(cod.hom(F.obj(x), F.obj(y))) != image:
                    return False
        # essential surjectivity by per-object search
        for z in range(cod.n_objects):
            if not any(
                cod.hom(F.obj(x), z) for x in range(dom.n_objects)
            ) and not any(F.obj(x) == z for x in range(dom.n_objects)):
                return False
        return True

    G, C2, Ggpd, i = s3_c2_setup()
    iso = isocomma(i, i)
    bases = [c.base for c in iso.groupoid.components]
    cand = [
        identity_functor(iso.groupoid),
        full_subgroupoid(iso.groupoid, bases)[1],
        full_subgroupoid(iso.groupoid, [bases[0]])[1],
        i,
        subgroup_inclusion(trivial_subgroup(G), Ggpd),
    ]
    for F in cand:
        assert is_equivalence(F) == brute(F)


def test_double_coset_component_bridge_small():
    # for one-object groupoids H, K <= G: components of (H/K/G) match K\G/H
    # with automorphism orders; exhaustive at |G| <= 12 here (S4 in acceptance)
    for name, G in bridge_groups().items():
        if G.order > 12:
            continue
        Ggpd = group_groupoid(G, name)
        pool = all_subgroups(G)
        for H in pool:
            for K in pool:
                iso = isocomma(subgroup_inclusion(H, Ggpd),
                               subgroup_inclusion(K, Ggpd))
                comps = iso.groupoid.components
                dcs = double_cosets(G, K, H)
                assert len(comps) == len(dcs)
                assert sorted(c.aut_order for c in comps) == sorted(
                    S.order for _, S in dcs)


BRIDGE = {name: (G, all_subgroups(G)) for name, G in bridge_groups().items()}
# (group, H, K) for every subgroup pair whose isocomma (H/K/G), with
# |G| |H|^2 |K|^2 composable pairs, fits the oracle: 1,097 of the 1,152
BRIDGE_CASES = [(name, h, k) for name, (G, subs) in BRIDGE.items()
                for h, H in enumerate(subs) for k, K in enumerate(subs)
                if G.order * (H.order * K.order) ** 2 <= ORACLE_PAIRS]


@settings(max_examples=30)
@given(case=st.sampled_from(BRIDGE_CASES))
def test_isocomma_matches_per_morphism_oracle(case):
    name, h, k = case
    G, subs = BRIDGE[name]
    Ggpd = group_groupoid(G, name)
    iso = isocomma(subgroup_inclusion(subs[h], Ggpd),
                   subgroup_inclusion(subs[k], Ggpd))
    brute, parts, _ = brute_isocomma(iso.left, iso.right)
    assert_same_groupoid(iso.groupoid, brute)
    o, a, b = iso.morphism_parts()
    assert list(zip(o.tolist(), a.tolist(), b.tolist())) == parts
    assert iso.object_index(*iso.object_parts()).tolist() == list(
        range(iso.groupoid.n_objects))
    assert iso.morphism_index(o, a, b).tolist() == list(
        range(iso.groupoid.n_morphisms))


@settings(max_examples=2, deadline=None)
@example(seed=0)
@given(seed=st.integers(0, 2**32 - 1))
def test_closed_form_isocomma_matches_the_span_construction(seed):
    # every subgroup pair of the bridge groups, with the points relabeled as
    # the groupoid_sweep benchmark relabels them for this seed: the one-object
    # closed form is bit-identical to the general construction
    for name, (G, subs) in sweep_bridge_groups(seed).items():
        Ggpd = group_groupoid(G, name)
        inclusions = [subgroup_inclusion(S, Ggpd) for S in subs]
        for iH in inclusions:
            for iK in inclusions:
                assert_matches_span_construction(isocomma(iH, iK))


def test_closed_form_isocomma_over_other_codomains():
    # one-object legs into the isocomma B, whose compositions must broadcast
    # as the group tables' do: the full subgroupoids on two objects x, y of
    # B, over the hom-set between them, of 2 morphisms inside the component
    # of 2 objects, 1 inside the other and 0 across the two
    B = s3_c2_isocomma()
    comp_of = B.component_of()
    sizes = {}
    for x in range(B.n_objects):
        for y in range(B.n_objects):
            iso = isocomma(full_subgroupoid(B, [x])[1], full_subgroupoid(B, [y])[1])
            n = iso.groupoid.n_objects
            assert n == len(B.hom(x, y)) and (n > 0) == (comp_of[x] == comp_of[y])
            sizes[n] = sizes.get(n, 0) + 1
            assert_matches_span_construction(iso)
    assert sizes == {2: 4, 1: 16, 0: 16}


def test_pasting_property_lem_3_6():
    # vertical pasting: with the bottom square Mackey, the composite is Mackey
    # iff the top square is (2-out-of-3 in both usable directions)
    G, C2, Ggpd, i = s3_c2_setup()
    bottom_iso = isocomma(i, i)
    bottom = isocomma_square(bottom_iso)
    K = i.domain
    # (a) Mackey top: composite must be Mackey
    top_iso = isocomma(bottom.j, identity_functor(K))
    top = isocomma_square(top_iso)
    assert is_mackey_square(top)
    composite = paste_squares(bottom, top)
    assert is_mackey_square(bottom)
    assert is_mackey_square(composite)
    # (b) non-Mackey top: composite must not be Mackey (contrapositive).
    # Apex = trivial group sent to an object with automorphism group of
    # order 2, so the comparison cannot be full.
    P = bottom_iso.groupoid
    big = next(c for c in P.components if c.aut_order == 2)
    T = group_groupoid(symmetric(1), "1")
    v_bad = GroupoidFunctor(T, P, [big.base], [P.identity_morphism(big.base)])
    j_bad = GroupoidFunctor(T, K, [bottom.j.obj(big.base)],
                            [K.identity_morphism(bottom.j.obj(big.base))])
    bad_cell = TwoCell(
        compose_functors(bottom.j, v_bad),
        compose_functors(identity_functor(K), j_bad),
        [K.identity_morphism(bottom.j.obj(big.base))])
    bad_top = CommaSquare(bottom.j, identity_functor(K), v_bad, j_bad, bad_cell)
    bad_composite = paste_squares(bottom, bad_top)
    assert not is_mackey_square(bad_top)
    assert not is_mackey_square(bad_composite)


def test_pasting_property_randomized():
    # seeded random small squares over subgroup cospans, |G| <= 8
    import random

    rng = random.Random(7)
    G = cyclic(8)
    Ggpd = group_groupoid(G, "C8")
    subs = all_subgroups(G)
    for _ in range(12):
        H = rng.choice(subs)
        K = rng.choice(subs)
        bottom = isocomma_square(isocomma(
            subgroup_inclusion(H, Ggpd), subgroup_inclusion(K, Ggpd)))
        M = rng.choice(subs)
        Kgpd = bottom.u.domain
        w_emb = subgroup(G, [G.elements[x] for x in M.element_indices])
        # w : M -> K only makes sense if M <= K; skip otherwise
        if not K.contains(M):
            continue
        sub_in_k = [K.from_ambient[x] for x in M.element_indices]
        Mgrp = M.group
        mor_map = [K.from_ambient[a] for a in M.to_ambient]
        w = GroupoidFunctor(group_groupoid(Mgrp, "M"), Kgpd, [0], mor_map)
        top = isocomma_square(isocomma(bottom.j, w))
        composite = paste_squares(bottom, top)
        assert is_mackey_square(top)
        assert is_mackey_square(composite)


def test_two_cell_endpoint_validation():
    G, C2, Ggpd, i = s3_c2_setup()
    C3 = subgroup_inclusion(subgroup(G, ["(0 1 2)"]), Ggpd)
    with pytest.raises(InputError):
        # component is not a morphism i(x) -> i(x) when endpoints mismatch
        TwoCell(i, i, [C3.mor_map[1]]) if int(C3.mor_map[1]) not in [
            int(m) for m in Ggpd.hom(0, 0)
        ] else (_ for _ in ()).throw(InputError("loop"))
    # naturality failure: a non-central loop as the component of id => id
    noncentral = None
    for m in Ggpd.hom(0, 0):
        ok = all(
            Ggpd.compose(m, g) == Ggpd.compose(g, m) for g in Ggpd.hom(0, 0))
        if not ok:
            noncentral = m
            break
    assert noncentral is not None
    ident = identity_functor(Ggpd)
    with pytest.raises(InputError):
        TwoCell(ident, ident, [noncentral])


def test_relabeling_invariance():
    # isocomma followed by connected_components is invariant under relabeling
    G = symmetric(3)
    Ggpd = group_groupoid(G, "S3")
    for gens in (["(0 1)"], ["(1 2)"], ["(0 2)"]):
        C = subgroup(G, gens)
        iso = isocomma(subgroup_inclusion(C, Ggpd), subgroup_inclusion(C, Ggpd))
        assert sorted(c.aut_order for c in iso.groupoid.components) == [1, 2]


def test_tables_isomorphic():
    t_c4 = np.array([[(i + j) % 4 for j in range(4)] for i in range(4)])
    t_v4 = np.array([[i ^ j for j in range(4)] for i in range(4)])
    assert tables_isomorphic(t_c4, t_c4)
    assert tables_isomorphic(t_v4, t_v4)
    assert not tables_isomorphic(t_c4, t_v4)


def test_faithful_flag():
    G, C2, Ggpd, i = s3_c2_setup()
    assert i.faithful
    # collapse C2 onto the identity: not faithful
    collapse = GroupoidFunctor(i.domain, Ggpd, [0],
                               [Ggpd.identity_morphism(0)] * 2)
    assert not collapse.faithful


@settings(max_examples=80)
@given(a=st.one_of(
    st.lists(st.integers(-2**40, 2**40), max_size=12),
    arrays(st.sampled_from([np.int32, np.int64]),
           array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
           elements=st.integers(-4, 4))))
@example(a=[])
@example(a=np.zeros(0, dtype=np.int32))
@example(a=np.full(5, 7))
@example(a=np.full((3, 2), -1))
@example(a=np.array([3, -2, 3, -2, -9], dtype=np.int32))
def test_distinct_matches_numpy_unique(a):
    got, want = _distinct(a), np.unique(a)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_object_index_matches_key_search_on_bridge_pairs():
    # the gather pair_start[x * nB + y] + C.hom_rank[g] against the binary
    # search of the object keys, on every subgroup pair of the bridge groups
    for name, (G, subs) in BRIDGE.items():
        Ggpd = group_groupoid(G, name)
        inclusions = [subgroup_inclusion(S, Ggpd) for S in subs]
        for iH in inclusions:
            for iK in inclusions:
                assert_object_index_agrees(isocomma(iH, iK), scalars=4)


def test_object_index_raises_outside_hom():
    # a one-object leg at x into B against the identity of B: hom(x, y) is
    # empty for every y of the other component, and a g outside hom(x, x)
    # names no object over y = x
    B = s3_c2_isocomma()
    x = B.components[0].base
    other = B.components[1]
    iso = isocomma(full_subgroupoid(B, [x])[1], identity_functor(B))
    assert iso.groupoid.n_objects == 4 == sum(
        len(B.hom(x, y)) for y in range(B.n_objects))
    assert_object_index_agrees(iso)
    n = B.n_morphisms
    for y in other.objects:
        for g in range(n):
            with pytest.raises(KeyError):
                iso.object_index(0, y, g)
    outside = [g for g in range(n) if g not in B.hom(x, x)]
    for g in outside:
        with pytest.raises(KeyError):
            iso.object_index(0, x, g)
    with pytest.raises(KeyError):
        iso.object_index(np.zeros(2, dtype=int), [x, x], [B.hom(x, x)[0], outside[0]])
    # indices out of range, which numpy would wrap or refuse
    for o, y, g in ((0, x, -1), (0, -1, 0), (-1, x, 0), (1, x, 0),
                    (0, B.n_objects, 0), (0, x, n)):
        with pytest.raises(KeyError):
            iso.object_index(o, y, g)


def test_isocomma_gamma_is_built_when_read():
    G, C2, Ggpd, i = s3_c2_setup()
    iso = isocomma(i, i)
    assert "gamma" not in vars(iso)
    gamma = iso.gamma
    assert iso.gamma is gamma
    gamma.validate()
    assert (gamma.components == iso.groupoid.g).all()
    assert gamma.source_functor.mor_map.tolist() == \
        i.mor_map[iso.pr1.mor_map].tolist()


def brute_components(G):
    return BruteGroupoid(list(G.objects), G.msrc.tolist(), G.mtgt.tolist(),
                         G.ident.tolist(), None, None).components()


def test_connected_components_empty_groupoid():
    G, C2, Ggpd, i = s3_c2_setup()
    S, incl = full_subgroupoid(Ggpd, [])
    assert S.n_morphisms == 0
    assert S.components == [] == brute_components(S)
    assert S.component_of().tolist() == []


def test_relabeled_groupoid_is_an_isomorphic_copy():
    # the renumbering q, m is a functor B -> the view, and an equivalence
    rng = np.random.default_rng(3)
    B = s3_c2_isocomma()
    view = RelabeledGroupoid(B, rng)
    view.validate()
    F = GroupoidFunctor(B, view, view.q, view.m)
    F.validate()
    assert is_equivalence(F)
    assert view.objects == [B.objects[o] for o in np.argsort(view.q)]


def test_connected_components_of_relabeled_json_groupoid():
    # least target per out-list, on a groupoid whose sources are unsorted
    G = symmetric(3)
    Ggpd = group_groupoid(G, "S3")
    rng = np.random.default_rng(5)
    i = subgroup_inclusion(subgroup(G, ["(0 1)"]), Ggpd)
    for gens in (["(0 1)"], ["(0 1 2)"], []):
        iC = subgroup_inclusion(subgroup(G, gens), Ggpd)
        back = RelabeledGroupoid(isocomma(iC, i).groupoid, rng)
        back.validate()
        assert (np.diff(back.msrc) < 0).any()
        comps = [(c.objects, c.base, c.loops) for c in connected_components(back)]
        assert comps == brute_components(back)
        comp_of = back.component_of()
        for k, (objs, _, _) in enumerate(comps):
            assert (comp_of[objs] == k).all()