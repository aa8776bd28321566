"""Acceptance criteria, one test per criterion.

Everything is exact arithmetic over GF(p); tolerances are exact equality.
Each test prints a single PASS line (visible with pytest -s or in the
captured output) and enforces the stated runtime budget.
"""

import time

import numpy as np
import pytest

from greencorr.catalog import (
    alternating,
    bridge_groups,
    scenario_chains,
    symmetric,
)
from greencorr.decompose import (
    Run,
    decompose,
    multiset_of_classes,
    same_multiset,
    _iso_indec,
)
from greencorr.green import (
    Scenario,
    correspondent_down,
    correspondent_up,
    degenerate_scenario,
    eligible_modules,
    verify_scenario,
)
from greencorr.groupoids import (
    GroupoidFunctor,
    group_groupoid,
    identity_functor,
    isocomma,
    subgroup_inclusion,
)
from greencorr.boundary import geography_check, partial, tricky_factorization
from greencorr.modules import (
    _default_pool,
    cohomological_composite,
    conjugate_module,
    induce,
    permutation_module,
    random_module,
    restrict,
    trivial_module,
)
from greencorr.permgroups import (
    SubgroupEmbedding,
    all_subgroups,
    double_cosets,
    subgroup,
)


def _report(num: int, label: str, t0: float) -> None:
    print(f"[criterion {num}] {label}: PASS ({time.time() - t0:.1f}s)")


def chain_functors(G, H, D):
    Ggpd = group_groupoid(G, "G")
    Hgpd = group_groupoid(H.group, "H")
    Dgpd = group_groupoid(D.group, "D")
    i = GroupoidFunctor(Hgpd, Ggpd, [0], np.array(H.to_ambient, dtype=np.int32))
    d_in_h = [H.from_ambient[a] for a in D.to_ambient]
    j = GroupoidFunctor(Dgpd, Hgpd, [0], np.array(d_in_h, dtype=np.int32))
    return Ggpd, Hgpd, Dgpd, i, j


@pytest.fixture(scope="session")
def green_reports():
    """verify_scenario runs shared by criteria 7 and 8, with timings."""
    out = {}
    for name in ("s3_c2_c2", "s4_d8_c4", "a5_a4_v4"):
        G, H, D = scenario_chains()[name]
        sc = Scenario.build(2, G, H, D, name)
        t0 = time.time()
        out[name] = (sc, verify_scenario(sc), time.time() - t0)
    return out


def test_criterion_1_isocomma_double_coset_bridge():
    t0 = time.time()
    for name, G in bridge_groups().items():
        Ggpd = group_groupoid(G, name)
        subs = all_subgroups(G)
        inclusions = [subgroup_inclusion(S, Ggpd) for S in subs]
        for H, iH in zip(subs, inclusions):
            for K, iK in zip(subs, inclusions):
                iso = isocomma(iH, iK)
                comps = iso.groupoid.components
                comp_of = iso.groupoid.component_of()
                dcs = double_cosets(G, K, H)
                assert len(comps) == len(dcs), (name, H.order, K.order)
                # explicit bijection: the component containing the object
                # labelled by the representative has the class's
                # intersection order as automorphism-group order
                for rep, inter in dcs:
                    obj = iso.object_index(0, 0, rep)
                    comp = comps[int(comp_of[obj])]
                    assert comp.aut_order == inter.order, (name, rep)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(1, "isocomma/double-coset bridge", t0)


def test_criterion_2_boundary_bridge():
    t0 = time.time()
    from greencorr.permgroups import x_y_u_families

    for name, (G, H, D) in scenario_chains().items():
        Ggpd, Hgpd, Dgpd, i, j = chain_functors(G, H, D)
        idh = identity_functor(Hgpd)
        fam = x_y_u_families(G, H, D)
        for res, pairs in (
            (partial(i, j, j), fam.x_pairs),
            (partial(i, idh, j), fam.y_pairs),
            (partial(i, idh, idh), fam.u_pairs),
        ):
            comps = res.boundary_components
            assert len(comps) == len(pairs), name
            amb_to_b = res.ambient_to_boundary_objects()
            b_comp_of = res.boundary.component_of()
            for g, S in pairs:
                ginv = int(G.inv[g])
                sub = int(amb_to_b[res.ambient.object_index(0, 0, ginv)])
                assert sub >= 0, name
                comp = comps[int(b_comp_of[sub])]
                assert comp.aut_order == S.order, (name, g)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(2, "boundary operator matches X/Y/U families", t0)


def test_criterion_3_geography_and_factorization():
    t0 = time.time()
    rng = np.random.default_rng(3)
    for name, (G, H, D) in scenario_chains().items():
        Ggpd, Hgpd, Dgpd, i, j = chain_functors(G, H, D)
        ok, witness = geography_check(i, j, j)
        assert ok, name
        if witness.domain.n_morphisms:
            witness.validate()
        fact = tricky_factorization(i, j)
        assert fact.strict_on_objects and fact.strict_on_morphisms, name
        if fact.u.domain.n_morphisms <= 50_000:
            fact.u.validate()
        else:
            fact.u.spot_check(rng, samples=2048)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(3, "geography equivalence and strict factorization", t0)


def _mackey_sides(G, K, H, M, run):
    """LHS and RHS of the Mackey formula as class multisets over K."""
    lhs = decompose(restrict(induce(M, H), K), run)
    parts = []
    for g, L in double_cosets(G, K, H):
        L_inner = L.conjugated(int(G.inv[g]))  # g^-1 L g <= H
        li_in_h = SubgroupEmbedding(
            H.group, tuple(H.from_ambient[a] for a in L_inner.element_indices))
        resM = restrict(M, li_in_h)
        conjM, _ = conjugate_module(resM, L_inner, g, target=L)
        l_in_k = SubgroupEmbedding(
            K.group, tuple(K.from_ambient[a] for a in L.element_indices))
        parts.append(decompose(induce(conjM, l_in_k), run))
    return multiset_of_classes([lhs], run), multiset_of_classes(parts, run)


MACKEY_CORPUS_SIZE = 20


@pytest.fixture(scope="session")
def mackey_corpus():
    """20 seeded random modules of dim <= 8 over each catalog group and prime."""
    corpus = {}
    chains = {}
    for name, (G, H, D) in scenario_chains().items():
        chains[(G.fingerprint, H.element_indices)] = (G, H)
    for key, (G, H) in chains.items():
        for p in (2, 3):
            rng = np.random.default_rng(1000 + G.order + p)
            pool = _default_pool(H.group, p)
            mods = [random_module(H.group, p, 8, rng, pool)
                    for _ in range(MACKEY_CORPUS_SIZE)]
            corpus[(G.order, H.order, p)] = (G, H, mods)
    return corpus


def test_criterion_4_mackey_formula(mackey_corpus):
    t0 = time.time()
    for (go, ho, p), (G, H, mods) in sorted(mackey_corpus.items()):
        for k, M in enumerate(mods):
            run = Run()
            lhs, rhs = _mackey_sides(G, H, H, M, run)
            assert same_multiset(lhs, rhs, run), (go, ho, p, k, M.dim)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(4, "module-level Mackey formula", t0)


def test_criterion_5_krull_schmidt_determinism(mackey_corpus):
    t0 = time.time()
    for (go, ho, p), (G, H, mods) in sorted(mackey_corpus.items()):
        for M in mods:
            # five fresh Runs, so each decomposition is made from scratch
            decs = [decompose(M, Run()) for _ in range(5)]
            assert len({id(dec) for dec in decs}) == 5
            for other in decs[1:]:
                assert np.array_equal(decs[0].change_of_basis,
                                      other.change_of_basis), (go, p, M.dim)
                assert same_multiset(decs[0].summands, other.summands), \
                    (go, p, M.dim)
    _report(5, "Krull-Schmidt determinism across fresh runs", t0)


# random_module(A5, p, 6) returns the trivial module: the permutation modules
# of its default pool are too big for dim 6.  k[A5/A4] (dim 5) and
# k[A5/D10] (dim 6) are small nontrivial ones.
A5 = alternating(5)
A5_SMALL_QUOTIENTS = (["(0 1 2)", "(0 1)(2 3)"], ["(0 1 2 3 4)", "(1 4)(2 3)"])


def test_criterion_6_cohomological_identity():
    t0 = time.time()
    for name, (G, H, D) in scenario_chains().items():
        d_in_h = SubgroupEmbedding(
            H.group, tuple(H.from_ambient[a] for a in D.element_indices), "D")
        chain_pairs = [(G, H), (G, D), (H.group, d_in_h)]
        for amb, emb in chain_pairs:
            rng = np.random.default_rng(amb.order)
            index = amb.order // emb.order
            for p in (2, 3):
                mods = [trivial_module(amb, p)]
                pool = _default_pool(amb, p)
                mods += [random_module(amb, p, 6, rng, pool) for _ in range(9)]
                if amb.same_group(A5):
                    mods += [permutation_module(amb, subgroup(amb, gens), p)
                             for gens in A5_SMALL_QUOTIENTS]
                assert max(N.dim for N in mods) >= 2, (name, amb.order, p)
                for N in mods:
                    comp = cohomological_composite(N, emb)
                    expect = (index % p) * np.eye(N.dim, dtype=np.int64) % p
                    assert (comp == expect).all(), (name, p, N.dim)
    _report(6, "unit-counit composite equals index times identity", t0)


def test_criterion_7_green_fully_faithful(green_reports):
    budgets = {"s3_c2_c2": 300.0, "s4_d8_c4": 300.0, "a5_a4_v4": 900.0}
    for name, (sc, rep, elapsed) in green_reports.items():
        assert rep.verdicts["fully_faithful"], name
        assert all(row["equal"] for row in rep.ff_table), name
        assert elapsed < budgets[name], (name, elapsed)
    t0 = time.time()
    _report(7, "Green fully-faithfulness (quotient hom dims)", t0)


def test_criterion_8_green_correspondence(green_reports):
    t0 = time.time()
    # S3 scenario: exactly one pair, trivial <-> trivial
    sc3, rep3, _ = green_reports["s3_c2_c2"]
    assert len(rep3.correspondence_pairs) == 1
    pair = rep3.correspondence_pairs[0]
    assert pair["dim_n"] == 1 and pair["dim_m"] == 1
    kH = trivial_module(sc3.H.group, 2)
    m = correspondent_up(kH, sc3)
    assert _iso_indec(m, trivial_module(sc3.G, 2))
    assert _iso_indec(correspondent_down(m, sc3), kH)
    # A5 scenario: the trivial modules correspond among the pairs
    sc5, rep5, _ = green_reports["a5_a4_v4"]
    kA4 = trivial_module(sc5.H.group, 2)
    m5 = correspondent_up(kA4, sc5)
    assert _iso_indec(m5, trivial_module(sc5.G, 2))
    assert _iso_indec(correspondent_down(m5, sc5), kA4)
    assert any(p["dim_n"] == 1 and p["dim_m"] == 1
               for p in rep5.correspondence_pairs)
    # round trips, vertex preservation and the vertex-D restriction under
    # the normalizer condition, on every reported scenario
    for name, (sc, rep, _) in green_reports.items():
        assert rep.verdicts["bijection_round_trip"], name
        assert rep.verdicts["vertex_preservation"], name
        assert sc.normalizer_condition, name
        assert rep.verdicts["vertex_D_restriction"], name
        for p in rep.correspondence_pairs:
            assert p["round_trip"] and p["m_retract_of_ind"] and \
                p["n_retract_of_res"], (name, p)
    _report(8, "Green correspondence with vertices", t0)


def test_criterion_9_degenerate_soundness():
    t0 = time.time()
    for G in (symmetric(3), alternating(4)):
        for p in (2, 3):
            sc = degenerate_scenario(p, G)
            assert sc.families.x_pairs == []
            assert sc.families.y_pairs == []
            rep = verify_scenario(sc)
            assert rep.all_pass
            elig = eligible_modules(sc, "H")
            for n in elig:
                m = correspondent_up(n, sc)
                assert m.dim == n.dim
                assert _iso_indec(correspondent_down(m, sc), n)
    _report(9, "degenerate H = G scenarios", t0)
