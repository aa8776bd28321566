import numpy as np
import pytest

from greencorr.catalog import chain_s3, chain_s4_d8_c4, cyclic, symmetric
from greencorr.decompose import decompose, is_direct_summand, _iso_indec
from greencorr.errors import InputError
from greencorr.green import (
    Scenario,
    correspondent_down,
    correspondent_up,
    degenerate_scenario,
    eligible_modules,
    factoring_subspace,
    is_x_object,
    quotient_hom_dim,
    verify_scenario,
)
from greencorr.linalg import in_row_space
from greencorr.modules import (
    hom_space,
    induce,
    regular_module,
    restrict,
    trivial_module,
)
from greencorr.permgroups import subgroup, trivial_subgroup, whole_group

from oracles import is_x_object_summand_check


@pytest.fixture(scope="module")
def s3():
    G, H, D = chain_s3()
    return Scenario.build(2, G, H, D, "s3_c2_c2")


def test_scenario_build_validates():
    G, H, D = chain_s3()
    with pytest.raises(InputError):
        Scenario.build(4, G, H, D)
    C3 = subgroup(G, ["(0 1 2)"])
    with pytest.raises(InputError):
        Scenario.build(2, G, H, C3)  # C3 not inside C2


def test_s3_families_and_flag(s3):
    assert s3.normalizer_condition
    assert [S.order for S in s3.x_in_g] == [1]
    assert [S.order for S in s3.x_in_h] == [1]
    assert [S.order for S in s3.y_in_h] == [1]


def test_factoring_subspace_full_family_is_everything(s3):
    # family containing G itself: the identity counit splits, so every hom factors
    G = s3.G
    k = trivial_module(G, 2)
    kG = regular_module(G, 2)
    R, piv = factoring_subspace(k, kG, [whole_group(G)], hom_space(k, kG))
    assert R.shape[0] == len(hom_space(k, kG))


def test_factoring_subspace_empty_family(s3):
    k = trivial_module(s3.G, 2)
    assert quotient_hom_dim(k, k, []) == 1


def test_relative_trace_vanishes_on_trivial_module_c2():
    # G = C2, p = 2, M = N = k, family {1}: the trace map is 1 + 1 = 0
    G = cyclic(2)
    k = trivial_module(G, 2)
    T = trivial_subgroup(G)
    R, piv = factoring_subspace(k, k, [T], hom_space(k, k))
    assert R.shape[0] == 0
    assert quotient_hom_dim(k, k, [T]) == 1
    # oracle: enumerate all factorizations through Ind_1 Res_1 k = kC2
    kG = regular_module(G, 2)
    through = set()
    for a in hom_space(k, kG):
        for b in hom_space(kG, k):
            through.add(int(((b @ a) % 2)[0, 0]))
    assert through == {0}


def test_s3_quotient_dim_example(s3):
    # S3 scenario: qdim(k, k, X) = 1 over H and over G after induction
    kH = trivial_module(s3.H.group, 2)
    assert quotient_hom_dim(kH, kH, s3.x_in_h) == 1
    ind = induce(kH, s3.H)
    assert quotient_hom_dim(ind, ind, s3.x_in_g) == 1


def test_quotient_dim_zero_for_x_objects(s3):
    # N in add(Ind from X) has quotient hom dimension 0 against anything
    G = s3.G
    T = trivial_subgroup(G)
    kG = regular_module(G, 2)  # induced from the trivial subgroup
    k = trivial_module(G, 2)
    assert quotient_hom_dim(k, kG, [T]) == 0
    assert quotient_hom_dim(kG, kG, [T]) == 0


def test_is_x_object_basics(s3):
    G = s3.G
    k = trivial_module(G, 2)
    assert not is_x_object(k, [])  # empty family
    from greencorr.permgroups import sylow
    S = sylow(G, 2)
    assert is_x_object(k, [S])  # family containing a Sylow subgroup
    # S3, p=2: the 2-dim simple is projective, so an X-object for X = {1}
    kG = regular_module(G, 2)
    dec = decompose(kG)
    simple2 = next(mod for mod, mult in dec.summands if mult == 2)
    assert is_x_object(simple2, s3.x_in_g)
    assert is_x_object_summand_check(simple2, s3.x_in_g)
    assert not is_x_object(k, s3.x_in_g)
    assert not is_x_object_summand_check(k, s3.x_in_g)


def test_eligible_modules_s3(s3):
    elig_h = eligible_modules(s3, "H")
    assert [m.dim for m in elig_h] == [1]  # only the trivial module survives
    elig_g = eligible_modules(s3, "G")
    assert [m.dim for m in elig_g] == [1]


def test_correspondents_s3(s3):
    kH = trivial_module(s3.H.group, 2)
    m = correspondent_up(kH, s3)
    assert m.dim == 1
    assert _iso_indec(m, trivial_module(s3.G, 2))
    back = correspondent_down(m, s3)
    assert _iso_indec(back, kH)


def test_correspondent_rejects_x_objects(s3):
    kG2 = regular_module(s3.G, 2)
    dec = decompose(kG2)
    simple2 = next(mod for mod, mult in dec.summands if mult == 2)
    with pytest.raises(InputError):
        correspondent_down(simple2, s3)  # projective = X-object, not eligible


def test_correspondent_requires_indecomposable(s3):
    kH = regular_module(s3.H.group, 2)  # indecomposable! kC2 at p=2... use G side
    kG2 = regular_module(s3.G, 2)  # decomposable
    with pytest.raises(InputError):
        correspondent_down(kG2, s3)


def test_verify_s3_report(s3):
    rep = verify_scenario(s3)
    assert rep.all_pass
    assert len(rep.correspondence_pairs) == 1
    pair = rep.correspondence_pairs[0]
    assert pair["dim_n"] == 1 and pair["dim_m"] == 1
    assert all(row["equal"] for row in rep.ff_table)
    doc = rep.to_dict()
    assert doc["schema_version"] == "1"
    assert doc["all_pass"]


def test_degenerate_scenario():
    G = symmetric(3)
    sc = degenerate_scenario(2, G)
    assert sc.families.x_pairs == []
    rep = verify_scenario(sc)
    assert rep.all_pass
    # identity correspondence: every eligible maps to itself
    for pair in rep.correspondence_pairs:
        assert pair["dim_n"] == pair["dim_m"]
        assert pair["round_trip"]
    elig = eligible_modules(sc, "H")
    for n in elig:
        m = correspondent_up(n, sc)
        # compare on the H side (H.group and G carry different generator lists)
        assert _iso_indec(n, correspondent_down(m, sc))


def test_both_direction_retract_witnesses(s3):
    kH = trivial_module(s3.H.group, 2)
    m = correspondent_up(kH, s3)
    assert is_direct_summand(m, induce(kH, s3.H))
    assert is_direct_summand(kH, restrict(m, s3.H))


def test_factoring_subspace_inside_hom(s3):
    # the factoring subspace is a subspace of the hom space
    kH = trivial_module(s3.H.group, 2)
    ind = induce(kH, s3.H)
    homs = hom_space(ind, ind)
    flat = np.stack([h.ravel() for h in homs])
    from greencorr.linalg import rref
    R_hom, piv_hom = rref(flat, 2)
    R, piv = factoring_subspace(ind, ind, s3.x_in_g, homs)
    for row in R:
        assert in_row_space(row, R_hom, piv_hom, 2)


def test_s4_c4_scenario_fast_checks():
    G, H, D = chain_s4_d8_c4()
    sc = Scenario.build(2, G, H, D, "s4_d8_c4")
    assert sc.normalizer_condition
    assert [S.order for S in sc.x_in_g] == [1]
    # the trivial module of D8 is not relatively C4-projective:
    # Ind Res k = k[D8/C4] is the 2-dim indecomposable at p = 2
    from greencorr.decompose import is_relatively_projective
    kH = trivial_module(sc.H.group, 2)
    assert not is_relatively_projective(kH, sc.d_in_h)
    elig = eligible_modules(sc, "H")
    assert kH.dim not in [] and all(
        not _iso_indec(n, kH) for n in elig if n.dim == 1)


def test_verify_s4_d8_d8_scenario():
    # the fourth catalog chain, end to end
    from greencorr.catalog import chain_s4_d8_d8

    G, H, D = chain_s4_d8_d8()
    sc = Scenario.build(2, G, H, D, "s4_d8_d8")
    assert sc.normalizer_condition
    rep = verify_scenario(sc)
    assert rep.all_pass
    eligible = [e for e in rep.indecomposables_H if not e["x_object"]]
    assert len(rep.correspondence_pairs) == len(eligible)
    # the X-objects are reported too, with their verdicts
    assert any(e["x_object"] for e in rep.indecomposables_H)


def test_factoring_closed_under_composition_probes():
    # random composition probes with exact containment checks, two scenarios
    from greencorr.catalog import chain_s4_d8_c4
    from greencorr.linalg import rref

    rng = np.random.default_rng(99)
    for chain in (chain_s3, chain_s4_d8_c4):
        G, H, D = chain()
        sc = Scenario.build(2, G, H, D)
        elig = eligible_modules(sc, "H")
        if not elig:
            continue
        M = elig[0]
        fam = sc.x_in_h
        R, piv = factoring_subspace(M, M, fam, hom_space(M, M))
        if R.shape[0] == 0:
            continue
        ends = hom_space(M, M)
        for _ in range(8):
            coeffs = rng.integers(0, 2, size=len(ends))
            e = np.zeros_like(ends[0])
            for c, b in zip(coeffs, ends):
                if c:
                    e = (e + b) % 2
            row = rng.integers(0, R.shape[0])
            F = R[row].reshape(M.dim, M.dim)
            assert in_row_space(((F @ e) % 2).ravel(), R, piv, 2)
            assert in_row_space(((e @ F) % 2).ravel(), R, piv, 2)


def test_restriction_sends_x_objects_to_y_objects():
    # restriction maps X-objects over G into Y-objects over H: every summand
    # of Res_H of an X-object must have vertex subconjugate to the Y family
    from greencorr.catalog import chain_s4_d8_c4
    from greencorr.green import module_catalog

    for chain in (chain_s3, chain_s4_d8_c4):
        G, H, D = chain()
        sc = Scenario.build(2, G, H, D)
        y_fam = sc.y_in_h
        for mod, d_obj, x_obj in module_catalog(sc, "G"):
            if not x_obj:
                continue
            fam_check = decompose(restrict(mod, sc.H))
            for piece, _ in fam_check.summands:
                assert is_x_object(piece, y_fam), (sc.name, mod.name)


def test_odd_prime_scenario_s4_s3_c3():
    # classical p = 3 correspondence: C3 = Sylow_3(S3), N_{S4}(C3) = S3
    from greencorr.permgroups import normalizer

    G = symmetric(3 + 1)
    H = subgroup(G, ["(0 1)", "(0 1 2)"], tag="S3")
    D = subgroup(G, ["(0 1 2)"], tag="C3")
    assert normalizer(G, D).element_indices == H.element_indices
    sc = Scenario.build(3, G, H, D, "s4_s3_c3_p3")
    assert sc.normalizer_condition
    rep = verify_scenario(sc)
    assert rep.all_pass
    # the trivial and the sign module of S3 both survive, with vertex C3
    assert len(rep.correspondence_pairs) == 2
    for pair in rep.correspondence_pairs:
        assert pair["dim_n"] == 1 and pair["vertex_order"] == 3


def test_semisimple_prime_gives_empty_eligible():
    # p coprime to |G|: every module is projective, hence an X-object for
    # X = {1}, and the quotient categories collapse
    G = symmetric(3)
    C2 = subgroup(G, ["(0 1)"])
    sc = Scenario.build(5, G, C2, C2, "s3_p5")
    rep = verify_scenario(sc)
    assert rep.all_pass
    assert rep.correspondence_pairs == []
