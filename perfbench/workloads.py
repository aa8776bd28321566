"""The three benchmark workloads: inputs from a seed, the job, and its checks.

Each workload is a pair of functions. ``setup(seed, ref)`` builds the
inputs and returns them; ``run(inputs, ref)`` does the job and returns an
``Outcome`` that counts operations attempted and failed (``verify_d8_p2``
runs the CLI instead, see job.py).  Every
operation is checked against the recorded reference in ``perfbench/reference``;
any exception, false verdict or mismatch counts the operation as failed.

The program only sees inputs generated from the seed:

* ``verify_d8_p2`` passes the seed to ``green verify --seed``;
* ``mackey_odd_p`` applies a seeded monomial change of basis to each module
  of a recorded pool (the isomorphism classes, and so the reference, stay
  fixed);
* ``groupoid_sweep`` relabels the points of every group by a seeded
  permutation.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verify_d8_p2", "mackey_odd_p", "groupoid_sweep")

# D8 >= V4 >= C2 at p = 2: its verify runs every layer in about 4 s, where
# the a5_a4_v4 verify takes 30-40 s, too long for several jobs in one run
VERIFY_CONFIG = "perfbench/configs/d8_v4_c2.json"
# the catalog chains of the boundary part of groupoid_sweep; the two larger
# ones take 10 s more per job
GROUPOID_CHAINS = ("s3_c2_c2", "s4_d8_c4")
VERIFY_REPORTS = ("verify.json", "verify_ff_table.tsv")

# (name, p, generators of H inside A5 = <(0 1 2 3 4), (2 3 4)>)
MACKEY_CHAINS = (
    ("a5_a4_p3", 3, ("(0 1 2)", "(0 1)(2 3)")),
    ("a5_s3_p3", 3, ("(0 1 2)", "(0 1)(3 4)")),
    ("a5_d10_p5", 5, ("(0 1 2 3 4)", "(1 4)(2 3)")),
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def load_reference(ref_dir: Path, workload: str) -> dict:
    """What the checks of one workload compare against."""
    if workload == "verify_d8_p2":
        return {"verify": {name: (ref_dir / name).read_bytes()
                           for name in VERIFY_REPORTS}}
    if workload == "mackey_odd_p":
        return {"mackey": json.loads((ref_dir / "mackey.json").read_text())}
    return {"groupoid": json.loads((ref_dir / "groupoid.json").read_text())}


def planned_ops(workload: str, ref: dict) -> int:
    """Operations one job attempts; a job that dies fails all of them."""
    if workload == "verify_d8_p2":
        return 1
    if workload == "mackey_odd_p":
        return sum(len(c["modules"]) for c in ref["mackey"]["chains"])
    g = ref["groupoid"]
    return sum(len(v) for v in g["bridge"].values()) + 5 * len(g["chains"])


# ---------------------------------------------------------------------------
# verify_d8_p2: green verify through the CLI
# ---------------------------------------------------------------------------


def verify_argv(root: Path, seed: int, out_dir: Path) -> list[str]:
    return ["verify", "--scenario", str(root / VERIFY_CONFIG),
            "--seed", str(seed), "--out", str(out_dir)]


def check_verify(rc: int, out_dir: Path, ref: dict, outcome: Outcome) -> None:
    ok = rc == 0
    for name in VERIFY_REPORTS:
        path = out_dir / name
        ok = ok and path.exists() and path.read_bytes() == ref["verify"][name]
    outcome.record(ok, f"verify rc={rc} or report differs from the reference")


# ---------------------------------------------------------------------------
# mackey_odd_p: Res_H Ind_H^G M against the double-coset sum, at p = 3 and 5
# ---------------------------------------------------------------------------


def random_monomial(d: int, p: int, rng: np.random.Generator):
    """A random monomial matrix P over GF(p) (a permutation times nonzero
    scalars) and its inverse.  It keeps the sparsity of the recorded actions,
    so the work per module changes little with the seed."""
    perm = rng.permutation(d)
    scale = rng.integers(1, p, size=d)
    P = np.zeros((d, d), dtype=np.int64)
    P[perm, np.arange(d)] = scale
    P_inv = np.zeros((d, d), dtype=np.int64)
    P_inv[np.arange(d), perm] = [pow(int(s), p - 2, p) for s in scale]
    return P, P_inv


def mackey_setup(seed: int, ref: dict) -> list[dict]:
    """Rebuild the recorded pool over each chain in a seeded random basis."""
    from greencorr.catalog import a5
    from greencorr.modules import FpModule
    from greencorr.permgroups import PermGroup, coerce_perm, subgroup

    rng = np.random.default_rng(seed)
    chains = []
    for chain in ref["mackey"]["chains"]:
        G = a5()
        H = subgroup(G, chain["generators_H"], tag=chain["name"])
        p = chain["p"]
        # the pool stores actions of the recorded generators; carry them
        # over to whatever generators H.group uses
        gens = [coerce_perm(g, G.degree) for g in chain["generators_H"]]
        recorded_group = PermGroup(G.degree, gens)
        modules = []
        for k, mod in enumerate(chain["modules"]):
            d = mod["dim"]
            P, P_inv = random_monomial(d, p, rng)
            mats = [(P @ np.array(a, dtype=np.int64) @ P_inv) % p
                    for a in mod["action"]]
            M0 = FpModule(recorded_group, p, mats, name=f"pool{k}", check=False)
            action = [M0.element_action(recorded_group.index[g])
                      for g in H.group.generators]
            modules.append((k, FpModule(H.group, p, action,
                                        name=f"{chain['name']}#{k}")))
        order = rng.permutation(len(modules))
        chains.append({"name": chain["name"], "p": p, "G": G, "H": H,
                       "modules": [modules[i] for i in order]})
    return chains


def class_summary(decs) -> tuple[list[list[int]], list]:
    """Sorted [dim, multiplicity, end_dim, radical_dim, residue_degree] rows
    of the merged class multiset of the given decompositions, and the merged
    multiset itself."""
    from greencorr.decompose import multiset_of_classes

    certificate = {}
    for dec in decs:
        for (mod, _), cert in zip(dec.summands, dec.certificates):
            certificate[id(mod)] = cert
    merged = multiset_of_classes(decs)
    rows = []
    for mod, count in merged:
        cert = certificate[id(mod)]
        rows.append([mod.dim, count, cert.end_dim, cert.radical_dim,
                     cert.residue_degree])
    return sorted(rows), merged


def mackey_sides(G, H, M, cosets):
    """Res_H Ind_H^G M and the double-coset sum, as decompositions."""
    from greencorr.decompose import decompose
    from greencorr.modules import conjugate_module, induce, restrict
    from greencorr.permgroups import SubgroupEmbedding

    lhs = [decompose(restrict(induce(M, H), H))]
    rhs = []
    for g, L in cosets:
        L_inner = L.conjugated(int(G.inv[g]))  # g^-1 L g <= H
        li_in_h = SubgroupEmbedding(
            H.group, tuple(H.from_ambient[a] for a in L_inner.element_indices))
        conj, _ = conjugate_module(restrict(M, li_in_h), L_inner, g, target=L)
        l_in_h = SubgroupEmbedding(
            H.group, tuple(H.from_ambient[a] for a in L.element_indices))
        rhs.append(decompose(induce(conj, l_in_h)))
    return lhs, rhs


def mackey_run(chains: list[dict], ref: dict) -> Outcome:
    from greencorr.decompose import same_multiset
    from greencorr.permgroups import double_cosets

    expected = {c["name"]: c["modules"] for c in ref["mackey"]["chains"]}
    outcome = Outcome()
    for chain in chains:
        G, H = chain["G"], chain["H"]
        cosets = double_cosets(G, H, H)
        for k, M in chain["modules"]:
            want = expected[chain["name"]][k]["classes"]
            try:
                lhs, rhs = mackey_sides(G, H, M, cosets)
                lhs_rows, lhs_classes = class_summary(lhs)
                rhs_rows, rhs_classes = class_summary(rhs)
                ok = (lhs_rows == want and rhs_rows == want
                      and same_multiset(lhs_classes, rhs_classes))
                detail = f"classes {lhs_rows} and {rhs_rows}"
            except Exception as exc:  # every error is a failed operation
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            outcome.record(ok, f"{chain['name']} module {k}: {detail}")
    return outcome


# ---------------------------------------------------------------------------
# groupoid_sweep: isocomma/double-coset bridge, boundary, geography
# ---------------------------------------------------------------------------


def relabel(perm: tuple, sigma: np.ndarray) -> tuple:
    """sigma g sigma^-1 as an image tuple: point sigma(i) goes to sigma(g(i))."""
    out = [0] * len(perm)
    for i, gi in enumerate(perm):
        out[int(sigma[i])] = int(sigma[gi])
    return tuple(out)


def groupoid_setup(seed: int, ref: dict) -> dict:
    from greencorr.catalog import bridge_groups, scenario_chains
    from greencorr.permgroups import all_subgroups, closure, subgroup

    rng = np.random.default_rng(seed)
    bridge = {}
    for name, G in bridge_groups().items():
        sigma = rng.permutation(G.degree)
        Gr = closure([relabel(g, sigma) for g in G.generators], G.degree)
        bridge[name] = (Gr, all_subgroups(Gr))
    chains = {}
    for name in GROUPOID_CHAINS:
        G, H, D = scenario_chains()[name]
        sigma = rng.permutation(G.degree)
        Gr = closure([relabel(g, sigma) for g in G.generators], G.degree)
        Hr = subgroup(Gr, [relabel(g, sigma) for g in H.group.generators], "H")
        Dr = subgroup(Gr, [relabel(g, sigma) for g in D.group.generators], "D")
        chains[name] = (Gr, Hr, Dr)
    return {"bridge": bridge, "chains": chains}


def chain_functors(G, H, D):
    from greencorr.groupoids import GroupoidFunctor, group_groupoid

    Ggpd = group_groupoid(G, "G")
    Hgpd = group_groupoid(H.group, "H")
    Dgpd = group_groupoid(D.group, "D")
    i = GroupoidFunctor(Hgpd, Ggpd, [0], np.array(H.to_ambient, dtype=np.int32))
    d_in_h = [H.from_ambient[a] for a in D.to_ambient]
    j = GroupoidFunctor(Dgpd, Hgpd, [0], np.array(d_in_h, dtype=np.int32))
    return Hgpd, i, j


def bridge_signature(G, H, K, iH, iK) -> list:
    """[|H|, |K|, sorted automorphism orders of the isocomma's components],
    after asserting the bijection with the double cosets K\\G/H."""
    from greencorr.groupoids import isocomma
    from greencorr.permgroups import double_cosets

    iso = isocomma(iH, iK)
    comps = iso.groupoid.components
    comp_of = iso.groupoid.component_of()
    dcs = double_cosets(G, K, H)
    if len(comps) != len(dcs):
        raise AssertionError("component count differs from double cosets")
    for rep, inter in dcs:
        comp = comps[int(comp_of[iso.object_index(0, 0, rep)])]
        if comp.aut_order != inter.order:
            raise AssertionError("automorphism order differs from stabilizer")
    return [H.order, K.order, sorted(c.aut_order for c in comps)]


def boundary_signature(G, res, pairs) -> list[int]:
    """Sorted automorphism orders of the boundary components, after asserting
    that each family pair (g, S) lands in a component of order |S|."""
    comps = res.boundary_components
    if len(comps) != len(pairs):
        raise AssertionError("boundary component count differs from family")
    amb_to_b = res.ambient_to_boundary_objects()
    b_comp_of = res.boundary.component_of()
    for g, S in pairs:
        sub = int(amb_to_b[res.ambient.object_index(0, 0, int(G.inv[g]))])
        if sub < 0 or comps[int(b_comp_of[sub])].aut_order != S.order:
            raise AssertionError("family pair misses its boundary component")
    return sorted(c.aut_order for c in comps)


def geography_signature(i, j) -> list:
    """[verdict, objects, morphisms] of the geography comparison functor,
    after validating it exhaustively."""
    from greencorr.boundary import geography_check

    ok, witness = geography_check(i, j, j)
    if witness.domain.n_morphisms:
        witness.validate()
    return [bool(ok), int(witness.domain.n_objects),
            int(witness.domain.n_morphisms)]


def factorization_signature(i, j) -> list:
    """[strict, objects, morphisms] of the factorization u of pr1."""
    from greencorr.boundary import tricky_factorization

    fact = tricky_factorization(i, j)
    return [bool(fact.strict_on_objects and fact.strict_on_morphisms),
            int(fact.u.domain.n_objects), int(fact.u.domain.n_morphisms)]


def chain_operations(G, H, D) -> dict:
    """The five boundary operations on one chain, by reference key."""
    from greencorr.boundary import partial
    from greencorr.groupoids import identity_functor
    from greencorr.permgroups import x_y_u_families

    fam = x_y_u_families(G, H, D)
    Hgpd, i, j = chain_functors(G, H, D)
    idh = identity_functor(Hgpd)
    return {
        "dd": lambda: boundary_signature(G, partial(i, j, j), fam.x_pairs),
        "hd": lambda: boundary_signature(G, partial(i, idh, j), fam.y_pairs),
        "hh": lambda: boundary_signature(G, partial(i, idh, idh), fam.u_pairs),
        "geography": lambda: geography_signature(i, j),
        "factorization": lambda: factorization_signature(i, j),
    }


def groupoid_run(inputs: dict, ref: dict) -> Outcome:
    from greencorr.groupoids import group_groupoid, subgroup_inclusion

    expected = ref["groupoid"]
    outcome = Outcome()
    for name, (G, subs) in inputs["bridge"].items():
        want = Counter(json.dumps(s) for s in expected["bridge"][name])
        Ggpd = group_groupoid(G, name)
        inclusions = [subgroup_inclusion(S, Ggpd) for S in subs]
        for H, iH in zip(subs, inclusions):
            for K, iK in zip(subs, inclusions):
                try:
                    got = json.dumps(bridge_signature(G, H, K, iH, iK))
                    ok = want[got] > 0
                    want[got] -= 1
                except Exception as exc:  # every error is a failed operation
                    ok, got = False, f"{type(exc).__name__}: {exc}"
                outcome.record(ok, f"bridge {name} |H|={H.order} |K|={K.order}: {got}")
    for name, (G, H, D) in inputs["chains"].items():
        for key, operation in chain_operations(G, H, D).items():
            try:
                got = operation()
            except Exception as exc:  # every error is a failed operation
                got = f"{type(exc).__name__}: {exc}"
            outcome.record(got == expected["chains"][name][key],
                           f"{key} on {name}: {got}")
    return outcome


def input_sizes(workload: str, inputs) -> dict:
    """Sizes recorded with every result."""
    if workload == "mackey_odd_p":
        return {c["name"]: {"p": c["p"], "modules": len(c["modules"]),
                            "max_dim": max(M.dim for _, M in c["modules"])}
                for c in inputs}
    if workload == "groupoid_sweep":
        return {"bridge_pairs": sum(len(s) ** 2
                                    for _, s in inputs["bridge"].values()),
                "chains": len(inputs["chains"])}
    return {"config": VERIFY_CONFIG}
