"""Quotient-category hom spaces and the Green correspondence.

A Scenario fixes a prime p and a chain D <= H <= G.  The engine computes
dimensions of hom spaces in the additive quotients of D-objects by
X-objects (X = {D ∩ gDg^-1 : g outside H}), moves indecomposables up and
down through induction/restriction by discarding the X- respectively Y-parts,
and assembles a machine-checked report of the correspondence properties.

Maps factoring through X-objects are computed as relative-trace images,
which is the counit factorization criterion transported through the
induction/restriction adjunction.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boundary import PartialResult, partial
from .decompose import (
    Run,
    decompose,
    end_basis,
    end_info,
    is_direct_summand,
    is_relatively_projective,
    relative_trace_image,
    vertex,
    _iso_indec,
    _tally,
)
from .errors import InputError, TheoremViolationError
from .groupoids import (
    GroupoidFunctor,
    group_groupoid,
    identity_functor,
    subgroup_inclusion,
)
from .linalg import mat_mul, rref
from .modules import (
    FpModule,
    hom_space,
    induce,
    permutation_module,
    restrict,
    trivial_module,
)
from .permgroups import (
    Families,
    PermGroup,
    SubgroupEmbedding,
    all_subgroups,
    class_representatives,
    is_subconjugate,
    normalizer,
    require_prime,
    whole_group,
    x_y_u_families,
)

SCHEMA_VERSION = "1"


@dataclass
class Scenario:
    """A (p, G, H, D) instance with its subgroup families and flags, and
    its chain as the one-object groupoid functors ``j``: D -> H and ``i``:
    H -> G, built on first use."""

    p: int
    G: PermGroup
    H: SubgroupEmbedding
    D: SubgroupEmbedding
    families: Families
    normalizer_condition: bool
    name: str = "scenario"

    @classmethod
    def build(cls, p: int, G: PermGroup, H: SubgroupEmbedding,
              D: SubgroupEmbedding, name: str = "scenario") -> "Scenario":
        require_prime(p)
        if not H.contains(D):
            raise InputError("chain violation: D not contained in H")
        fams = x_y_u_families(G, H, D)
        ncond = H.contains(normalizer(G, D))
        return cls(p, G, H, D, fams, ncond, name)

    @cached_property
    def d_in_h(self) -> SubgroupEmbedding:
        return SubgroupEmbedding(
            self.H.group, tuple(self.H.from_ambient[a]
                                for a in self.D.element_indices), "D")

    @cached_property
    def i(self) -> GroupoidFunctor:
        """The inclusion H -> G of one-object groupoids."""
        return subgroup_inclusion(self.H, group_groupoid(self.G, "G"))

    @cached_property
    def j(self) -> GroupoidFunctor:
        """The inclusion D -> H of one-object groupoids, into the domain of
        ``i``."""
        return subgroup_inclusion(self.d_in_h, self.i.domain)

    @property
    def x_in_g(self) -> list[SubgroupEmbedding]:
        return self.families.x_classes

    @cached_property
    def x_in_h(self) -> list[SubgroupEmbedding]:
        """The X family as subgroups of H, deduplicated up to H-conjugacy."""
        return self._family_in_h([S for _, S in self.families.x_pairs])

    @cached_property
    def y_in_h(self) -> list[SubgroupEmbedding]:
        return self._family_in_h([S for _, S in self.families.y_pairs])

    def side(self, side: str) -> tuple[PermGroup, SubgroupEmbedding,
                                       list[SubgroupEmbedding]]:
        """The group of side "H" or "G", D inside it and the X family
        inside it."""
        if side == "H":
            return self.H.group, self.d_in_h, self.x_in_h
        if side == "G":
            return self.G, self.D, self.x_in_g
        raise InputError("side must be 'H' or 'G'")

    def _family_in_h(self, members: list[SubgroupEmbedding]) -> list[SubgroupEmbedding]:
        inside = [
            SubgroupEmbedding(
                self.H.group,
                tuple(self.H.from_ambient[a] for a in S.element_indices),
                S.tag)
            for S in members
        ]
        return sorted(class_representatives(inside),
                      key=lambda s: (-s.order, s.element_indices))


# ---------------------------------------------------------------------------
# quotient homs
# ---------------------------------------------------------------------------


def factoring_subspace(M: FpModule, N: FpModule,
                       family: list[SubgroupEmbedding],
                       homs: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Echelonized basis of the maps M -> N factoring through family-induced
    objects: the sum over X of the image of postcomposition with the counit
    Ind_X Res_X N -> N, computed as relative-trace images inside
    Hom_kG(M, N), whose hom_space basis ``homs`` the caller holds."""
    rows = []
    for X in family:
        R, _ = relative_trace_image(M, N, X, homs)
        if R.shape[0]:
            rows.append(R)
    if not rows:
        empty = np.zeros((0, M.dim * N.dim), dtype=np.int64)
        return empty, []
    stacked = np.concatenate(rows)
    return rref(stacked, M.p)


def quotient_hom_dim(M: FpModule, N: FpModule,
                     family: list[SubgroupEmbedding],
                     run: Run | None = None) -> int:
    """dim Hom(M, N) minus the dimension of the family-factoring subspace.
    For N = M, the End basis comes from ``end_basis``."""
    homs = end_basis(M, run) if M is N else hom_space(M, N)
    if not family:
        return len(homs)
    R, _ = factoring_subspace(M, N, family, homs)
    return len(homs) - R.shape[0]


def is_x_object(M: FpModule, family: list[SubgroupEmbedding],
                run: Run | None = None) -> bool:
    """Whether the indecomposable M lies in the additive closure of modules
    induced from the family: tested via vertex subconjugacy."""
    if not family:
        return False
    if M.dim == 0:
        return True
    v = vertex(M, run)
    return any(is_subconjugate(M.group, v, X) for X in family)


# ---------------------------------------------------------------------------
# eligible test sets
# ---------------------------------------------------------------------------


def _dedup_classes(mods: list[FpModule], run: Run) -> list[FpModule]:
    return [rep for rep, _ in _tally([(m, 1) for m in mods if m.dim], run)]


def generating_family_over_D(sc: Scenario,
                             run: Run | None = None) -> list[FpModule]:
    """Indecomposable kD-modules seeding the eligible sets: summands of the
    trivial module and of k[D/E] over the subgroup classes E < D, the first
    of which, E = 1, gives the regular module.

    kD can have infinitely many indecomposables, so this finite catalog is the
    documented approximation of "all" of them.
    """
    Dgrp = sc.D.group
    mods: list[FpModule] = []
    sources = [trivial_module(Dgrp, sc.p)]
    sources += [permutation_module(Dgrp, E, sc.p)
                for E in class_representatives(all_subgroups(Dgrp))
                if E.order < Dgrp.order]
    run = run or Run()
    for src in sources:
        for mod, _ in decompose(src, run).summands:
            mods.append(mod)
    return _dedup_classes(mods, run)


def module_catalog(sc: Scenario, side: str,
                   run: Run | None = None) -> list[tuple[FpModule, bool, bool]]:
    """Indecomposable classes discovered on one side with their verdicts.

    Returns (module, is_D_object, is_X_object) triples, sorted by dimension
    and, in each dimension, projective classes first, each part in the order
    of discovery.  The candidates are the trivial module and the summands of
    Ind_D s for every member s of the kD family, which holds kD, so they
    hold kX = Ind_D kD and, by Krull-Schmidt, every class of the regular
    module.  Every candidate is the trivial module or a summand whose End
    ``decompose`` certified local, so none needs a locality test here.

    Each class's vertex Q settles its verdicts by Green's vertex theorem: an
    indecomposable is relatively S-projective iff Q <=_G S, so it is a
    D-object iff Q <=_G D, an X-object iff Q <=_G some member of the family,
    and projective iff Q = 1.
    """
    amb_group, d_emb, fam = sc.side(side)
    run = run or Run()
    candidates: list[FpModule] = [trivial_module(amb_group, sc.p)]
    for s in generating_family_over_D(sc, run):
        for mod, _ in decompose(induce(s, d_emb), run).summands:
            candidates.append(mod)

    out = []
    for mod in _dedup_classes(candidates, run):
        Q = vertex(mod, run)
        out.append((mod.dim, Q.order > 1, mod,
                    is_subconjugate(amb_group, Q, d_emb),
                    is_x_object(mod, fam, run)))
    out.sort(key=lambda t: t[:2])
    return [t[2:] for t in out]


def named_catalog(sc: Scenario, side: str, run: Run | None = None
                  ) -> list[tuple[str, FpModule, bool, bool]]:
    """``module_catalog`` rows as (name, module, is_D_object, is_X_object),
    named ``<side>:d<dim>#<k>`` with k the catalog position, the name that
    the verify and correspond reports share."""
    return [(f"{side}:d{mod.dim}#{k}", mod, d_obj, x_obj)
            for k, (mod, d_obj, x_obj)
            in enumerate(module_catalog(sc, side, run))]


def eligible(rows: list[tuple[str, FpModule, bool, bool]]
             ) -> list[tuple[str, FpModule]]:
    """(name, module) of the named catalog rows that are D-objects and not
    X-objects."""
    return [(name, mod) for name, mod, d_obj, x_obj in rows
            if d_obj and not x_obj]


def eligible_modules(sc: Scenario, side: str,
                     run: Run | None = None) -> list[FpModule]:
    """Certified-indecomposable D-objects that are not X-objects, over H or G."""
    return [mod for _, mod in eligible(named_catalog(sc, side, run))]


# ---------------------------------------------------------------------------
# the correspondence
# ---------------------------------------------------------------------------


def correspondent_up(n: FpModule, sc: Scenario,
                     run: Run | None = None) -> FpModule:
    """The X-free part of Ind_H^G n, which the Green correspondence promises
    is a single indecomposable with multiplicity one."""
    return _correspondent(n, sc, "H", induce(n, sc.H), sc.x_in_g,
                          run or Run())


def correspondent_down(m: FpModule, sc: Scenario,
                       run: Run | None = None) -> FpModule:
    """The Y-free part of Res_H^G m."""
    return _correspondent(m, sc, "G", restrict(m, sc.H), sc.y_in_h,
                          run or Run())


def _correspondent(mod: FpModule, sc: Scenario, side: str, moved: FpModule,
                   family: list[SubgroupEmbedding], run: Run) -> FpModule:
    """The one class of moved, Ind_H^G mod or Res_H mod, outside the
    family-objects, which must have multiplicity one.  mod must be an
    eligible module of its side."""
    _, d_emb, fam = sc.side(side)
    if mod.dim == 0 or not end_info(mod, run).local:
        raise InputError("correspondent requires a certified indecomposable")
    if not is_relatively_projective(mod, d_emb, run):
        raise InputError("correspondent requires a D-object")
    if is_x_object(mod, fam, run):
        raise InputError("correspondent requires a module outside the X-objects")
    survivors = [(s, mult) for s, mult in decompose(moved, run).summands
                 if not is_x_object(s, family, run)]
    if len(survivors) != 1 or survivors[0][1] != 1:
        raise TheoremViolationError(
            f"{moved.name} has {survivors} surviving classes")
    return survivors[0][0]


def correspondence(sc: Scenario,
                   catalog_h: list[tuple[str, FpModule, bool, bool]],
                   run: Run) -> Iterator[tuple[str, FpModule, FpModule,
                                               FpModule, FpModule, bool]]:
    """The Green correspondence on the eligible rows of the named H catalog,
    in one pass that builds each module of a pair once: yields (name, n,
    Ind_H^G n, m, Res_H m, round_trip) with m the X-free part of that Ind n,
    as ``correspondent_up`` finds it, and round_trip whether the Y-free part
    of that Res_H m, as ``correspondent_down`` finds it, is isomorphic to n.
    Each Ind n is decomposed before the pair is yielded."""
    for name, n in eligible(catalog_h):
        ind = induce(n, sc.H)
        m = _correspondent(n, sc, "H", ind, sc.x_in_g, run)
        res_m = restrict(m, sc.H)
        back = _correspondent(m, sc, "G", res_m, sc.y_in_h, run)
        yield name, n, ind, m, res_m, _iso_indec(n, back, run)


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


@dataclass
class GreenReport:
    scenario: str
    p: int
    orders: tuple[int, int, int]
    normalizer_condition: bool
    indecomposables_H: list[dict]
    indecomposables_G: list[dict]
    correspondence_pairs: list[dict]
    ff_table: list[dict]
    verdicts: dict[str, bool]
    family_orders: dict[str, list[int]] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "p": self.p,
            "orders": {"G": self.orders[0], "H": self.orders[1],
                       "D": self.orders[2]},
            "normalizer_condition": self.normalizer_condition,
            "family_orders": self.family_orders,
            "indecomposables_H": self.indecomposables_H,
            "indecomposables_G": self.indecomposables_G,
            "correspondence_pairs": self.correspondence_pairs,
            "ff_table": self.ff_table,
            "verdicts": dict(sorted(self.verdicts.items())),
            "all_pass": self.all_pass,
        }


def _vertex_class_in_g(sc: Scenario, mod: FpModule,
                       run: Run) -> tuple[tuple[int, ...], int]:
    """Vertex of a module over H or G, as a canonical G-conjugacy key: the
    groups of the chain permute the same points, so its elements are
    elements of G."""
    v = vertex(mod, run)
    in_g = SubgroupEmbedding(sc.G, tuple(sc.G.index[v.ambient.elements[x]]
                                         for x in v.element_indices), "v")
    return in_g.canonical_class_key, v.order


@dataclass
class BoundarySplit:
    """One boundary of the chain, with the boundary component that each
    family pair (g, S) lands in (-1 for none) and whether that component's
    automorphism group has order |S|."""

    result: PartialResult
    pairs: list[tuple[int, SubgroupEmbedding]]
    components: list[int]
    matches: list[bool]

    @property
    def ok(self) -> bool:
        return (len(self.result.boundary_components) == len(self.pairs)
                and all(self.matches))


def boundary_splits(sc: Scenario) -> dict[str, BoundarySplit]:
    """The boundaries of the isocommas over D/D, H/D and H/H of the chain
    functors ``sc.i`` and ``sc.j``, each matched against its family X, Y or
    U.  Each split holds an isocomma over G, so none is kept: the caller
    drops them when it is done."""
    fams = sc.families
    i, j = sc.i, sc.j
    idh = identity_functor(i.domain)
    out = {}
    for key, e, f, pairs in (("dd", j, j, fams.x_pairs),
                             ("hd", idh, j, fams.y_pairs),
                             ("hh", idh, idh, fams.u_pairs)):
        res = partial(i, e, f)
        amb_to_b = res.ambient_to_boundary_objects()
        b_comp_of = res.boundary.component_of()
        comps = res.boundary_components
        found, matches = [], []
        for g, S in pairs:
            ginv = int(sc.G.inv[g])
            sub = int(amb_to_b[res.ambient.object_index(0, 0, ginv)])
            c = int(b_comp_of[sub]) if sub >= 0 else -1
            found.append(c)
            matches.append(c >= 0 and comps[c].aut_order == S.order)
        out[key] = BoundarySplit(res, pairs, found, matches)
    return out


def boundary_families_match(sc: Scenario) -> bool:
    """Boundary components and stabilizers of the three isocomma splits
    must agree with the X/Y/U double-coset data."""
    return all(split.ok for split in boundary_splits(sc).values())


def verify_scenario(sc: Scenario, run: Run | None = None) -> GreenReport:
    """Run every machine check of the Green equivalence and correspondence on
    the scenario's finite eligible test set, with one ``run`` memoizing
    decompositions, End analyses and vertices across all of them.  The pair
    checks run over one pass of ``correspondence``, which decomposes each
    Ind n, and the fully-faithful table then reads End(Ind n) from the run."""
    run = run or Run()
    cat_h, cat_g = (named_catalog(sc, side, run) for side in ("H", "G"))
    elig_h, elig_g = eligible(cat_h), eligible(cat_g)
    fam_g = sc.x_in_g
    fam_h = sc.x_in_h
    d_key = sc.D.canonical_class_key
    # the vertex class in G of every D-object row, which each pair reads
    # for its n
    classes = {name: _vertex_class_in_g(sc, mod, run)
               for cat in (cat_h, cat_g) for name, mod, d_obj, _ in cat
               if d_obj}
    rows_h, rows_g = (
        [{"name": name, "dim": mod.dim, "vertex_order": classes[name][1],
          "vertex_is_d": classes[name][0] == d_key, "x_object": x_obj}
         for name, mod, d_obj, x_obj in cat if d_obj]
        for cat in (cat_h, cat_g))

    verdicts: dict[str, bool] = {}

    # (b) bijection with round trips and explicit retract witnesses, and
    # (c) vertex preservation, per pair.  The eligible G classes are pairwise
    # non-isomorphic, so each m matches at most one, and the correspondence
    # is onto iff every one is matched
    pairs, induced = [], []
    bij_ok = vertex_ok = vertex_d_ok = True
    matched = set()
    for name, n, ind, m, res_m, round_trip in correspondence(sc, cat_h, run):
        induced.append((name, n, ind))
        m_le_ind = is_direct_summand(m, ind, run)
        n_le_res = is_direct_summand(n, res_m, run)
        match = next((j for j, (_, mg) in enumerate(elig_g)
                      if _iso_indec(mg, m, run)), None)
        bij_ok = (bij_ok and round_trip and m_le_ind and n_le_res
                  and match is not None)
        matched.add(match)
        key_n, ord_n = classes[name]
        key_m, _ = _vertex_class_in_g(sc, m, run)
        same = key_n == key_m
        vertex_ok = vertex_ok and same
        n_is_d = key_n == d_key
        m_is_d = key_m == d_key
        if sc.normalizer_condition and (n_is_d or m_is_d):
            vertex_d_ok = vertex_d_ok and n_is_d and m_is_d
        pairs.append({
            "n": name,
            "m": f"G:d{m.dim}?" if match is None else elig_g[match][0],
            "dim_n": n.dim, "dim_m": m.dim,
            "round_trip": round_trip,
            "m_retract_of_ind": m_le_ind,
            "n_retract_of_res": n_le_res,
            "vertex_order": ord_n,
            "vertex_preserved": same,
        })
    verdicts["bijection_round_trip"] = (
        bij_ok and matched.issuperset(range(len(elig_g))))
    verdicts["vertex_preservation"] = vertex_ok
    if sc.normalizer_condition:
        verdicts["vertex_D_restriction"] = vertex_d_ok

    # (a) fully-faithfulness: quotient hom dims match under induction
    ff_rows = []
    ff_ok = True
    for name1, n1, ind1 in induced:
        for name2, n2, ind2 in induced:
            dim_h = quotient_hom_dim(n1, n2, fam_h, run)
            dim_g = quotient_hom_dim(ind1, ind2, fam_g, run)
            equal = dim_h == dim_g
            ff_ok = ff_ok and equal
            ff_rows.append({
                "n1": name1, "n2": name2,
                "qdim_H": dim_h, "qdim_G": dim_g, "equal": equal,
            })
    verdicts["fully_faithful"] = ff_ok

    # (e) groupoid-level cross-checks
    verdicts["boundary_families_match"] = boundary_families_match(sc)

    # ideal property check: on every eligible module of either side, the
    # factoring subspace of End is closed under pre- and postcomposition by
    # every End basis element
    verdicts["factoring_is_ideal"] = all(
        _factoring_is_ideal(M, fam, run)
        for mods, fam in ((elig_h, fam_h), (elig_g, fam_g)) for _, M in mods)

    family_orders = {
        "X": [S.order for S in sc.families.x_classes],
        "Y": [S.order for S in sc.families.y_classes],
        "U": [S.order for S in sc.families.u_classes],
    }
    return GreenReport(
        scenario=sc.name, p=sc.p,
        orders=(sc.G.order, sc.H.order, sc.D.order),
        normalizer_condition=sc.normalizer_condition,
        indecomposables_H=rows_h,
        indecomposables_G=rows_g,
        correspondence_pairs=pairs,
        ff_table=ff_rows,
        verdicts=verdicts,
        family_orders=family_orders,
    )


def _factoring_is_ideal(M: FpModule, family: list[SubgroupEmbedding],
                        run: Run) -> bool:
    """Whether the family-factoring maps M -> M form a two-sided ideal of
    End(M)."""
    ends = end_basis(M, run)
    R, piv = factoring_subspace(M, M, family, ends)
    return not len(R) or _is_two_sided_ideal(R, piv, ends, M.p)


def _is_two_sided_ideal(R: np.ndarray, piv: list[int],
                        ends: list[np.ndarray], p: int) -> bool:
    """Whether the span of the reduced echelon rows R (flattened d x d maps,
    pivots piv) is closed under pre- and postcomposition by every element of
    ``ends``."""
    d = ends[0].shape[0]
    F = R.reshape(-1, 1, d, d)
    E = np.stack(ends)
    V = np.concatenate([mat_mul(F, E, p), mat_mul(E, F, p)]).reshape(-1, d * d)
    # a vector lies in the span of a reduced echelon basis iff it is the
    # combination of the basis rows given by its entries at the pivots
    return bool((mat_mul(V[:, piv], R, p) == V).all())


def degenerate_scenario(p: int, G: PermGroup, name: str = "degenerate") -> Scenario:
    W = whole_group(G)
    return Scenario.build(p, G, W, W, name)
