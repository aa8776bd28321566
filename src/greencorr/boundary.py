"""The boundary operator on isocommas: splitting (E/F/G) over (E/F/H).

Given a faithful i : H -> G and faithful embeddings E, F -> H, the isocomma
over H sits fully-faithfully inside the isocomma over G, with replete image;
the boundary is the union of the components missed by that image.  The
boundary always carries the restrictions of both projections and of the
tautological 2-cell, and embeds into H through the first projection (the
only convention this package uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, TheoremViolationError
from .groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    IsocommaResult,
    TwoCell,
    compose_functors,
    full_subgroupoid,
    identity_functor,
    is_equivalence,
    isocomma,
    isocomma_objects,
)


@dataclass
class PartialResult:
    """The split (E/F/G) ≅ (E/F/H) ⊔ boundary, with the maps attached to it.

    h_objects lists the objects of (E/F/G) in components that meet the
    image of (E/F/H), and boundary_objects the rest, both ascending.  What
    is derived from them is built when first read: the inner isocomma
    (E/F/H) and its fully-faithful comparison embedding into (E/F/G), the
    full subgroupoids h_part and boundary with their inclusions, the
    restricted projections pr1 and pr2_to_F on the boundary, the tacit
    embedding pr1_to_H : boundary -> H through the first projection, and
    gamma, the tautological 2-cell on the boundary.
    """

    i: GroupoidFunctor
    iota_e: GroupoidFunctor
    iota_f: GroupoidFunctor
    ambient: IsocommaResult
    h_objects: np.ndarray
    boundary_objects: np.ndarray
    name: str = "partial"

    @cached_property
    def inner(self) -> IsocommaResult:
        return isocomma(self.iota_e, self.iota_f)

    @cached_property
    def embedding(self) -> GroupoidFunctor:
        """The comparison (E/F/H) -> (E/F/G): (x, y, h) |-> (x, y, i(h))."""
        inner, ambient = self.inner, self.ambient
        x, y, h = inner.object_parts()
        obj_map = ambient.object_index(x, y, self.i.mor_map[h])
        o, a, b = inner.morphism_parts()
        return GroupoidFunctor(inner.groupoid, ambient.groupoid, obj_map,
                               ambient.morphism_index(obj_map[o], a, b),
                               name="(E/F/i)")

    @cached_property
    def h_part_inclusion(self) -> GroupoidFunctor:
        return full_subgroupoid(self.ambient.groupoid, self.h_objects,
                                name=self.name + ":h-part")[1]

    @cached_property
    def boundary_inclusion(self) -> GroupoidFunctor:
        return full_subgroupoid(self.ambient.groupoid, self.boundary_objects,
                                name=self.name + ":boundary")[1]

    @property
    def h_part(self) -> FiniteGroupoid:
        return self.h_part_inclusion.domain

    @property
    def boundary(self) -> FiniteGroupoid:
        return self.boundary_inclusion.domain

    @cached_property
    def pr1(self) -> GroupoidFunctor:
        return compose_functors(self.ambient.pr1, self.boundary_inclusion)

    @cached_property
    def pr2_to_F(self) -> GroupoidFunctor:
        return compose_functors(self.ambient.pr2, self.boundary_inclusion)

    @cached_property
    def pr1_to_H(self) -> GroupoidFunctor:
        return compose_functors(self.iota_e, self.pr1)

    @cached_property
    def gamma(self) -> TwoCell:
        return TwoCell(compose_functors(self.ambient.left, self.pr1),
                       compose_functors(self.ambient.right, self.pr2_to_F),
                       self.ambient.groupoid.g[self.boundary_objects],
                       name="gamma|boundary", check=False)

    @property
    def boundary_components(self):
        return self.boundary.components

    def ambient_to_boundary_objects(self) -> np.ndarray:
        """The boundary index of each ambient object, -1 outside (shared with
        the boundary: read only)."""
        return self.boundary.obj_sub

    def ambient_to_boundary_morphisms(self) -> np.ndarray:
        """The boundary index of each ambient morphism, -1 outside (shared
        with the boundary: read only)."""
        return self.boundary.mor_sub


def partial(i: GroupoidFunctor, iota_e: GroupoidFunctor,
            iota_f: GroupoidFunctor, name: str = "") -> PartialResult:
    """Compute the boundary of (E/F/G) relative to (E/F/H).

    i : H -> G and iota_e : E -> H, iota_f : F -> H must all be faithful.
    """
    for F, what in ((i, "i"), (iota_e, "iota_E"), (iota_f, "iota_F")):
        if not F.faithful:
            raise InputError(f"{what} must be faithful")
    if iota_e.codomain is not i.domain or iota_f.codomain is not i.domain:
        raise InputError("E and F must embed into the domain of i")

    ambient = isocomma(compose_functors(i, iota_e), compose_functors(i, iota_f))
    # the split needs only where the objects (x, y, h) of (E/F/H) land: on
    # (x, y, i(h))
    _, x, y, h = isocomma_objects(iota_e, iota_f)
    comp_of = ambient.groupoid.component_of()
    in_h = np.isin(comp_of, comp_of[ambient.object_index(x, y, i.mor_map[h])])
    return PartialResult(i, iota_e, iota_f, ambient,
                         np.flatnonzero(in_h), np.flatnonzero(~in_h),
                         name or "partial")


def diagonal_functor(k: GroupoidFunctor, ell: GroupoidFunctor,
                     part: PartialResult, part_prime: PartialResult) -> GroupoidFunctor:
    """The boundary restriction of (k/ell/G) : (E/F/G) -> (E'/F'/G).

    Requires the strict commutation iota_E = iota_E' ∘ k and
    iota_F = iota_F' ∘ ell; the image of a boundary component never meets the
    (E'/F'/H) part, which the construction asserts.
    """
    if part.i is not part_prime.i:
        raise InputError("diagonal functor requires the same i : H -> G")
    ce = compose_functors(part_prime.iota_e, k)
    cf = compose_functors(part_prime.iota_f, ell)
    if not ((ce.obj_map == part.iota_e.obj_map).all()
            and (ce.mor_map == part.iota_e.mor_map).all()):
        raise InputError("embeddings do not commute strictly on the E side")
    if not ((cf.obj_map == part.iota_f.obj_map).all()
            and (cf.mor_map == part.iota_f.mor_map).all()):
        raise InputError("embeddings do not commute strictly on the F side")

    amb, amb2 = part.ambient, part_prime.ambient
    b_to_amb = part.boundary_inclusion
    x, y, g = amb.object_parts(b_to_amb.obj_map)
    target = amb2.object_index(k.obj_map[x], ell.obj_map[y], g)
    obj_map = part_prime.ambient_to_boundary_objects()[target]
    if (obj_map < 0).any():
        raise TheoremViolationError(
            "image of a boundary object fell into the H part")
    _, a, b = amb.morphism_parts(b_to_amb.mor_map)
    src2 = part_prime.boundary_inclusion.obj_map[obj_map[part.boundary.msrc]]
    target = amb2.morphism_index(src2, k.mor_map[a], ell.mor_map[b])
    mor_map = part_prime.ambient_to_boundary_morphisms()[target]
    assert (mor_map >= 0).all()
    return GroupoidFunctor(part.boundary, part_prime.boundary, obj_map, mor_map,
                           name="∂(k,ell)")


def geography_check(i: GroupoidFunctor, j1: GroupoidFunctor,
                    j2: GroupoidFunctor) -> tuple[bool, GroupoidFunctor]:
    """Check the equivalence (D1 / boundary(H,D2) / H) ≃ boundary(D1,D2).

    Builds the canonical comparison functor obtained by pasting the Mackey
    squares of the double isocomma diagram and tests it exhaustively.
    Returns (verdict, witness functor).
    """
    H = i.domain
    part_dd = partial(i, j1, j2, name="dd")
    part_hd = partial(i, identity_functor(H), j2, name="hd")
    u2 = part_hd.pr1_to_H  # equals pr1 since E = H
    Y = isocomma(j1, u2)

    Bdd = part_dd.boundary
    b_to_amb = part_dd.boundary_inclusion
    x, y, g = part_dd.ambient.object_parts(b_to_amb.obj_map)
    hx = j1.obj_map[x]
    b2_of = part_hd.ambient_to_boundary_objects()[
        part_hd.ambient.object_index(hx, y, g)]
    if (b2_of < 0).any():
        raise TheoremViolationError(
            "boundary(D1,D2) object landed outside boundary(H,D2)")
    obj_map = Y.object_index(x, b2_of, H.ident[hx])
    _, a, b = part_dd.ambient.morphism_parts(b_to_amb.mor_map)
    src = Bdd.msrc
    amb2_src = part_hd.boundary_inclusion.obj_map[b2_of[src]]
    w = part_hd.ambient_to_boundary_morphisms()[
        part_hd.ambient.morphism_index(amb2_src, j1.mor_map[a], b)]
    assert (w >= 0).all()
    mor_map = Y.morphism_index(obj_map[src], a, w)
    witness = GroupoidFunctor(Bdd, Y.groupoid, obj_map, mor_map,
                              name="geography-comparison")
    return is_equivalence(witness), witness


@dataclass
class TrickyFactorization:
    """u : (H / boundary(D,D) / G) -> boundary(H,D) with pr1 ∘ u = pr1 strictly."""

    u: GroupoidFunctor
    domain_isocomma: IsocommaResult
    target_partial: PartialResult
    strict_on_objects: bool
    strict_on_morphisms: bool


def tricky_factorization(i: GroupoidFunctor, j: GroupoidFunctor) -> TrickyFactorization:
    """Factor pr1 : (H / boundary(D,D) / G) -> H through boundary(H,D).

    The functor u is assembled from two formulas, one per side of the split
    (H/B/G) ≅ (H/B/H) ⊔ boundary(H,B) where B = boundary(D,D): on components
    meeting (H/B/H) the middle triple is pushed along the inner 2-cell, on the
    rest the first projection of B is applied.  Strict equality pr1 ∘ u = pr1
    is asserted exhaustively; a failure would falsify the implementation.
    """
    H, G = i.domain, i.codomain
    part_dd = partial(i, j, j, name="dd")
    iota_b = part_dd.pr1_to_H  # B -> H via j ∘ pr1, the tacit convention

    part_hb = partial(i, identity_functor(H), iota_b, name="hb")
    M = part_hb.ambient  # (H/B/G)
    part_hd = partial(i, identity_functor(H), j, name="hd")
    W = part_hd.ambient  # (H/D/G)
    t_obj = part_hd.ambient_to_boundary_objects()
    t_mor = part_hd.ambient_to_boundary_morphisms()

    in_h = np.zeros(M.groupoid.n_objects, dtype=bool)
    in_h[part_hb.h_objects] = True

    # object (x, b, g) of M, with b = (xd, yd, a) in B: on the (H/B/H) side
    # the triple is pushed along a, elsewhere the first projection is applied
    dd_amb = part_dd.ambient
    x, b_obj, g = M.object_parts()
    xd, yd, a = dd_amb.object_parts(part_dd.boundary_inclusion.obj_map[b_obj])
    pushed = G.compose_many(a, g)
    target = W.object_index(x, np.where(in_h, yd, xd), np.where(in_h, pushed, g))
    obj_map = t_obj[target]
    if (obj_map < 0).any():
        raise TheoremViolationError(
            "factorization image left boundary(H,D)")

    o, h_m, bm = M.morphism_parts()
    d1, d2 = dd_amb.morphism_parts(part_dd.boundary_inclusion.mor_map[bm])[1:]
    d = np.where(in_h[o], d2, d1)
    del d1, d2
    w_src = part_hd.boundary_inclusion.obj_map[obj_map[o]]
    mor_map = t_mor[W.morphism_index(w_src, h_m, d)]
    assert (mor_map >= 0).all()
    Tgpd = part_hd.boundary
    u = GroupoidFunctor(M.groupoid, Tgpd, obj_map, mor_map, name="u")

    # strict equality pr1 ∘ u = pr1 on objects and morphisms
    left_obj = part_hd.pr1.obj_map[u.obj_map]
    left_mor = part_hd.pr1.mor_map[u.mor_map]
    strict_obj = bool((left_obj == M.pr1.obj_map).all())
    strict_mor = bool((left_mor == M.pr1.mor_map).all())
    if not (strict_obj and strict_mor):
        raise TheoremViolationError("pr1 ∘ u differs from pr1")
    return TrickyFactorization(u, M, part_hd, strict_obj, strict_mor)
