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
        inner = self.inner
        x, y, h = inner.object_parts()
        _, a, b = inner.morphism_parts()
        return self.ambient.functor_from(inner.groupoid, x, y, self.i.mor_map[h],
                                         a, b, "(E/F/i)")

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

    def onto_boundary(self, F: GroupoidFunctor, what: str) -> GroupoidFunctor:
        """F, a functor into the ambient isocomma, with its codomain cut down
        to the boundary.  Raises TheoremViolationError(what) when F sends an
        object outside the boundary; the boundary is a full subgroupoid, so
        it then holds every morphism of F's image."""
        obj_map = self.ambient_to_boundary_objects()[F.obj_map]
        if (obj_map < 0).any():
            raise TheoremViolationError(what)
        mor_map = self.ambient_to_boundary_morphisms()[F.mor_map]
        assert mor_map.min(initial=0) >= 0
        return GroupoidFunctor(F.domain, self.boundary, obj_map, mor_map,
                               F.name)


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

    b_to_amb = part.boundary_inclusion
    x, y, g = part.ambient.object_parts(b_to_amb.obj_map)
    _, a, b = part.ambient.morphism_parts(b_to_amb.mor_map)
    F = part_prime.ambient.functor_from(
        part.boundary, k.obj_map[x], ell.obj_map[y], g, k.mor_map[a],
        ell.mor_map[b], "∂(k,ell)")
    return part_prime.onto_boundary(
        F, "image of a boundary object fell into the H part")


def geography_check(i: GroupoidFunctor, j1: GroupoidFunctor,
                    j2: GroupoidFunctor) -> tuple[bool, GroupoidFunctor]:
    """Check the equivalence (D1 / boundary(H,D2) / H) ≃ boundary(D1,D2).

    Builds the canonical comparison functor obtained by pasting the Mackey
    squares of the double isocomma diagram and tests it exhaustively: a
    boundary object b goes to (pr1 b, ∂(j1, id)(b), id), where the diagonal
    ∂(j1, id) : boundary(D1,D2) -> boundary(H,D2) is ``diagonal_functor``.
    Returns (verdict, witness functor).
    """
    H = i.domain
    part_dd = partial(i, j1, j2, name="dd")
    part_hd = partial(i, identity_functor(H), j2, name="hd")
    u2 = part_hd.pr1_to_H  # equals pr1 since E = H
    Y = isocomma(j1, u2)

    diag = diagonal_functor(j1, identity_functor(j2.domain), part_dd, part_hd)
    pr1 = part_dd.pr1
    witness = Y.functor_from(part_dd.boundary, pr1.obj_map, diag.obj_map,
                             H.ident[j1.obj_map[pr1.obj_map]], pr1.mor_map,
                             diag.mor_map, "geography-comparison")
    return is_equivalence(witness), witness


@dataclass
class TrickyFactorization:
    """u : (H / boundary(D,D) / G) -> boundary(H,D) with pr1 ∘ u = pr1 strictly."""

    u: GroupoidFunctor
    strict_on_objects: bool
    strict_on_morphisms: bool


def tricky_factorization(i: GroupoidFunctor, j: GroupoidFunctor) -> TrickyFactorization:
    """Factor pr1 : (H / boundary(D,D) / G) -> H through boundary(H,D).

    The functor u is assembled from two formulas, one per side of the split
    (H/B/G) ≅ (H/B/H) ⊔ boundary(H,B) where B = boundary(D,D): on components
    meeting (H/B/H) the middle triple is pushed along the inner 2-cell, on the
    rest the first projection of B is applied.  Strict equality pr1 ∘ u = pr1
    is compared exhaustively, on objects and on morphisms, and the two
    results are returned as ``strict_on_objects`` and
    ``strict_on_morphisms``; a False would falsify the implementation.
    """
    H, G = i.domain, i.codomain
    part_dd = partial(i, j, j, name="dd")
    iota_b = part_dd.pr1_to_H  # B -> H via j ∘ pr1, the tacit convention

    part_hb = partial(i, identity_functor(H), iota_b, name="hb")
    M = part_hb.ambient  # (H/B/G)
    part_hd = partial(i, identity_functor(H), j, name="hd")
    W = part_hd.ambient  # (H/D/G)

    in_h = np.zeros(M.groupoid.n_objects, dtype=bool)
    in_h[part_hb.h_objects] = True

    # object (x, b, g) of M, with b = (xd, yd, a) in B: on the (H/B/H) side
    # the triple is pushed along a, elsewhere the first projection is applied
    dd_amb = part_dd.ambient
    x, b_obj, g = M.object_parts()
    xd, yd, a = dd_amb.object_parts(part_dd.boundary_inclusion.obj_map[b_obj])
    pushed = G.compose_many(a, g)

    o, h_m, bm = M.morphism_parts()
    d1, d2 = dd_amb.morphism_parts(part_dd.boundary_inclusion.mor_map[bm])[1:]
    d = np.where(in_h[o], d2, d1)
    del d1, d2
    u = part_hd.onto_boundary(
        W.functor_from(M.groupoid, x, np.where(in_h, yd, xd),
                       np.where(in_h, pushed, g), h_m, d, "u"),
        "factorization image left boundary(H,D)")

    # strict equality pr1 ∘ u = pr1 on objects and morphisms
    left_obj = part_hd.pr1.obj_map[u.obj_map]
    left_mor = part_hd.pr1.mor_map[u.mor_map]
    return TrickyFactorization(u, bool((left_obj == M.pr1.obj_map).all()),
                               bool((left_mor == M.pr1.mor_map).all()))
