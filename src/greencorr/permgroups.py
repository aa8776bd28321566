"""Concrete finite groups as permutation groups.

Everything is stored by full element enumeration (target scale |G| <= 120),
with a deterministic element order: lexicographic on image tuples.  All
representative choices downstream (coset reps, double-coset reps, subgroup
canonical forms) refer to this order, so reports are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError

Perm = tuple[int, ...]


def pmul(a: Perm, b: Perm) -> Perm:
    """Compose permutations: apply b first, then a (so pmul matches matrix order)."""
    return tuple(a[b[i]] for i in range(len(a)))


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(0 1)(2 3)" or "(0,1,2)"; "()" is the identity."""
    text = text.strip()
    images = list(range(degree))
    if text in ("", "()", "e"):
        return tuple(images)
    cycles = re.findall(r"\(([^()]*)\)", text)
    if not cycles or re.sub(r"\([^()]*\)|\s", "", text):
        raise InputError(f"cannot parse cycle notation: {text!r}")
    for cyc in cycles:
        pts = [int(t) for t in re.split(r"[,\s]+", cyc.strip()) if t]
        if not pts:
            continue
        if any(x < 0 or x >= degree for x in pts):
            raise InputError(f"cycle point out of range 0..{degree - 1}: {cyc!r}")
        if len(set(pts)) != len(pts):
            raise InputError(f"repeated point in cycle: {cyc!r}")
        for i, x in enumerate(pts):
            images[x] = pts[(i + 1) % len(pts)]
    return tuple(images)


def cycle_string(p: Perm) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def coerce_perm(value, degree: int) -> Perm:
    """Accept a permutation as an image list/tuple or as a cycle string."""
    if isinstance(value, str):
        return parse_cycles(value, degree)
    p = tuple(int(v) for v in value)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise InputError(f"not a permutation of 0..{degree - 1}: {value!r}")
    return p


class PermGroup:
    """A finite group of permutations of {0..n-1}, fully enumerated.

    Elements are sorted lexicographically by image tuple; all indices below
    refer to that order.  The closure also records, for every non-identity
    element, a factorization step elem = parent * generator, giving a
    Cayley-graph spanning tree used downstream to evaluate representations.
    """

    def __init__(self, degree: int, generators: list[Perm]):
        self.degree = degree
        self.generators = [coerce_perm(g, degree) for g in generators]
        for g in self.generators:
            if len(g) != degree:
                raise InputError("generator degree mismatch")
        self.elements = self._close()
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.identity = self.index[identity_perm(degree)]
        self.gen_indices = [self.index[g] for g in self.generators]
        self._build_tables()

    def _close(self) -> tuple[Perm, ...]:
        eye = identity_perm(self.degree)
        seen = {eye}
        frontier = [eye]
        while frontier:
            new = []
            for x in frontier:
                for g in self.generators:
                    y = pmul(x, g)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return tuple(sorted(seen))

    def _build_tables(self) -> None:
        n = len(self.elements)
        self.mult = np.empty((n, n), dtype=np.int32)
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                self.mult[i, j] = self.index[pmul(a, b)]
        self.inv = np.empty(n, dtype=np.int32)
        for i, a in enumerate(self.elements):
            self.inv[i] = self.index[pinv(a)]
        # spanning tree: factor_of[i] = (parent, gen_pos) with elem = parent * gen
        self.factor_of: list[tuple[int, int] | None] = [None] * n
        done = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for x in frontier:
                for gpos, gidx in enumerate(self.gen_indices):
                    y = int(self.mult[x, gidx])
                    if y not in done:
                        done.add(y)
                        self.factor_of[y] = (x, gpos)
                        new.append(y)
            frontier = new

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def fingerprint(self) -> bytes:
        import hashlib

        h = hashlib.sha256()
        h.update(f"{self.degree}|".encode())
        for e in self.elements:
            h.update(bytes(e))
        for g in self.generators:
            h.update(bytes(g))
        return h.digest()

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = int(self.mult[x, i])
            k += 1
        return k

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1 by index."""
        return int(self.mult[self.mult[g, x], self.inv[g]])

    def subgroup_closure(self, gens: set[int]) -> frozenset[int]:
        seen = set(gens) | {self.identity}
        frontier = list(seen)
        while frontier:
            new = []
            for x in frontier:
                for y in list(seen):
                    for z in (int(self.mult[x, y]), int(self.mult[y, x])):
                        if z not in seen:
                            seen.add(z)
                            new.append(z)
            frontier = new
        return frozenset(seen)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        gens = ", ".join(cycle_string(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=<{gens}>)"

    def same_group(self, other: "PermGroup") -> bool:
        return self is other or (
            self.degree == other.degree and self.elements == other.elements
        )


def closure(generators: list, degree: int | None = None) -> PermGroup:
    """Enumerate the group generated by the given permutations.

    Accepts image tuples or cycle strings; an empty generator list (with an
    explicit degree) yields the trivial group.
    """
    if degree is None:
        if not generators:
            raise InputError("degree required for an empty generating set")
        first = generators[0]
        degree = len(first) if not isinstance(first, str) else 0
        if isinstance(first, str):
            raise InputError("degree required with cycle-notation generators")
    return PermGroup(degree, list(generators))


@dataclass(frozen=True)
class SubgroupEmbedding:
    """A subgroup given by its sorted element indices inside an ambient group."""

    ambient: PermGroup
    element_indices: tuple[int, ...]
    tag: str = ""

    def __post_init__(self):
        elems = frozenset(self.element_indices)
        object.__setattr__(self, "element_indices", tuple(sorted(elems)))
        if self.ambient.identity not in elems:
            raise InputError(f"subgroup {self.tag or self.element_indices} lacks identity")
        for x in elems:
            if int(self.ambient.inv[x]) not in elems:
                raise InputError("subset not closed under inverse")
            for y in elems:
                if int(self.ambient.mult[x, y]) not in elems:
                    raise InputError("subset not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.element_indices)

    @cached_property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.element_indices)

    @cached_property
    def generator_indices(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily in element order."""
        G = self.ambient
        have = {G.identity}
        gens: list[int] = []
        for x in self.element_indices:
            if x not in have:
                gens.append(x)
                have = set(G.subgroup_closure(set(gens)))
                if len(have) == self.order:
                    break
        return tuple(gens)

    @cached_property
    def group(self) -> PermGroup:
        """This subgroup as a PermGroup in its own right (same degree)."""
        gens = [self.ambient.elements[i] for i in self.generator_indices]
        sub = PermGroup(self.ambient.degree, gens)
        assert sub.order == self.order
        return sub

    @cached_property
    def to_ambient(self) -> tuple[int, ...]:
        """Index map from self.group's element order into the ambient group."""
        return tuple(self.ambient.index[p] for p in self.group.elements)

    @cached_property
    def from_ambient(self) -> dict[int, int]:
        return {a: i for i, a in enumerate(self.to_ambient)}

    def contains(self, other: "SubgroupEmbedding") -> bool:
        return other.element_set <= self.element_set

    def conjugated(self, g: int, tag: str = "") -> "SubgroupEmbedding":
        G = self.ambient
        elems = tuple(G.conjugate(g, x) for x in self.element_indices)
        return SubgroupEmbedding(G, elems, tag or self.tag)

    def canonical_class_key(self) -> tuple[int, ...]:
        """Minimal sorted element tuple over all ambient conjugates.

        Two subgroups are ambient-conjugate iff their keys agree.
        """
        best = None
        for g in range(self.ambient.order):
            t = tuple(sorted(self.ambient.conjugate(g, x) for x in self.element_indices))
            if best is None or t < best:
                best = t
        return best

    def __repr__(self) -> str:
        return f"Subgroup({self.tag or '?'}, order={self.order})"


def subgroup(G: PermGroup, generators: list, tag: str = "") -> SubgroupEmbedding:
    gens = [coerce_perm(g, G.degree) for g in generators]
    for g in gens:
        if g not in G.index:
            raise InputError(f"generator {cycle_string(g)} not in ambient group")
    elems = G.subgroup_closure({G.index[g] for g in gens})
    return SubgroupEmbedding(G, tuple(elems), tag)


def whole_group(G: PermGroup, tag: str = "G") -> SubgroupEmbedding:
    return SubgroupEmbedding(G, tuple(range(G.order)), tag)


def trivial_subgroup(G: PermGroup, tag: str = "1") -> SubgroupEmbedding:
    return SubgroupEmbedding(G, (G.identity,), tag)


def all_subgroups(G: PermGroup) -> list[SubgroupEmbedding]:
    """Every subgroup of G (not just up to conjugacy), by layered extension."""
    found: dict[frozenset[int], None] = {frozenset({G.identity}): None}
    frontier = [frozenset({G.identity})]
    while frontier:
        new = []
        for S in frontier:
            for x in range(G.order):
                if x in S:
                    continue
                T = G.subgroup_closure(set(S) | {x})
                if T not in found:
                    found[T] = None
                    new.append(T)
        frontier = new
    subs = [SubgroupEmbedding(G, tuple(S)) for S in found]
    subs.sort(key=lambda s: (s.order, s.element_indices))
    return subs


def double_cosets(
    G: PermGroup, H: SubgroupEmbedding, K: SubgroupEmbedding
) -> list[tuple[int, SubgroupEmbedding]]:
    """Representatives of H\\G/K with the intersection H ∩ gKg^-1 per class.

    Each representative is the minimal element of its class HgK in the
    deterministic element order.  The orbit-counting identity
    |G| = sum |H||K| / |H ∩ gKg^-1| is asserted on every call.
    """
    for S in (H, K):
        if S.ambient is not G and not S.ambient.same_group(G):
            raise InputError("subgroup not inside the given ambient group")
    unassigned = np.ones(G.order, dtype=bool)
    out: list[tuple[int, SubgroupEmbedding]] = []
    total = 0
    for g in range(G.order):
        if not unassigned[g]:
            continue
        # orbit of g under (h, k) . g = h g k
        orbit = {g}
        stack = [g]
        while stack:
            x = stack.pop()
            for h in H.element_indices:
                hx = int(G.mult[h, x])
                for k in K.element_indices:
                    y = int(G.mult[hx, k])
                    if y not in orbit:
                        orbit.add(y)
                        stack.append(y)
        for y in orbit:
            unassigned[y] = False
        # x in H with g^-1 x g in K, i.e. H ∩ gKg^-1
        inter_elems = tuple(
            x for x in H.element_indices
            if int(G.mult[G.mult[G.inv[g], x], g]) in K.element_set
        )
        emb = SubgroupEmbedding(G, inter_elems, f"H^g-cap-K@{g}")
        assert len(orbit) == H.order * K.order // emb.order
        total += len(orbit)
        out.append((g, emb))
    assert total == G.order
    return out


def normalizer(G: PermGroup, D: SubgroupEmbedding) -> SubgroupEmbedding:
    """N_G(D) by exhaustive conjugation."""
    if D.ambient is not G and not D.ambient.same_group(G):
        raise InputError("subgroup not inside the given ambient group")
    elems = tuple(
        g for g in range(G.order)
        if {G.conjugate(g, x) for x in D.element_indices} == set(D.element_indices)
    )
    return SubgroupEmbedding(G, elems, f"N({D.tag or 'D'})")


def p_part(n: int, p: int) -> int:
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def sylow(G: PermGroup, p: int) -> SubgroupEmbedding:
    """A Sylow p-subgroup, grown through normalizer chains.

    Starting from the trivial subgroup, repeatedly adjoin the first element
    of the current normalizer whose closure with the subgroup is again a
    p-group; Sylow theory guarantees such an element exists until the full
    p-part is reached.  If p does not divide |G| the trivial subgroup returns.
    """
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise InputError(f"{p} is not prime")
    target = p_part(G.order, p)
    current = frozenset({G.identity})
    while len(current) < target:
        N = normalizer(G, SubgroupEmbedding(G, tuple(current)))
        for g in N.element_indices:
            if g in current:
                continue
            T = G.subgroup_closure(set(current) | {g})
            if len(T) == p_part(len(T), p):
                current = T
                break
        else:
            raise AssertionError("Sylow growth step failed")  # unreachable
    return SubgroupEmbedding(G, tuple(current), f"Syl_{p}")


def subgroups_of(G: PermGroup, P: SubgroupEmbedding) -> list[SubgroupEmbedding]:
    """All subgroups of P, as subgroups of the ambient G."""
    found = {frozenset({G.identity})}
    frontier = [frozenset({G.identity})]
    while frontier:
        new = []
        for S in frontier:
            for x in P.element_indices:
                if x in S:
                    continue
                T = G.subgroup_closure(set(S) | {x})
                if T <= P.element_set and T not in found:
                    found.add(T)
                    new.append(T)
        frontier = new
    return [SubgroupEmbedding(G, tuple(S)) for S in found]


def p_subgroups_up_to_conjugacy(
    G: PermGroup, P: SubgroupEmbedding
) -> list[SubgroupEmbedding]:
    """Subgroups of P deduplicated up to G-conjugacy, sorted by order descending."""
    reps: dict[tuple[int, ...], SubgroupEmbedding] = {}
    for S in subgroups_of(G, P):
        key = S.canonical_class_key()
        if key not in reps or S.element_indices < reps[key].element_indices:
            reps[key] = S
    out = sorted(reps.values(), key=lambda s: (-s.order, s.element_indices))
    return out


@dataclass
class Families:
    """The subgroup families attached to a chain D <= H <= G.

    x/y/u_pairs list (double-coset representative, intersection subgroup) for
    every class with representative outside H; the *_classes views are
    deduplicated up to G-conjugacy of the intersection subgroup.
    """

    x_pairs: list[tuple[int, SubgroupEmbedding]]
    y_pairs: list[tuple[int, SubgroupEmbedding]]
    u_pairs: list[tuple[int, SubgroupEmbedding]]
    x_classes: list[SubgroupEmbedding] = field(default_factory=list)
    y_classes: list[SubgroupEmbedding] = field(default_factory=list)
    u_classes: list[SubgroupEmbedding] = field(default_factory=list)

    def __post_init__(self):
        for pairs, classes in (
            (self.x_pairs, self.x_classes),
            (self.y_pairs, self.y_classes),
            (self.u_pairs, self.u_classes),
        ):
            if classes:
                continue
            seen = {}
            for _, S in pairs:
                key = S.canonical_class_key()
                if key not in seen:
                    seen[key] = S
            classes.extend(sorted(seen.values(), key=lambda s: (-s.order, s.element_indices)))


def x_y_u_families(
    G: PermGroup, H: SubgroupEmbedding, D: SubgroupEmbedding
) -> Families:
    """Compute X = {D ∩ gDg^-1}, Y = {H ∩ gDg^-1}, U = {H ∩ gHg^-1} over
    double-coset classes with representative g outside H."""
    if not H.contains(D):
        raise InputError("chain violation: D is not contained in H")
    x_pairs = [
        (g, SubgroupEmbedding(G, S.element_indices, f"X@{g}"))
        for g, S in double_cosets(G, D, D)
        if g not in H.element_set
    ]
    y_pairs = [
        (g, SubgroupEmbedding(G, S.element_indices, f"Y@{g}"))
        for g, S in double_cosets(G, H, D)
        if g not in H.element_set
    ]
    u_pairs = [
        (g, SubgroupEmbedding(G, S.element_indices, f"U@{g}"))
        for g, S in double_cosets(G, H, H)
        if g not in H.element_set
    ]
    return Families(x_pairs, y_pairs, u_pairs)


def left_coset_representatives(G: PermGroup, S: SubgroupEmbedding) -> list[int]:
    """Minimal representatives of the left cosets gS, sorted."""
    seen = np.zeros(G.order, dtype=bool)
    reps = []
    for g in range(G.order):
        if seen[g]:
            continue
        reps.append(g)
        for s in S.element_indices:
            seen[int(G.mult[g, s])] = True
    return reps


def coset_lookup(G: PermGroup, S: SubgroupEmbedding) -> tuple[list[int], np.ndarray]:
    """Left coset reps plus an array mapping each element to its rep position."""
    reps = left_coset_representatives(G, S)
    where = np.full(G.order, -1, dtype=np.int32)
    for pos, g in enumerate(reps):
        for s in S.element_indices:
            where[int(G.mult[g, s])] = pos
    assert int(where.min()) >= 0
    return reps, where


def is_subconjugate(
    G: PermGroup, A: SubgroupEmbedding, B: SubgroupEmbedding
) -> bool:
    """True iff some G-conjugate of A is contained in B."""
    if A.order > B.order:
        return False
    for g in range(G.order):
        if all(G.conjugate(g, x) in B.element_set for x in A.element_indices):
            return True
    return False
