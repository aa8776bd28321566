"""Concrete finite groups as permutation groups.

Everything is stored by full element enumeration (target scale |G| <= 120),
with a deterministic element order: lexicographic on image tuples.  All
representative choices downstream (coset reps, double-coset reps, subgroup
canonical forms) refer to this order, so reports are reproducible.

The closure is one breadth-first walk over the generators, which records the
Cayley-graph spanning tree ``factor_of`` as it discovers each element.

A PermGroup keeps three index tables: ``mult[a, b] = ab``,
``inv[a] = a^-1`` and ``conj[g, x] = g x g^-1``.  Every subgroup, coset and
conjugacy routine reads them: closures walk rows of ``mult``, a coset gS is
the row ``mult[g, S]`` and a double coset HgK the block ``mult[Hg, K]``, and
conjugates, normalizers, class keys and subconjugacy are rows of ``conj``
tested against a subgroup's boolean ``mask``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError

Perm = tuple[int, ...]


def pmul(a: Perm, b: Perm) -> Perm:
    """Compose permutations: apply b first, then a (so pmul matches matrix order)."""
    return tuple(a[b[i]] for i in range(len(a)))


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
        try:
            pts = [int(t) for t in re.split(r"[,\s]+", cyc.strip()) if t]
        except ValueError:
            raise InputError(f"cannot parse cycle notation: {text!r}") from None
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


def is_integer(value) -> bool:
    """True for an int or a numpy integer; False for a bool, a float or a
    string, which ``int()`` would truncate or parse."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def json_integer(value, what: str) -> int:
    """``value`` if it passes ``is_integer``, else InputError naming it."""
    if not is_integer(value):
        raise InputError(f"{what} must be an integer, not {value!r}")
    return value


def coerce_perm(value, degree: int) -> Perm:
    """Accept a permutation as a list/tuple of integer images or as a cycle
    string."""
    if isinstance(value, str):
        return parse_cycles(value, degree)
    try:
        images = list(value)
    except TypeError:
        images = None
    if (images is None or not all(is_integer(v) for v in images)
            or sorted(images) != list(range(degree))):
        raise InputError(f"not a permutation of 0..{degree - 1}: {value!r}")
    return tuple(int(v) for v in images)


class PermGroup:
    """A finite group of permutations of {0..n-1}, fully enumerated.

    Elements are sorted lexicographically by image tuple; all indices below
    refer to that order, as do the tables ``mult``, ``inv`` and ``conj``.  The
    closure walks the generators once, and records for every non-identity
    element the step elem = parent * generator that first reached it: the
    Cayley-graph spanning tree ``factor_of``, which evaluates
    representations downstream.
    """

    def __init__(self, degree: int, generators: list[Perm]):
        self.degree = degree
        self.generators = [coerce_perm(g, degree) for g in generators]
        for g in self.generators:
            if len(g) != degree:
                raise InputError("generator degree mismatch")
        tree = self._close()
        self.elements = tuple(sorted(tree))
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.identity = self.index[identity_perm(degree)]
        self.gen_indices = [self.index[g] for g in self.generators]
        # spanning tree: factor_of[i] = (parent, gen_pos) with elem = parent * gen
        self.factor_of: list[tuple[int, int] | None] = [
            None if step is None else (self.index[step[0]], step[1])
            for step in map(tree.get, self.elements)]
        self._build_tables()

    def _close(self) -> dict[Perm, tuple[Perm, int] | None]:
        """Every element, breadth first from the identity by right
        multiplication with the generators, mapped to the (parent, generator
        position) of the step that first reached it; None for the identity."""
        eye = identity_perm(self.degree)
        tree: dict[Perm, tuple[Perm, int] | None] = {eye: None}
        frontier = [eye]
        while frontier:
            new = []
            for x in frontier:
                for gpos, g in enumerate(self.generators):
                    y = pmul(x, g)
                    if y not in tree:
                        tree[y] = (x, gpos)
                        new.append(y)
            frontier = new
        return tree

    def _build_tables(self) -> None:
        n = len(self.elements)
        E = np.array(self.elements, dtype=np.int64).reshape(n, self.degree)
        keys = _lex_keys(E)  # sorted, as the elements are
        # (ab)(i) = a(b(i)): row a of E read at the images of b, every pair
        self.mult = keys.searchsorted(
            _lex_keys(E[np.arange(n)[:, None, None], E])).astype(np.int32)
        inverses = np.empty_like(E)
        inverses[np.arange(n)[:, None], E] = np.arange(self.degree)
        self.inv = keys.searchsorted(_lex_keys(inverses)).astype(np.int32)
        # conj[g, x] = g x g^-1
        self.conj = self.mult[self.mult, self.inv[:, None]]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def fingerprint(self) -> bytes:
        """A memo key for the group: the exact bytes of the degree, every
        element and every generator, with no digest.  Each point takes the
        width of the smallest unsigned type that holds degree - 1, one byte
        up to degree 256, so the degree fixes where each image starts.
        Equal keys mean the same elements in the same order and the same
        generating sequence."""
        width = np.min_scalar_type(max(self.degree - 1, 0))
        return b"".join([f"{self.degree}|".encode(),
                         np.array(self.elements, dtype=width).tobytes(),
                         np.array(self.generators, dtype=width).tobytes()])

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1 by index."""
        return int(self.conj[g, x])

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by gens.

        In a finite group the elements reached from the identity by right
        multiplication with the generators already form a subgroup.
        """
        right = self.mult[:, sorted(gens)].tolist()
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for x in frontier:
                for y in right[x]:
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
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


def _lex_keys(images: np.ndarray) -> np.ndarray:
    """One key per image tuple (last axis), ordered as the tuples are
    lexicographically: the big-endian bytes of the images, compared as
    bytes, after a zero that gives the identity of degree 0 a key too."""
    *lead, degree = images.shape
    b = np.zeros((*lead, degree + 1), dtype=">u4")
    b[..., 1:] = images
    return b.view(np.dtype((np.void, 4 * (degree + 1))))[..., 0]


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
    # membership of each ambient element
    mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(sorted({int(x) for x in self.element_indices}))
        object.__setattr__(self, "element_indices", elems)
        G = self.ambient
        if G.identity not in elems:
            raise InputError(f"subgroup {self.tag or elems} lacks identity")
        e = np.array(elems)
        mask = np.zeros(G.order, dtype=bool)
        mask[e] = True
        object.__setattr__(self, "mask", mask)
        if not mask[G.inv[e]].all():
            raise InputError("subset not closed under inverse")
        if not mask[G.mult[e[:, None], e]].all():
            raise InputError("subset not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.element_indices)

    @cached_property
    def generator_indices(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily in element order."""
        G = self.ambient
        have = {G.identity}
        gens: list[int] = []
        for x in self.element_indices:
            if x not in have:
                gens.append(x)
                have = G.subgroup_closure(gens)
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

    @property
    def to_ambient(self) -> tuple[int, ...]:
        """Index map from self.group's element order into the ambient group:
        the element indices themselves, since both groups sort their
        elements by image tuple."""
        return self.element_indices

    @cached_property
    def from_ambient(self) -> dict[int, int]:
        return {a: i for i, a in enumerate(self.to_ambient)}

    def contains(self, other: "SubgroupEmbedding") -> bool:
        return bool(self.mask[list(other.element_indices)].all())

    def conjugated(self, g: int, tag: str = "") -> "SubgroupEmbedding":
        elems = self.ambient.conj[g, list(self.element_indices)]
        return SubgroupEmbedding(self.ambient, tuple(elems.tolist()),
                                 tag or self.tag)

    @cached_property
    def canonical_class_key(self) -> tuple[int, ...]:
        """Minimal sorted element tuple over all ambient conjugates.

        Two subgroups are ambient-conjugate iff their keys agree.
        """
        conjugates = np.sort(self.ambient.conj[:, list(self.element_indices)],
                             axis=1)
        least = np.lexsort(conjugates.T[::-1])[0]
        return tuple(conjugates[least].tolist())

    def __repr__(self) -> str:
        return f"Subgroup({self.tag or '?'}, order={self.order})"


def subgroup(G: PermGroup, generators: list, tag: str = "") -> SubgroupEmbedding:
    gens = [coerce_perm(g, G.degree) for g in generators]
    for g in gens:
        if g not in G.index:
            raise InputError(f"{tag or 'subgroup'} generator {cycle_string(g)} "
                             f"is not in the ambient group")
    elems = G.subgroup_closure(G.index[g] for g in gens)
    return SubgroupEmbedding(G, tuple(elems), tag)


def whole_group(G: PermGroup, tag: str = "G") -> SubgroupEmbedding:
    return SubgroupEmbedding(G, tuple(range(G.order)), tag)


def trivial_subgroup(G: PermGroup, tag: str = "1") -> SubgroupEmbedding:
    return SubgroupEmbedding(G, (G.identity,), tag)


def class_representatives(
    subgroups: list[SubgroupEmbedding],
) -> list[SubgroupEmbedding]:
    """The first member of each ambient conjugacy class, in input order."""
    reps: dict[tuple[int, ...], SubgroupEmbedding] = {}
    for S in subgroups:
        reps.setdefault(S.canonical_class_key, S)
    return list(reps.values())


def all_subgroups(G: PermGroup) -> list[SubgroupEmbedding]:
    """Every subgroup of G (not just up to conjugacy), by layered extension.

    Each subgroup found, with the generators that found it, is extended by
    one element x of every other left coset xS (all of xS give the same
    subgroup <S, x>).
    """
    found = [trivial_subgroup(G, tag="")]
    gens_of = {found[0].element_indices: ()}
    for S in found:  # grows while it is walked
        gens = gens_of[S.element_indices]
        for x in left_coset_representatives(G, S):
            if S.mask[x]:
                continue
            T = tuple(sorted(G.subgroup_closure((*gens, x))))
            if T not in gens_of:
                gens_of[T] = (*gens, x)
                found.append(SubgroupEmbedding(G, T))
    found.sort(key=lambda s: (s.order, s.element_indices))
    return found


def _check_ambient(G: PermGroup, *subgroups: SubgroupEmbedding) -> None:
    for S in subgroups:
        if S.ambient is not G and not S.ambient.same_group(G):
            raise InputError("subgroup not inside the given ambient group")


def double_cosets(
    G: PermGroup, H: SubgroupEmbedding, K: SubgroupEmbedding
) -> list[tuple[int, SubgroupEmbedding]]:
    """Representatives of H\\G/K with the intersection H ∩ gKg^-1 per class.

    Each representative is the minimal element of its class HgK in the
    deterministic element order.  The orbit-counting identity
    |G| = sum |H||K| / |H ∩ gKg^-1| is asserted on every call.
    """
    _check_ambient(G, H, K)
    h = np.array(H.element_indices)
    # the least element of each xK, then of each HgK = the union of the hgK
    least = G.mult[:, list(K.element_indices)].min(1)[G.mult[h]].min(0)
    reps = np.flatnonzero(least == np.arange(G.order))
    sizes = np.bincount(least, minlength=G.order)[reps]
    assert sizes.sum() == G.order
    # row r: the x in H with g^-1 x g in K, i.e. H ∩ gKg^-1 for g = reps[r]
    inside = K.mask[G.conj[G.inv[reps][:, None], h]]
    out: list[tuple[int, SubgroupEmbedding]] = []
    for g, size, row in zip(reps.tolist(), sizes.tolist(), inside):
        emb = SubgroupEmbedding(G, tuple(h[row].tolist()), f"H^g-cap-K@{g}")
        assert size == H.order * K.order // emb.order
        out.append((g, emb))
    return out


def normalizer(G: PermGroup, D: SubgroupEmbedding) -> SubgroupEmbedding:
    """N_G(D): the rows g of the conjugation table that map D into D."""
    _check_ambient(G, D)
    stable = D.mask[G.conj[:, list(D.element_indices)]].all(axis=1)
    return SubgroupEmbedding(G, tuple(np.flatnonzero(stable).tolist()),
                             f"N({D.tag or 'D'})")


def p_part(n: int, p: int) -> int:
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def require_prime(p: int) -> None:
    """Raise InputError unless p is prime, by Miller-Rabin to the first 13
    primes as bases, which decides every p below the bound (Sorenson and
    Webster, Math. Comp. 86, 2017); a larger p is refused."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    bound = 3_317_044_064_679_887_385_961_981
    if p >= bound:
        raise InputError(f"p = {p} is too large to test for primality "
                         f"(the bound is {bound})")
    if p < 2:
        raise InputError(f"{p} is not prime")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, p)
        if a < p and x not in (1, p - 1) and all(
                pow(x, 1 << k, p) != p - 1 for k in range(1, s)):
            raise InputError(f"{p} is not prime")


def sylow(G: PermGroup, p: int) -> SubgroupEmbedding:
    """A Sylow p-subgroup, grown through normalizer chains.

    Starting from the trivial subgroup, repeatedly adjoin the first element
    of the current normalizer whose closure with the subgroup is again a
    p-group; Sylow theory guarantees such an element exists until the full
    p-part is reached.  If p does not divide |G| the trivial subgroup returns.
    """
    require_prime(p)
    target = p_part(G.order, p)
    current = trivial_subgroup(G, f"Syl_{p}")
    gens: tuple[int, ...] = ()
    while current.order < target:
        for g in normalizer(G, current).element_indices:
            if current.mask[g]:
                continue
            T = G.subgroup_closure((*gens, g))
            if len(T) == p_part(len(T), p):
                gens += (g,)
                current = SubgroupEmbedding(G, tuple(T), f"Syl_{p}")
                break
        else:
            raise AssertionError("Sylow growth step failed")  # unreachable
    return current


def p_subgroups_up_to_conjugacy(
    G: PermGroup, P: SubgroupEmbedding
) -> list[SubgroupEmbedding]:
    """Subgroups of P deduplicated up to G-conjugacy, sorted by order descending.

    Each class keeps its member with the least element tuple: all_subgroups
    lists them in that order, and to_ambient keeps it.
    """
    subs = [SubgroupEmbedding(G, tuple(P.to_ambient[i] for i in S.element_indices))
            for S in all_subgroups(P.group)]
    return sorted(class_representatives(subs),
                  key=lambda s: (-s.order, s.element_indices))


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
    x_classes: list[SubgroupEmbedding] = field(init=False)
    y_classes: list[SubgroupEmbedding] = field(init=False)
    u_classes: list[SubgroupEmbedding] = field(init=False)

    def __post_init__(self):
        for name in ("x", "y", "u"):
            members = [S for _, S in getattr(self, f"{name}_pairs")]
            setattr(self, f"{name}_classes",
                    sorted(class_representatives(members),
                           key=lambda s: (-s.order, s.element_indices)))


def x_y_u_families(
    G: PermGroup, H: SubgroupEmbedding, D: SubgroupEmbedding
) -> Families:
    """Compute X = {D ∩ gDg^-1}, Y = {H ∩ gDg^-1}, U = {H ∩ gHg^-1} over
    double-coset classes with representative g outside H."""
    if not H.contains(D):
        raise InputError("chain violation: D is not contained in H")
    return Families(*[
        [(g, S) for g, S in double_cosets(G, left, right) if not H.mask[g]]
        for left, right in ((D, D), (H, D), (H, H))])


def coset_lookup(G: PermGroup, S: SubgroupEmbedding) -> tuple[list[int], np.ndarray]:
    """Left coset reps plus an array mapping each element to its rep position.

    Row g of mult[:, S] is the coset gS; its minimum is the coset's
    representative.
    """
    least = G.mult[:, list(S.element_indices)].min(axis=1)
    reps = np.flatnonzero(least == np.arange(G.order))
    position = np.empty(G.order, dtype=np.int32)
    position[reps] = np.arange(len(reps))
    return reps.tolist(), position[least]


def left_coset_representatives(G: PermGroup, S: SubgroupEmbedding) -> list[int]:
    """Minimal representatives of the left cosets gS, sorted."""
    return coset_lookup(G, S)[0]


def is_subconjugate(
    G: PermGroup, A: SubgroupEmbedding, B: SubgroupEmbedding
) -> bool:
    """True iff some G-conjugate of A is contained in B."""
    if A.order > B.order:
        return False
    return bool(B.mask[G.conj[:, list(A.element_indices)]].all(axis=1).any())
