"""Finite groupoids, functors, 2-cells, isocommas and Mackey squares.

Groupoids are extensional: every object and every morphism is enumerated,
with parallel int arrays of sources and targets.  Composition and inversion
are index maps that act on whole int arrays at once, one per construction:

* a group groupoid reads its group's multiplication and inverse tables;
* a full subgroupoid maps through its parent's morphism numbering;
* an isocomma morphism is a pair (a, b) and composes by its two factors.

No table of composable pairs is ever materialized, which keeps isocommas
with a few hundred thousand morphisms workable.  Hom-sets, connected
components, functors and the exhaustive axiom checks are array operations on
these maps.

An isocomma keeps 16 bytes per morphism: four int32 arrays (source, target
and the factor pair (a, b)), built by int32 index gathers.  It finds the
object (x, y, g) by two more gathers, pair_start[x * nB + y] + hom_rank[g],
with no key search.  When both legs start at one-object groupoids, as for
two subgroups of a group, every array has a closed form: the objects are
the one hom-set hom(i(0), u(0)), each has |A| |B| morphisms, a, b and the
source are divisions of one range, and the target of (a, b) out of g is
hom_rank[u(b) g i(a)^-1].  Legs with several objects enumerate the hom-sets
and out-lists pair by pair.  Either way the morphisms out of each object
form one block, so an isocomma's out-lists are known at construction.
What is derived is built when first read: an isocomma's projections and
tautological 2-cell, a full subgroupoid's map mor_sub back from its parent,
the out-lists of every other construction, and every groupoid's hom-set
order, hom ranks and components.  A connected component is found from the least
target of each out-list, with no sort of the hom-sets.

Objects are never sorted: each construction lists them in a fixed order
built from the orders of its inputs, so every derived construction is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .permgroups import PermGroup, SubgroupEmbedding

# the exhaustive checks enumerate composable pairs and triples this many at a
# time.  Validating group_groupoid(S5) (1.7M triples) raised peak RSS by
# 2.4 MB at 2^14, 5.8 MB at 2^16, 17 MB at 2^18 and 88 MB unchunked, with the
# same speed from 2^12 to 2^16
_CHUNK = 1 << 14


def _spans(counts) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) int32 arrays listing offset in range(counts[k]) for
    each k, in order."""
    counts = np.asarray(counts, dtype=np.int32)
    owner = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    offset = np.arange(len(owner), dtype=np.int32)
    offset -= (np.cumsum(counts, dtype=np.int32) - counts)[owner]
    return owner, offset


def _chunked_spans(counts):
    """_spans(counts), yielded in pieces of at most _CHUNK entries."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _CHUNK):
        pos = np.arange(lo, min(lo + _CHUNK, total))
        owner = np.searchsorted(ends, pos, side="right")
        yield owner, pos - (ends[owner] - counts[owner])


def _distinct(a) -> np.ndarray:
    """The sorted distinct values of a, flattened, as numpy's ``unique``
    returns them, from one sort and one comparison of neighbours.  ``unique``
    asks ``numpy.ma`` whether a is masked, and the first import of
    ``numpy.ma`` costs more than a small verify."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


class FiniteGroupoid:
    """A finite groupoid with indexed objects and morphisms.

    objects: labels in canonical order; msrc, mtgt: the source and target
    object of each morphism; ident: the identity morphism of each object.
    Each construction is a subclass that supplies composition as the map
    _compose(g, f) -> g∘f on int arrays of composable pairs, which may
    broadcast against each other, and inversion as the array _inverse().
    """

    def __init__(self, objects, msrc, mtgt, ident, name="groupoid"):
        self.objects = list(objects)
        self.msrc = np.asarray(msrc, dtype=np.int32)
        self.mtgt = np.asarray(mtgt, dtype=np.int32)
        self.ident = np.asarray(ident, dtype=np.int32)
        self.name = name

    def _compose(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inverse(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.msrc)

    @cached_property
    def inv(self) -> np.ndarray:
        """The inverse of each morphism."""
        return np.asarray(self._inverse(), dtype=np.int32)

    def compose_many(self, g, f) -> np.ndarray:
        """g∘f elementwise, for arrays with tgt(f) == src(g) throughout."""
        g = np.asarray(g, dtype=np.int64)
        f = np.asarray(f, dtype=np.int64)
        if (self.mtgt[f] != self.msrc[g]).any():
            raise InputError("morphisms are not composable")
        return self._compose(g, f)

    def compose(self, g: int, f: int) -> int:
        """g∘f, defined when tgt(f) == src(g)."""
        return int(self.compose_many([g], [f])[0])

    def identity_morphism(self, x: int) -> int:
        return int(self.ident[x])

    def inverse(self, m: int) -> int:
        return int(self.inv[m])

    # lazy structural indexes -------------------------------------------------

    @cached_property
    def _out_deg(self) -> np.ndarray:
        return np.bincount(self.msrc, minlength=self.n_objects)

    @cached_property
    def _out_sorted(self) -> np.ndarray:
        return np.argsort(self.msrc, kind="stable").astype(np.int32)

    @cached_property
    def _out_start(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self._out_deg)]).astype(np.int32)

    @cached_property
    def out_pos(self) -> np.ndarray:
        """Position of each morphism within the out-list of its source."""
        order = self._out_sorted
        pos = np.empty(self.n_morphisms, dtype=np.int32)
        pos[order] = np.arange(self.n_morphisms) - self._out_start[self.msrc[order]]
        return pos

    @cached_property
    def _hom_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, order): the morphisms stably sorted by (src, tgt), and
        their keys src * n_objects + tgt in that sorted order."""
        keys = self.msrc.astype(np.int64) * self.n_objects + self.mtgt
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def _hom_bounds(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """hom(x, y) is _hom_sorted[1][lo:hi]; x and y may be arrays."""
        keys, _ = self._hom_sorted
        key = np.asarray(x, dtype=np.int64) * self.n_objects + y
        return (np.searchsorted(keys, key, side="left"),
                np.searchsorted(keys, key, side="right"))

    def hom(self, x: int, y: int) -> list[int]:
        """The morphisms x -> y, in index order."""
        lo, hi = self._hom_bounds(x, y)
        return self._hom_sorted[1][lo:hi].tolist()

    @cached_property
    def hom_rank(self) -> np.ndarray:
        """Position of each morphism in the index-ordered list of its hom-set."""
        keys, order = self._hom_sorted
        rank = np.empty(self.n_morphisms, dtype=np.int32)
        rank[order] = np.arange(self.n_morphisms) - np.searchsorted(keys, keys)
        return rank

    @cached_property
    def _base(self) -> np.ndarray:
        """The least object of each object's component.

        In a groupoid hom(x, y) is nonempty exactly when x and y share a
        component, so this is the least target of a morphism out of x.  It
        reads the axioms that ``validate`` checks.
        """
        return np.minimum.reduceat(self.mtgt[self._out_sorted], self._out_start[:-1])

    @cached_property
    def components(self) -> list["Component"]:
        return connected_components(self)

    def component_of(self) -> np.ndarray:
        """Array mapping each object to its component index.  Components are
        numbered in the order of their bases, the objects that are their own
        base."""
        is_base = self._base == np.arange(self.n_objects)
        return (np.cumsum(is_base, dtype=np.int32) - 1)[self._base]

    # exhaustive axioms -------------------------------------------------------

    def composable_pairs(self):
        """Every composable pair (f, g), tgt(f) == src(g), as arrays of at
        most _CHUNK pairs: f ascending, then g through the morphisms out of
        tgt(f) in index order."""
        tgt = self.mtgt
        for f, k in _chunked_spans(self._out_deg[tgt]):
            yield f, self._out_sorted[self._out_start[tgt[f]] + k]

    def validate(self) -> None:
        """Exhaustively check the groupoid axioms (identities, inverses,
        source/target bookkeeping, associativity).  Raises on any failure."""
        src, tgt, e = self.msrc, self.mtgt, self.ident
        x = np.arange(self.n_objects)
        if not ((src[e] == x) & (tgt[e] == x)).all():
            raise AssertionError("an identity has wrong endpoints")
        m = np.arange(self.n_morphisms)
        if (self._compose(m, e[src]) != m).any():
            raise AssertionError("right unit law fails")
        if (self._compose(e[tgt], m) != m).any():
            raise AssertionError("left unit law fails")
        w = self.inv
        if not ((src[w] == tgt) & (tgt[w] == src)).all():
            raise AssertionError("inverse has wrong endpoints")
        if (self._compose(m, w) != e[tgt]).any():
            raise AssertionError("m ∘ m^-1 is not an identity")
        if (self._compose(w, m) != e[src]).any():
            raise AssertionError("m^-1 ∘ m is not an identity")
        for f, g in self.composable_pairs():
            gf = self._compose(g, f)
            if ((src[gf] != src[f]) | (tgt[gf] != tgt[g])).any():
                raise AssertionError("composition endpoints inconsistent")
            for k, r in _chunked_spans(self._out_deg[tgt[g]]):
                h = self._out_sorted[self._out_start[tgt[g[k]]] + r]
                if (self._compose(h, gf[k])
                        != self._compose(self._compose(h, g[k]), f[k])).any():
                    raise AssertionError("associativity fails")

    def __repr__(self) -> str:
        return (f"FiniteGroupoid({self.name}: {self.n_objects} objects, "
                f"{self.n_morphisms} morphisms)")


@dataclass
class Component:
    """A connected component with the automorphism group of a base object."""

    objects: list[int]
    base: int
    loops: list[int]

    @property
    def aut_order(self) -> int:
        return len(self.loops)

    def aut_table(self, groupoid: FiniteGroupoid) -> np.ndarray:
        """Multiplication table of Aut(base), rows/cols indexed by self.loops."""
        loops = np.asarray(self.loops, dtype=np.int64)
        n = len(loops)
        prod = groupoid.compose_many(np.repeat(loops, n), np.tile(loops, n))
        sorter = np.argsort(loops)
        table = sorter[np.searchsorted(loops, prod, sorter=sorter)]
        return table.reshape(n, n).astype(np.int32)


def connected_components(G: FiniteGroupoid) -> list[Component]:
    """Partition by reachability; in a groupoid this is iso-class closure.

    Objects are grouped by their base, the least object of their component
    (``_base``), and components come in the order of their bases.  The
    loops of a base are the morphisms out of it with target the base, in
    index order.
    """
    if not G.n_objects:
        return []
    base, out, start = G._base, G._out_sorted, G._out_start
    objs = np.argsort(base, kind="stable").tolist()
    bases = np.flatnonzero(base == np.arange(G.n_objects))
    ends = np.cumsum(np.bincount(base)[bases]).tolist()
    comps, lo = [], 0
    for b, hi in zip(bases.tolist(), ends):
        seg = out[start[b]:start[b + 1]]
        comps.append(Component(objs[lo:hi], b, seg[G.mtgt[seg] == b].tolist()))
        lo = hi
    return comps


# ---------------------------------------------------------------------------
# functors and 2-cells
# ---------------------------------------------------------------------------


class GroupoidFunctor:
    def __init__(self, domain: FiniteGroupoid, codomain: FiniteGroupoid,
                 obj_map, mor_map, name: str = "functor"):
        self.domain = domain
        self.codomain = codomain
        self.obj_map = np.asarray(obj_map, dtype=np.int32)
        self.mor_map = np.asarray(mor_map, dtype=np.int32)
        self.name = name
        if len(self.obj_map) != domain.n_objects:
            raise InputError("object map is not total")
        if len(self.mor_map) != domain.n_morphisms:
            raise InputError("morphism map is not total")

    def obj(self, x: int) -> int:
        return int(self.obj_map[x])

    def mor(self, m: int) -> int:
        return int(self.mor_map[m])

    @cached_property
    def faithful(self) -> bool:
        """Injectivity of the morphism map on every hom-set."""
        dom = self.domain
        hom_key = dom.msrc.astype(np.int64) * dom.n_objects + dom.mtgt
        images = hom_key * self.codomain.n_morphisms + self.mor_map
        return len(_distinct(images)) == dom.n_morphisms

    def _check_endpoints(self) -> None:
        dom, cod = self.domain, self.codomain
        if not (cod.msrc[self.mor_map] == self.obj_map[dom.msrc]).all():
            raise AssertionError("functor does not preserve sources")
        if not (cod.mtgt[self.mor_map] == self.obj_map[dom.mtgt]).all():
            raise AssertionError("functor does not preserve targets")

    def validate(self) -> None:
        """Exhaustively check structure preservation."""
        dom, cod, F = self.domain, self.codomain, self.mor_map
        self._check_endpoints()
        if (F[dom.ident] != cod.ident[self.obj_map]).any():
            raise AssertionError("functor does not preserve identities")
        for f, g in dom.composable_pairs():
            if (F[dom._compose(g, f)] != cod._compose(F[g], F[f])).any():
                raise AssertionError("functor does not preserve composition")

    def spot_check(self, rng, samples: int = 512) -> None:
        """Randomized functoriality probe for groupoids too large to validate
        exhaustively: endpoints, and sampled composable pairs."""
        dom, cod, F = self.domain, self.codomain, self.mor_map
        self._check_endpoints()
        if dom.n_morphisms == 0:
            return
        f = rng.integers(dom.n_morphisms, size=samples)
        t = dom.mtgt[f]
        g = dom._out_sorted[dom._out_start[t] + rng.integers(dom._out_deg[t])]
        if (F[dom._compose(g, f)] != cod._compose(F[g], F[f])).any():
            raise AssertionError("functor does not preserve composition")

    def __repr__(self) -> str:
        return f"GroupoidFunctor({self.name}: {self.domain.name} -> {self.codomain.name})"


def identity_functor(G: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(G, G, np.arange(G.n_objects), np.arange(G.n_morphisms),
                           name=f"id_{G.name}")


def compose_functors(g: GroupoidFunctor, f: GroupoidFunctor) -> GroupoidFunctor:
    """g∘f."""
    if f.codomain is not g.domain:
        raise InputError("functors are not composable")
    return GroupoidFunctor(f.domain, g.codomain,
                           g.obj_map[f.obj_map], g.mor_map[f.mor_map],
                           name=f"{g.name}∘{f.name}")


class TwoCell:
    """A natural isomorphism between parallel functors, given by components."""

    def __init__(self, source_functor: GroupoidFunctor,
                 target_functor: GroupoidFunctor, components,
                 name: str = "cell", check: bool = True):
        if (source_functor.domain is not target_functor.domain
                or source_functor.codomain is not target_functor.codomain):
            raise InputError("2-cell requires parallel functors")
        self.source_functor = source_functor
        self.target_functor = target_functor
        self.components = np.asarray(components, dtype=np.int32)
        self.name = name
        if len(self.components) != source_functor.domain.n_objects:
            raise InputError("2-cell components are not total")
        if check:
            self.validate()

    def validate(self) -> None:
        F, G2 = self.source_functor, self.target_functor
        dom, cod = F.domain, F.codomain
        c = self.components
        if not ((cod.msrc[c] == F.obj_map) & (cod.mtgt[c] == G2.obj_map)).all():
            raise InputError("2-cell component has wrong endpoints")
        left = cod.compose_many(c[dom.mtgt], F.mor_map)
        right = cod.compose_many(G2.mor_map, c[dom.msrc])
        if (left != right).any():
            raise InputError("2-cell naturality square does not commute")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


class _GroupGroupoid(FiniteGroupoid):
    """A finite group as a one-object groupoid; morphism order = element order."""

    def __init__(self, P: PermGroup, name: str):
        n = P.order
        super().__init__([0], np.zeros(n), np.zeros(n), [P.identity], name)
        self._group = P

    def _compose(self, g, f):
        return self._group.mult[g, f]

    def _inverse(self):
        return self._group.inv


def group_groupoid(P: PermGroup, name: str = "") -> FiniteGroupoid:
    """A finite group as a one-object groupoid; morphism order = element order."""
    return _GroupGroupoid(P, name or f"group({P.order})")


def subgroup_inclusion(emb: SubgroupEmbedding,
                       ambient_gpd: FiniteGroupoid) -> GroupoidFunctor:
    """The faithful one-object functor induced by a subgroup embedding, into
    ``ambient_gpd``, the groupoid of its ambient group."""
    sub = group_groupoid(emb.group, name=emb.tag or "H")
    mor_map = np.array(emb.to_ambient, dtype=np.int32)
    return GroupoidFunctor(sub, ambient_gpd, [0], mor_map,
                           name=f"incl_{emb.tag or 'H'}")


class _FullSubgroupoid(FiniteGroupoid):
    """The full subgroupoid of A on the objects obj_of (ascending).

    mor_of lists its morphisms in A's numbering (ascending).  obj_sub and
    mor_sub map A's objects and morphisms back, -1 outside; mor_sub is built
    when first read.  All three are int32.
    """

    def __init__(self, A: FiniteGroupoid, obj_of: np.ndarray, name: str):
        self.obj_sub = np.full(A.n_objects, -1, dtype=np.int32)
        self.obj_sub[obj_of] = np.arange(len(obj_of))
        inside = (self.obj_sub[A.msrc] >= 0) & (self.obj_sub[A.mtgt] >= 0)
        self.mor_of = np.arange(A.n_morphisms, dtype=np.int32)[inside]
        super().__init__([A.objects[i] for i in obj_of.tolist()],
                         self.obj_sub[A.msrc[self.mor_of]],
                         self.obj_sub[A.mtgt[self.mor_of]],
                         np.searchsorted(self.mor_of, A.ident[obj_of]), name)
        self._parent = A

    @cached_property
    def mor_sub(self) -> np.ndarray:
        sub = np.full(self._parent.n_morphisms, -1, dtype=np.int32)
        sub[self.mor_of] = np.arange(len(self.mor_of))
        return sub

    def _compose(self, g, f):
        return self.mor_sub[self._parent._compose(self.mor_of[g], self.mor_of[f])]

    def _inverse(self):
        return self.mor_sub[self._parent.inv[self.mor_of]]


def full_subgroupoid(A: FiniteGroupoid, object_idxs,
                     name: str = "") -> tuple[FiniteGroupoid, GroupoidFunctor]:
    """Full subgroupoid on a subset of objects, with its inclusion functor."""
    obj_of = _distinct(np.asarray(object_idxs, dtype=np.int64))
    S = _FullSubgroupoid(A, obj_of, name or f"{A.name}|full")
    incl = GroupoidFunctor(S, A, obj_of, S.mor_of, name=f"incl({S.name})")
    return S, incl


def isocomma_objects(i: GroupoidFunctor, u: GroupoidFunctor):
    """(pair_start, x, y, g) as int32 arrays: the index of the first object
    over each pair (x, y), listed x-major, and the objects (x, y, g : i(x) ->
    u(y)) of the isocomma (i/u) in its object order.  No morphism is
    built."""
    A, B, C = i.domain, u.domain, i.codomain
    if A.n_objects == B.n_objects == 1:
        lo, hi = C._hom_bounds(i.obj_map[0], u.obj_map[0])
        g = C._hom_sorted[1][lo:hi].astype(np.int32)
        return (np.zeros(1, dtype=np.int32), np.zeros(len(g), dtype=np.int32),
                np.zeros(len(g), dtype=np.int32), g)
    pairs = np.arange(A.n_objects * B.n_objects, dtype=np.int32)
    pair_x, pair_y = np.divmod(pairs, B.n_objects)
    # C.hom lists each hom(i(x), u(y)) in index order
    lo, hi = C._hom_bounds(i.obj_map[pair_x], u.obj_map[pair_y])
    count = hi - lo
    k, r = _spans(count)
    return ((np.cumsum(count) - count).astype(np.int32), pair_x[k], pair_y[k],
            C._hom_sorted[1][lo[k] + r].astype(np.int32))


class _IsocommaGroupoid(FiniteGroupoid):
    """The isocomma (i/u): objects are the triples (x, y, g : i(x) -> u(y)),
    numbered in the order of (x, y) and then of g in index order, so that
    (x, y, g) has index pair_start[x * nB + y] + C.hom_rank[g].  The
    morphisms out of object o are the pairs (a, b) in out(x) × out(y),
    numbered a-major from offsets[o], so each out-list is one block and is
    known at construction; a pair composes by its two factors."""

    def __init__(self, i: GroupoidFunctor, u: GroupoidFunctor, name: str):
        A, B, C = i.domain, u.domain, i.codomain
        self.A, self.B, self.C = A, B, C
        self._legs = (i.obj_map, u.obj_map)
        self.pair_start, self.x, self.y, self.g = isocomma_objects(i, u)
        n = len(self.g)
        # morphisms: (a, b) out of (x, y, g) lands on (x', y', u(b) g i(a)^-1)
        if A.n_objects == B.n_objects == 1:
            # closed form: out(0) is every morphism in index order, so each
            # object has the same block of |A| |B| pairs, and every target
            # lies in the one hom-set hom(i(0), u(0)), whose pair starts at 0
            n_a, n_b = A.n_morphisms, B.n_morphisms
            block = np.full(n, n_a * n_b)
            self.deg_b = np.full(n, n_b, dtype=np.int32)
            self._out_start = np.arange(n + 1, dtype=np.int32) * (n_a * n_b)
            self.offsets = self._out_start[:-1]
            o, r = np.divmod(np.arange(n * n_a * n_b, dtype=np.int32), n_a * n_b)
            self.m_a, self.m_b = np.divmod(r, n_b)
            del r
            ub_g = C._compose(u.mor_map[None, :], self.g[:, None])
            ia_inv = C.inv[i.mor_map]
            mtgt = C.hom_rank[C._compose(ub_g[:, None, :],
                                         ia_inv[None, :, None])].reshape(-1)
            ident = self.offsets + (A.ident[0] * n_b + B.ident[0])
        else:
            self.deg_b = B._out_deg[self.y].astype(np.int32)
            block = A._out_deg[self.x] * self.deg_b
            self._out_start = np.concatenate(([0], np.cumsum(block))).astype(np.int32)
            self.offsets = self._out_start[:-1]
            o, r = _spans(block)
            q, r = np.divmod(r, self.deg_b[o])
            self.m_a = A._out_sorted[A._out_start[self.x[o]] + q]
            self.m_b = B._out_sorted[B._out_start[self.y[o]] + r]
            del q, r
            g_tgt = C._compose(C._compose(u.mor_map[self.m_b], self.g[o]),
                               C.inv[i.mor_map[self.m_a]])
            # g_tgt lies in hom(i(x'), u(y')) since i and u are functors
            mtgt = self._index(A.mtgt[self.m_a], B.mtgt[self.m_b], g_tgt)
            del g_tgt
            ident = self.morphism_index(np.arange(n), A.ident[self.x],
                                        B.ident[self.y])
        self._out_deg = block
        self._out_sorted = np.arange(len(o), dtype=np.int32)
        super().__init__(zip(self.x.tolist(), self.y.tolist(), self.g.tolist()),
                         o, mtgt, ident, name)

    def object_index(self, x, y, g) -> np.ndarray:
        i_obj, u_obj = self._legs
        C = self.C
        x, y, g = np.asarray(x), np.asarray(y), np.asarray(g)
        try:  # an index past the end raises; one below 0 sets the sign of x | y | g
            found = (((x | y | g) >= 0) & (C.msrc[g] == i_obj[x])
                     & (C.mtgt[g] == u_obj[y])).all()
        except IndexError:
            found = False
        if not found:
            raise KeyError("no such isocomma object")
        return self._index(x, y, g)

    def _index(self, x, y, g) -> np.ndarray:
        return self.pair_start[x * self.B.n_objects + y] + self.C.hom_rank[g]

    def morphism_index(self, o, a, b) -> np.ndarray:
        index = self.A.out_pos[a] * self.deg_b[o]
        index += self.offsets[o]
        index += self.B.out_pos[b]
        return index

    def _compose(self, g, f):
        return self.morphism_index(self.msrc[f],
                                   self.A._compose(self.m_a[g], self.m_a[f]),
                                   self.B._compose(self.m_b[g], self.m_b[f]))

    def _inverse(self):
        return self.morphism_index(self.mtgt, self.A.inv[self.m_a],
                                   self.B.inv[self.m_b])


@dataclass
class IsocommaResult:
    """The isocomma groupoid of a cospan; its projections pr1, pr2 and the
    canonical 2-cell gamma are built when first read.

    Object k is the triple (x, y, g) of indices that ``object_parts``
    gives: x an object of the left leg's domain, y of the right leg's
    domain, g a morphism of the shared codomain from i(x) to u(y).  The
    index lookups take arrays as well as single indices, and return numpy
    integers.
    """

    groupoid: _IsocommaGroupoid
    left: GroupoidFunctor
    right: GroupoidFunctor

    @cached_property
    def pr1(self) -> GroupoidFunctor:
        P = self.groupoid
        return GroupoidFunctor(P, self.left.domain, P.x, P.m_a, name="pr1")

    @cached_property
    def pr2(self) -> GroupoidFunctor:
        P = self.groupoid
        return GroupoidFunctor(P, self.right.domain, P.y, P.m_b, name="pr2")

    @cached_property
    def gamma(self) -> TwoCell:
        return TwoCell(compose_functors(self.left, self.pr1),
                       compose_functors(self.right, self.pr2),
                       self.groupoid.g, name="gamma", check=False)

    def object_index(self, x, y, g):
        """Index of the object (x, y, g); KeyError when there is none."""
        return self.groupoid.object_index(x, y, g)

    def morphism_index(self, src_obj, a, b):
        """Morphism (a, b) out of the given isocomma object."""
        return self.groupoid.morphism_index(src_obj, a, b)

    def object_parts(self, o=slice(None)):
        """(x, y, g) of the objects o, all objects by default."""
        P = self.groupoid
        return P.x[o], P.y[o], P.g[o]

    def morphism_parts(self, m=slice(None)):
        """(source object, a, b) of the morphisms m, all by default."""
        P = self.groupoid
        return P.msrc[m], P.m_a[m], P.m_b[m]

    def functor_from(self, domain: FiniteGroupoid, x, y, g, a, b,
                     name: str) -> GroupoidFunctor:
        """The functor domain -> isocomma of the universal property: object z
        goes to (x[z], y[z], g[z]), and morphism m to the pair (a[m], b[m])
        out of the image of its source."""
        obj_map = self.object_index(x, y, g)
        mor_map = self.morphism_index(obj_map[domain.msrc], a, b)
        return GroupoidFunctor(domain, self.groupoid, obj_map, mor_map, name)


def isocomma(i: GroupoidFunctor, u: GroupoidFunctor, name: str = "") -> IsocommaResult:
    """The groupoid of triples (x, y, g : i(x) -> u(y)) over a cospan.

    Morphisms (x,y,g) -> (x',y',g') are pairs (a: x->x', b: y->y') with
    g'∘i(a) = u(b)∘g; the two projections and the tautological 2-cell are
    built when they are read.
    """
    if i.codomain is not u.codomain:
        raise InputError("isocomma requires a shared codomain")
    A, B, C = i.domain, u.domain, i.codomain
    P = _IsocommaGroupoid(i, u, name or f"({A.name}/{B.name}/{C.name})")
    return IsocommaResult(P, i, u)


@dataclass
class CommaSquare:
    """A 2-cell square over a cospan: cell gamma : i∘v => u∘j."""

    i: GroupoidFunctor
    u: GroupoidFunctor
    v: GroupoidFunctor
    j: GroupoidFunctor
    cell: TwoCell

    def validate(self) -> None:
        if self.i.codomain is not self.u.codomain:
            raise InputError("square legs do not share a codomain")
        if self.v.domain is not self.j.domain:
            raise InputError("square apex mismatch")
        if self.v.codomain is not self.i.domain or self.j.codomain is not self.u.domain:
            raise InputError("square sides do not match the cospan")
        self.cell.validate()


def isocomma_square(iso: IsocommaResult) -> CommaSquare:
    return CommaSquare(iso.left, iso.right, iso.pr1, iso.pr2, iso.gamma)


def induced_comparison(square: CommaSquare,
                       iso: IsocommaResult | None = None) -> GroupoidFunctor:
    """The canonical functor from the square's apex into the isocomma,
    z |-> (v(z), j(z), gamma_z)."""
    square.validate()
    if iso is None:
        iso = isocomma(square.i, square.u)
    v, j = square.v, square.j
    return iso.functor_from(v.domain, v.obj_map, j.obj_map,
                            square.cell.components, v.mor_map, j.mor_map,
                            "comparison")


def is_equivalence(F: GroupoidFunctor) -> bool:
    """Full + faithful + essentially surjective, decided exhaustively.

    Faithfulness and fullness reduce to hom-set counts at component base
    points (hom-set sizes are uniform along a groupoid component), and
    essential surjectivity to the component partition.  Composition
    preservation is the caller's responsibility (validate/spot_check), but
    endpoint consistency is cheap and checked here.
    """
    dom, cod = F.domain, F.codomain
    if dom.n_morphisms and not (
        (cod.msrc[F.mor_map] == F.obj_map[dom.msrc]).all()
        and (cod.mtgt[F.mor_map] == F.obj_map[dom.mtgt]).all()
    ):
        raise InputError("morphism map endpoints contradict the object map")
    dcomp = dom.components
    images = F.obj_map[[c.base for c in dcomp]]
    hit = cod.component_of()[images]
    if len(_distinct(hit)) != len(hit):
        return False  # two components collapse: not full
    for c, img in zip(dcomp, images.tolist()):
        if len(_distinct(F.mor_map[c.loops])) != len(c.loops):
            return False  # not faithful
        if len(c.loops) != len(cod.hom(img, img)):
            return False  # not full
    return len(hit) == len(cod.components)  # else not essentially surjective


def is_mackey_square(square: CommaSquare) -> bool:
    """True iff the canonical comparison into the isocomma is an equivalence."""
    return is_equivalence(induced_comparison(square))


def paste_squares(bottom: CommaSquare, top: CommaSquare) -> CommaSquare:
    """Paste top onto bottom along bottom's right leg.

    top must be a square over the cospan (bottom.j : P -> K, w : M -> K);
    the result is a square over (bottom.i, bottom.u ∘ w).
    """
    if top.i is not bottom.j:
        raise InputError("top square does not sit on bottom's right leg")
    u, cellb, cellt = bottom.u, bottom.cell, top.cell
    G = bottom.i.codomain
    comps = G.compose_many(u.mor_map[cellt.components],
                           cellb.components[top.v.obj_map])
    new_u = compose_functors(u, top.u)
    new_v = compose_functors(bottom.v, top.v)
    cell = TwoCell(compose_functors(bottom.i, new_v),
                   compose_functors(new_u, top.j), comps, name="pasted")
    return CommaSquare(bottom.i, new_u, new_v, top.j, cell)
