"""Krull-Schmidt decomposition and relative projectivity over GF(p).

Splitting first tries Fitting's lemma on each basis endomorphism.  When none
of them splits M, the Jacobson radical J of E = End(M) decides: J comes from
the trace-form levels of Cohen, Ivanyos & Wales (J. Pure Appl. Algebra
117/118, 1997), and the semisimple quotient E/J is read as in Lux & Szőke
(Experiment. Math. 16, 2007):

* E/J commutative with a one-dimensional Frobenius-fixed space: E/J is a
  field, so E is local and M is indecomposable, certified by
  (dim E, dim J, dim E/J).
* the center of E/J is not a field: a Frobenius-fixed central element f
  outside the scalars has an eigenvalue c in GF(p), f - c is a central
  nonunit, and Fitting's lemma on a lift of it splits M.
* E/J simple but not commutative, so E/J = M_k(GF(p^f)) with k >= 2:
  Chevalley-Warning on the reduced norm, a form of degree kf, puts a nonzero
  nonunit x in the span of the first kf + 1 basis elements of E/J.  The
  right ideal x(E/J) is generated by an idempotent that one linear solve
  finds, and Fitting's lemma on a lift of it splits M.

Before any End is solved, M is cut into the connected components of its
support graph, which joins basis indices i and j when some generator action
has a nonzero (i, j) or (j, i) entry.  No action leaves a component's span,
so the components are an exact direct sum: in the coset-block basis of
Res_K Ind_H M they are the blocks of the Mackey formula, one per K-orbit on
G/H.  Each distinct component's End is solved on the component, and each
Fitting piece below it reads its End basis off its parent's.  A component
whose actions equal those of one already split in the same call takes that
split's pieces on its own columns; one that an invertible basis hom of
Hom(B, C) shows isomorphic to a component B split before it takes B's
pieces through that isomorphism, so the induced twists of the Mackey
formula that are isomorphic are split once.

No step is random and no step enumerates units, so a decomposition does not
depend on any seed, and a wrong certificate is never returned.  The radical
certifies that End(M) is local, so that its non-units are the radical: an
indecomposable M is a summand of X iff a composite M -> X -> M of basis homs
is invertible, which decides isomorphisms of indecomposables too.  Relative
projectivity is refused without a trace when the p-part of |G:X| does not
divide dim M, and otherwise decided by Higman's criterion.  A vertex is the
first p-subgroup class, by increasing order, relative to which M is
projective, after a test at a Sylow subgroup; ``source`` reads a source off
the summands of Res_Q M by Green's theorem, with no induced module.
Isomorphism classes are found first fit.  Every isomorphism test first
compares the dimension, the trace of each generator action and the rank of
each (action - I), all invariant under conjugation, and tells a pair that
differs apart without a Hom solve.

A ``Run`` memoizes, for as long as the caller keeps it: decompositions,
End analyses with their End bases, and vertices, by module fingerprint; and
the p-subgroup classes that a vertex search walks, by group and prime, a
Sylow subgroup first.  A Higman verdict is not kept: ``vertex`` tests each
class once, and a module's vertex settles its later tests by Green's vertex
theory.  A public function called without a ``Run`` makes a fresh one for
that call only, so nothing is kept between calls that do not share one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError, TheoremViolationError, UndecidedError
from .linalg import mat_inv, mat_mul, mat_pow, nullspace, rank, rref, solve
from .modules import (
    FpModule,
    hom_space,
    hom_space_from_actions,
    restrict,
    same_context,
)
from .permgroups import (
    PermGroup,
    SubgroupEmbedding,
    left_coset_representatives,
    p_part,
    p_subgroups_up_to_conjugacy,
    sylow,
)


@dataclass
class SummandCertificate:
    """Locality evidence for one indecomposable summand class."""

    end_dim: int
    radical_dim: int
    residue_degree: int


@dataclass
class Decomposition:
    summands: list[tuple[FpModule, int]]
    change_of_basis: np.ndarray
    certificates: list[SummandCertificate]
    pieces: list[FpModule]

    def dims_multiset(self) -> list[int]:
        out = []
        for mod, mult in self.summands:
            out.extend([mod.dim] * mult)
        return sorted(out)


# ---------------------------------------------------------------------------
# endomorphism algebra analysis
# ---------------------------------------------------------------------------


class _EndAlgebra:
    """A unital subalgebra of M_d(GF(p)) spanned by an echelonized basis."""

    def __init__(self, basis: list[np.ndarray], p: int):
        self.p = p
        self.m = len(basis)
        self.d = basis[0].shape[0]
        # float64, the form mat_mul multiplies in, converted once
        flat = np.array(basis, dtype=np.float64).reshape(self.m, -1)
        # hom_space returns reduced echelon bases, so coordinates are reads
        self.pivots = [int(row.nonzero()[0][0]) for row in flat]
        self._flat = flat

    def coords(self, x: np.ndarray) -> np.ndarray:
        return x.ravel()[self.pivots] % self.p

    def _combine(self, c: np.ndarray) -> np.ndarray:
        """c @ basis mod p, on flattened matrices: through mat_mul while its
        bound holds for inner length m, in int64 past it."""
        if linalg.exact_in_float64(self.m, self.p):
            return mat_mul(c, self._flat, self.p)
        return (c @ self._flat.astype(np.int64)) % self.p

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        """The element with coordinates c, or the stack of them for rows c."""
        return self._combine(c).reshape(*c.shape[:-1], self.d, self.d)

    def structure_constants(self) -> np.ndarray:
        """mult[i, j] = coords(basis[i] @ basis[j]).

        Only the pivot entries of the products are formed, in one batched
        mat_mul.
        """
        d = self.d
        B = self._flat.reshape(self.m, d, d)
        rows = [c // d for c in self.pivots]
        cols = [c % d for c in self.pivots]
        left = B[:, rows, :].transpose(1, 0, 2)    # [k, i, t]
        right = B[:, :, cols].transpose(2, 1, 0)   # [k, t, j]
        return mat_mul(left, right, self.p).transpose(1, 2, 0)


def _radical(alg: _EndAlgebra, mult: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon basis and pivots, in basis coordinates, of J(E).

    Cohen-Ivanyos-Wales: I_-1 = E and, for q = p^i <= d,
    I_i = {a in I_(i-1) : g_i(ab) = 0 for all b in E} with
    g_i(x) = Tr(x^q) / q mod p on the integer lift of x; the last level is J.
    Each g_i is linear on the ideal I_(i-1), so it is evaluated on a basis of
    I_(i-1) only, and on the products ab through the structure constants.
    """
    p, m = alg.p, alg.m
    level, pivots = np.eye(m, dtype=np.int64), list(range(m))
    q = 1
    while q <= alg.d and len(level):
        x = alg.from_coords(level)
        if q > 1:
            x = mat_pow(x, q, p * q)
        g = np.trace(x, axis1=1, axis2=2) % (p * q) // q
        # on elements of I_(i-1), g_i reads their coordinates at its pivots
        phi = np.zeros(m, dtype=np.int64)
        phi[pivots] = g
        form = (level @ ((mult @ phi) % p)) % p  # form[s, j] = g_i(a_s b_j)
        level, pivots = rref((nullspace(form.T, p) @ level) % p, p)
        q *= p
    return level, pivots


def _lex_vectors(p: int, span: int):
    """The vectors of {0, ..., p-1}^span in lexicographic order, made one at
    a time; itertools.product would first build the tuple range(p), which is
    too big for p near the mat_mul bound."""
    x = [0] * span
    while True:
        yield x
        k = span - 1
        while k >= 0 and x[k] == p - 1:
            x[k] = 0
            k -= 1
        if k < 0:
            return
        x[k] += 1


class _Semisimple:
    """E/J, on the E-basis elements outside the pivots of J's echelon basis."""

    def __init__(self, alg: _EndAlgebra, mult: np.ndarray,
                 J: np.ndarray, j_pivots: list[int]):
        self.p, self.m, self.J, self.j_pivots = alg.p, alg.m, J, j_pivots
        self.free = [c for c in range(alg.m) if c not in j_pivots]
        self.n = n = len(self.free)
        self.mult = self.reduce(mult[np.ix_(self.free, self.free)]).reshape(n, n, n)
        self.one = self.reduce(alg.coords(np.eye(alg.d, dtype=np.int64)))

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Quotient coordinates of E-coordinate vectors (last axis)."""
        v = v - v[..., self.j_pivots] @ self.J
        return v[..., self.free] % self.p

    def lift(self, x: np.ndarray) -> np.ndarray:
        """E-coordinates of a preimage."""
        v = np.zeros(self.m, dtype=np.int64)
        v[self.free] = x
        return v

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Row b is x * e_b."""
        n = self.n
        return ((x @ self.mult.reshape(n, n * n)) % self.p).reshape(n, n)

    def is_unit(self, x: np.ndarray) -> bool:
        return rank(self.left_mult(x), self.p) == self.n

    def power(self, x: np.ndarray, k: int) -> np.ndarray:
        out, base = self.one, x
        while k:
            if k & 1:
                out = (base @ self.left_mult(out)) % self.p
            base = (base @ self.left_mult(base)) % self.p
            k >>= 1
        return out

    def splitting_element(self) -> np.ndarray | None:
        """A nonunit that is not nilpotent, or None when E/J is a field."""
        p, n = self.p, self.n
        comm = (self.mult - self.mult.transpose(1, 0, 2)).reshape(n, n * n)
        center, c_pivots = rref(nullspace(comm.T % p, p), p)
        frob = np.stack([self.power(z, p)[c_pivots] for z in center])
        eye = np.eye(len(center), dtype=np.int64)
        fixed = (nullspace((frob - eye).T % p, p) @ center) % p
        if len(fixed) > 1:
            # the center has several field factors; f - c is a central nonunit
            # for an eigenvalue c of a fixed f outside the scalars
            f = next(f for f in fixed if rank(np.stack([f, self.one]), p) == 2)
            return next(x for x in ((f - c * self.one) % p for c in range(p))
                        if not self.is_unit(x))
        if len(center) == n:
            return None
        # simple: M_k over the field of degree len(center), k >= 2
        span = math.isqrt(n // len(center)) * len(center) + 1
        for coeffs in _lex_vectors(p, span):
            x = np.zeros(n, dtype=np.int64)
            x[:span] = coeffs
            if x.any() and not self.is_unit(x):
                return self._idempotent_of(x)
        raise UndecidedError("no nonunit in the Chevalley-Warning span")

    def _idempotent_of(self, x: np.ndarray) -> np.ndarray:
        """The idempotent e in x(E/J) with e y = y on x(E/J)."""
        p = self.p
        Y, _ = rref(self.left_mult(x), p)  # rows span x(E/J)
        r = len(Y)
        prods = np.stack([(Y @ self.left_mult(y)) % p for y in Y])  # [t, s] = y_t y_s
        lam = solve(prods.reshape(r, -1).T, Y.ravel(), p)
        if lam is None:
            raise UndecidedError("right ideal has no idempotent generator")
        return (lam @ Y) % p


@dataclass
class _LeafInfo:
    local: bool
    end_dim: int
    radical_dim: int
    residue_degree: int
    # the reduced echelon basis of End(M) that hom_space(M, M) returns, as
    # the rows of one array that holds nothing else
    ends: list[np.ndarray]
    # present only when not local: an endomorphism that is neither invertible
    # nor nilpotent, so Fitting's lemma on it splits M
    splitter: np.ndarray | None = None

    def certificate(self) -> SummandCertificate:
        return SummandCertificate(self.end_dim, self.radical_dim,
                                  self.residue_degree)


def _undecided(reason: str, p: int, dim: int, end_dim: int,
               radical_dim: int) -> UndecidedError:
    """An UndecidedError that says where it fired."""
    return UndecidedError(f"{reason} (p = {p}, dim M = {dim}, "
                          f"dim End M = {end_dim}, dim J = {radical_dim})")


def _analyze_end(ends: list[np.ndarray], p: int, dim: int) -> _LeafInfo:
    """Decide locality of End(M) from its radical, or produce a splitter."""
    m = len(ends)
    if m == 0:
        raise InputError("zero module has no endomorphism analysis")
    ends = list(np.array(ends))
    if m == 1:
        return _LeafInfo(True, 1, 0, 1, ends)
    alg = _EndAlgebra(ends, p)
    mult = alg.structure_constants()
    J, j_pivots = _radical(alg, mult)
    quotient = _Semisimple(alg, mult, J, j_pivots)
    try:
        x = quotient.splitting_element()
    except UndecidedError as exc:
        raise _undecided(str(exc), p, dim, m, len(J)) from exc
    if x is None:
        return _LeafInfo(True, m, len(J), m - len(J), ends)
    return _LeafInfo(False, m, len(J), 0, ends,
                     splitter=alg.from_coords(quotient.lift(x)))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _fitting_split(mats: list[np.ndarray], ends: list[np.ndarray],
                   f: np.ndarray, p: int):
    """Split the module (generator actions ``mats``, End basis ``ends``)
    along Fitting's im(f^K) ⊕ ker(f^K), K >= dim: two pieces, each as
    (actions, basis columns, End basis), or None when f is invertible or
    nilpotent.

    Conjugated by P, each e in End(M) has its diagonal blocks in End(A) and
    End(B), and each g in End(A) is the block of g extended by zero, so the
    blocks of the basis span End(A) and End(B): their reduced echelon bases
    are the ones hom_space returns.  Fitting's lemma rules out a singular P
    and, for f in End(M), an off-diagonal action block; each raises
    TheoremViolationError.
    """
    dim = f.shape[0]
    K = 1
    while K < dim:
        K <<= 1
    fK = mat_pow(f, K, p)
    im, _ = rref(fK.T, p)
    r = len(im)
    if r == 0 or r == dim:
        return None
    P = np.concatenate([im, nullspace(fK, p)]).T
    try:
        Pi = mat_inv(P, p)
    except InputError:
        raise TheoremViolationError("im(f^K) and ker(f^K) meet") from None
    g = len(mats)
    blocks = _conjugate(mats + ends, g, P, Pi, [r, dim - r], p)
    pieces = []
    for blk, cols, k in zip(blocks, (P[:, :r], P[:, r:]), (r, dim - r)):
        # copies of the actions, so that a waiting piece holds no End blocks;
        # the End blocks are reduced where _conjugate wrote them
        ends_k, _ = linalg._rref_in_place(blk[g:], p)
        pieces.append(([row.reshape(k, k).copy() for row in blk[:g]], cols,
                       [row.reshape(k, k) for row in ends_k]))
    return pieces


def _conjugate(mats: list[np.ndarray], acting: int, P: np.ndarray,
               Pi: np.ndarray, sizes: list[int], p: int) -> list[np.ndarray]:
    """The diagonal blocks of Pi A P, one (len(mats), k * k) array per block
    size k, from one batched product per batch of ``mats``.  The first
    ``acting`` are module actions: TheoremViolationError unless P makes them
    block diagonal."""
    cuts = np.cumsum([0, *sizes])
    out = [np.empty((len(mats), k * k), dtype=np.int64) for k in sizes]
    for batch in linalg.batches(len(mats)):
        conj = mat_mul(mat_mul(Pi, np.stack(mats[batch]), p), P, p)
        for blk, a, b in zip(out, cuts, cuts[1:]):
            blk[batch] = conj[:, a:b, a:b].reshape(len(conj), -1)
            conj[:, a:b, a:b] = 0
        if conj[:max(0, acting - batch.start)].any():
            raise TheoremViolationError("the split is not a module split")
    return out


def _support_components(mats: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Index arrays of the connected components of the support graph of the
    actions ``mats``, ordered by their smallest index.  The graph joins i and
    j when some action has a nonzero (i, j) or (j, i) entry, so every action
    maps the span of a component's basis vectors into itself."""
    adj = np.zeros((dim, dim), dtype=bool)
    for a in mats:
        adj |= a != 0
    adj |= adj.T
    unseen = np.ones(dim, dtype=bool)
    components = []
    while unseen.any():
        reach = np.zeros(dim, dtype=bool)
        frontier = np.zeros(dim, dtype=bool)
        frontier[unseen.argmax()] = True
        while frontier.any():
            reach |= frontier
            frontier = adj[frontier].any(axis=0) & ~reach
        unseen &= ~reach
        components.append(np.flatnonzero(reach))
    return components


def _leaf_or_split(mats: list[np.ndarray], dim: int, p: int,
                   ends: list[np.ndarray]):
    """From the End basis of the module, its _LeafInfo when End is local,
    else the two pieces of a Fitting split, as _fitting_split returns them."""
    for f in ends if len(ends) > 1 else ():
        split = _fitting_split(mats, ends, f, p)
        if split is not None:
            return split
    info = _analyze_end(ends, p, dim)
    if info.local:
        return info
    split = _fitting_split(mats, ends, info.splitter, p)
    if split is None:
        raise _undecided("certificate splitter failed to split", p, dim,
                         info.end_dim, info.radical_dim)
    return split


def _split_component(group: PermGroup, mats: list[np.ndarray], dim: int,
                     p: int, run: Run
                     ) -> list[tuple[list[np.ndarray], np.ndarray, _LeafInfo]]:
    """The indecomposable pieces of the module with actions ``mats``, depth
    first, left piece first: (actions, embedding, _LeafInfo) each.  Its End
    is solved here, and each Fitting piece below reads its End basis off its
    parent's.  A loop, not a recursive closure, so no reference cycle keeps
    the run's tables alive."""
    out = []
    # (actions, embedding, dim, End basis read off the parent's, or None at
    # the top, where End is solved)
    todo = [(mats, np.eye(dim, dtype=np.int64), dim, None)]
    while todo:
        mats, embed, dim, ends = todo.pop()
        key = FpModule(group, p, mats, check=False, dim=dim).fingerprint()
        # a local End has no splitting basis element, so a memoized local
        # analysis is what _leaf_or_split would find; a non-local one is not
        # used, or the split would depend on what the run holds
        info = run.ends.get(key)
        if info is None or not info.local:
            if ends is None:
                ends = hom_space_from_actions(mats, dim, mats, dim, p)
            split = _leaf_or_split(mats, dim, p, ends)
            if not isinstance(split, _LeafInfo):
                # the left piece goes on top, so it is taken first
                for acts, cols, piece_ends in reversed(split):
                    todo.append((acts, (embed @ cols) % p, cols.shape[1],
                                 piece_ends))
                continue
            run.ends[key] = info = split
        out.append((mats, embed, info))
    return out


def _carried_split(C: FpModule, solved: list[tuple[FpModule, list]],
                   run: Run) -> list[tuple[list[np.ndarray], np.ndarray,
                                           _LeafInfo]]:
    """The pieces of the component C, as ``_split_component`` gives them.

    First fit over the components already split (``solved``): when a
    conjugation invariant does not tell one apart from C and one of its
    basis homs phi to C is invertible, its pieces are carried over, each
    with embedding phi @ e and the same actions and _LeafInfo, since
    C(g) phi e = phi B(g) e = phi e A(g) for a piece A of B embedded by e.
    Otherwise C is split, and joins ``solved``.
    """
    p = C.p
    for B, split in solved:
        if _invariants_differ(B, C):
            continue
        phi = _first_invertible(hom_space(B, C), p)
        if phi is not None:
            return [(acts, (phi @ e) % p, info) for acts, e, info in split]
    split = _split_component(C.group, C.action, C.dim, p, run)
    solved.append((C, split))
    return split


class Run:
    """The memo tables of one top-level computation.

    Keyed by the exact module fingerprint: decompositions, End analyses
    (each with its End basis) and vertices.  Keyed by group fingerprint and
    prime: the classes of p-subgroups up to conjugacy, a Sylow subgroup
    first, ``p_subgroups``, which ``vertex`` tests after that Sylow
    subgroup by increasing order.

    A key fixes what is computed, so a hit is what a fresh computation would
    return; the tables live exactly as long as the Run.
    """

    def __init__(self) -> None:
        self.decompositions: dict[bytes, Decomposition] = {}
        self.ends: dict[bytes, _LeafInfo] = {}
        self.vertices: dict[bytes, SubgroupEmbedding] = {}
        self.p_subgroups: dict[tuple[bytes, int],
                               list[SubgroupEmbedding]] = {}


def decompose(M: FpModule, run: Run | None = None) -> Decomposition:
    """Full Krull-Schmidt decomposition with per-class certificates.

    Deterministic: every split is Fitting's, on a basis endomorphism or on
    an element read off the radical of End, with no budget and no
    enumeration of units, so there is no seed.  M is first cut into the
    components of its support graph (``_support_components``), and
    ``_split_component`` splits each distinct component, keyed by the
    fingerprint of its actions for this call only: it solves End on the
    component, and each Fitting piece's End basis is read off its parent's.
    A repeated component reuses the first one's pieces, placed on its own
    columns, as fresh modules.  A new component C is first compared, first
    fit, with each component split before it in this call
    (``_carried_split``): past a pair that a conjugation invariant tells
    apart, the first invertible basis hom phi: B -> C carries B's pieces to
    C, with embeddings phi e and B's actions and End analyses; only a C with
    no such B is split.  The change of basis is checked with the same
    conjugation as the splits: it must be invertible and carry every
    generator action of M to the block diagonal of the pieces' actions, so
    it certifies the component cut and both reuses too.  Pieces that differ
    in a conjugation invariant are told apart without a Hom solve
    (``_iso_indec``), and a carried piece has its source's actions, so a
    class that its source represents takes it by fingerprint.  The result is
    memoized in ``run`` by the module's exact fingerprint, and each summand's
    End analysis, with its End basis, is kept for ``end_info``.
    """
    run = run or Run()
    cache_key = M.fingerprint()
    hit = run.decompositions.get(cache_key)
    if hit is not None:
        return hit
    p = M.p
    pieces: list[tuple[FpModule, np.ndarray, _LeafInfo]] = []
    # the pieces of each distinct component, by the fingerprint of its
    # actions: (actions, embedding in the component, _LeafInfo) per piece
    split_of: dict[bytes, list[tuple[list[np.ndarray], np.ndarray,
                                     _LeafInfo]]] = {}
    # each component that _split_component split, with its pieces
    solved: list[tuple[FpModule, list]] = []
    for comp in _support_components(M.action, M.dim):
        C = FpModule(M.group, p, [a[np.ix_(comp, comp)] for a in M.action],
                     check=False, dim=len(comp))
        key = C.fingerprint()
        split = split_of.get(key)
        if split is None:
            split = split_of[key] = _carried_split(C, solved, run)
        for acts, local, info in split:
            embed = np.zeros((M.dim, local.shape[1]), dtype=np.int64)
            embed[comp] = local
            mod = FpModule(M.group, p, acts, name=f"{M.name}[{len(pieces)}]",
                           check=False, dim=local.shape[1])
            pieces.append((mod, embed, info))

    summands = sorted(_tally([(mod, 1) for mod, _, _ in pieces], run),
                      key=lambda c: c[0].dim)
    info_of = {id(mod): info for mod, _, info in pieces}
    certificates = [info_of[id(mod)].certificate() for mod, _ in summands]

    if pieces:
        cob = np.concatenate([embed for _, embed, _ in pieces], axis=1) % p
        try:
            cob_inv = mat_inv(cob, p)
        except InputError:
            raise TheoremViolationError("the pieces do not span M") from None
        blocks = _conjugate(M.action, len(M.action), cob, cob_inv,
                            [mod.dim for mod, _, _ in pieces], p)
        for (mod, _, _), blk in zip(pieces, blocks):
            assert (blk == np.reshape(mod.action, blk.shape)).all()
    else:
        cob = np.zeros((0, 0), dtype=np.int64)

    result = Decomposition(summands, cob, certificates,
                           [mod for mod, _, _ in pieces])
    run.decompositions[cache_key] = result
    return result


def end_info(M: FpModule, run: Run | None = None) -> _LeafInfo:
    """Locality analysis of End(M), with the End basis it was made from,
    memoized in ``run`` by fingerprint."""
    run = run or Run()
    key = M.fingerprint()
    hit = run.ends.get(key)
    if hit is None:
        hit = run.ends[key] = _analyze_end(hom_space(M, M), M.p, M.dim)
    return hit


def end_basis(M: FpModule, run: Run | None = None) -> list[np.ndarray]:
    """The basis that hom_space(M, M) returns: the one ``run`` keeps with
    M's End analysis, else a fresh solve, which is not kept."""
    info = run.ends.get(M.fingerprint()) if run else None
    return info.ends if info is not None else hom_space(M, M)


# ---------------------------------------------------------------------------
# direct summands and isomorphism
# ---------------------------------------------------------------------------


def is_direct_summand(M: FpModule, X: FpModule,
                      run: Run | None = None) -> bool:
    """Whether the certified-indecomposable M is a direct summand of X.

    Exact for every X: M | X iff some composite beta∘alpha (alpha: M -> X,
    beta: X -> M) lies outside the radical J of the local ring End(M), which
    holds its non-units.  The composite is bilinear, so if one lies outside
    J, so does one of basis homs from hom_space: M | X iff one of those is
    invertible.  An X with M's fingerprint, which is M, or an invertible
    basis alpha decides at once.  Raises InputError when the composites are
    needed and End(M) is not local.
    """
    if M.dim == 0 or (X.dim == M.dim and X.fingerprint() == M.fingerprint()):
        return True
    p = M.p
    alphas = hom_space(M, X)
    if _first_invertible(alphas, p) is not None:
        return True
    betas = hom_space(X, M) if alphas else []
    if not end_info(M, run).local:
        raise InputError("direct-summand test requires an indecomposable M")
    return _first_invertible(((b @ a) % p for a in alphas for b in betas),
                             p) is not None


def _iso_indec(M: FpModule, N: FpModule, run: Run | None = None) -> bool:
    """Exact isomorphism test for certified-indecomposable modules: M ≅ N iff
    no conjugation invariant tells them apart (``_invariants_differ``, the
    dimension first) and M is a direct summand of N."""
    return not _invariants_differ(M, N) and is_direct_summand(M, N, run)


def is_isomorphic(M: FpModule, N: FpModule, run: Run | None = None) -> bool:
    """General isomorphism test.

    Modules that a conjugation invariant tells apart are not isomorphic.  An
    invertible basis hom decides at once; otherwise the Krull-Schmidt
    multisets of both decompositions are compared class by class.
    """
    same_context(M, N)
    if _invariants_differ(M, N):
        return False
    if M.dim == 0:
        return True
    if _first_invertible(hom_space(M, N), M.p) is not None:
        return True
    run = run or Run()
    return same_multiset(decompose(M, run).summands,
                         decompose(N, run).summands, run)


def _first_invertible(homs: Iterable[np.ndarray], p: int) -> np.ndarray | None:
    """The first invertible map among ``homs``, else None.  On a basis of
    Hom(M, N) it is an isomorphism M -> N, and None does not rule out M ≅ N:
    no basis element need be invertible."""
    return next((F for F in homs
                 if F.shape[0] == F.shape[1] and rank(F, p) == len(F)), None)


def _invariants_differ(M: FpModule, N: FpModule) -> bool:
    """Whether a conjugation invariant tells M and N apart: the dimension,
    then the trace of each generator action, then rank(a - I) of each.
    Isomorphic modules have conjugate actions, so they never differ."""
    return (M.dim != N.dim
            or M.generator_traces() != N.generator_traces()
            or M.generator_moved_ranks() != N.generator_moved_ranks())


def _tally(items: list[tuple[FpModule, int]], run: Run,
           classes: list[tuple[FpModule, int]] = ()
           ) -> list[tuple[FpModule, int]]:
    """Fold (certified indecomposable, multiplicity) items into the
    isomorphism classes ``classes``, first fit: an item joins the first class
    whose representative is isomorphic to it, or opens a new class.
    ``_iso_indec`` passes over a class whose representative differs from the
    item in a conjugation invariant without a Hom solve."""
    out = [list(c) for c in classes]
    for mod, mult in items:
        for c in out:
            if _iso_indec(c[0], mod, run):
                c[1] += mult
                break
        else:
            out.append([mod, mult])
    return [(rep, count) for rep, count in out]


def multiset_of_classes(decs: list[Decomposition],
                        run: Run | None = None) -> list[tuple[FpModule, int]]:
    """Merge decompositions into one multiset of iso classes with counts.

    The summands of one decomposition are pairwise non-isomorphic, since
    ``decompose`` tallied them, so the first decomposition's summands are
    the starting classes and only the others are folded in."""
    if not decs:
        return []
    return _tally([s for dec in decs[1:] for s in dec.summands], run or Run(),
                  decs[0].summands)


def same_multiset(a: list[tuple[FpModule, int]],
                  b: list[tuple[FpModule, int]],
                  run: Run | None = None) -> bool:
    """Whether two multisets of iso classes are equal: folding b into a must
    double every count of a and open no class."""
    if sorted((m.dim, c) for m, c in a) != sorted((m.dim, c) for m, c in b):
        return False
    merged = _tally(b, run or Run(), a)
    return len(merged) == len(a) and all(
        n == 2 * c for (_, n), (_, c) in zip(merged, a))


# ---------------------------------------------------------------------------
# relative projectivity, vertices, sources
# ---------------------------------------------------------------------------


def relative_trace_image(M: FpModule, N: FpModule, emb: SubgroupEmbedding,
                         homs: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Echelonized basis (flattened) of the image of the relative trace
    Tr_X^G : Hom_kX(Res M, Res N) -> Hom_kG(M, N),
    Tr_X^G(f) = sum over g in G/X of N(g) f M(g^-1).

    By the adjunction, this image is exactly the set of maps factoring
    through the counit Ind_X Res_X N -> N, i.e. through X-induced objects;
    with M = N it decides Higman's criterion.  Every trace lies in
    Hom_kG(M, N), whose basis B = ``homs``, from the caller's
    hom_space(M, N), is in reduced echelon form, so a trace is fixed by its
    entries at the k pivots (a, c) of B.  Each such entry is a linear
    functional of f, and all k functionals come from one batched product
    over the coset representatives; the image is the span of
    (Hom_kX basis) · functionals^T read back through B.
    """
    same_context(M, N)
    G = M.group
    if not G.same_group(emb.ambient):
        raise InputError("subgroup is not inside the module's group")
    p = M.p
    if not homs:
        return np.zeros((0, M.dim * N.dim), dtype=np.int64), []
    B = np.stack([f.ravel() for f in homs])
    rows, cols = np.divmod([int(np.nonzero(b)[0][0]) for b in B], M.dim)
    reps = left_coset_representatives(G, emb)
    Ng = np.stack([N.element_action(g)[rows] for g in reps])
    Mg = np.stack([M.element_action(int(G.inv[g]))[:, cols] for g in reps])
    # phi[k, b, e] = sum over g of N(g)[a_k, b] M(g^-1)[e, c_k]
    phi = (Ng.transpose(1, 2, 0) @ Mg.transpose(2, 0, 1)) % p
    phi = phi.reshape(len(B), -1)
    if emb.order == 1:
        coords = phi.T
    else:
        # Hom_X(Res M, Res N) contains Hom_G(M, N), so it is not zero here
        res = hom_space(restrict(M, emb), restrict(N, emb))
        coords = np.stack([f.ravel() for f in res]) @ phi.T
    R, _ = rref(coords % p, p)
    return rref((R @ B) % p, p)


def is_relatively_projective(M: FpModule, emb: SubgroupEmbedding,
                             run: Run | None = None) -> bool:
    """Whether M is relatively X-projective, X = ``emb`` (a retract of
    Ind_X Res_X M; with X = D, M is a D-object).

    Each indecomposable summand of a relatively X-projective M has a vertex
    Q <=_G X, and |G:Q|_p divides its dimension (J. A. Green, Math. Z. 70,
    1959), so when |G:X|_p does not divide dim M the answer is no, with no
    trace.  Otherwise Higman's criterion decides: M is relatively
    X-projective iff id_M lies in the image of the relative trace Tr_X^G on
    End_kX(Res_X M) (D. G. Higman, Duke Math. J. 21, 1954).  The End basis
    is the one ``run`` keeps.  The verdict is not kept: ``vertex`` tests
    each subgroup class once, and ``green`` reads its D-object and X-object
    verdicts off the vertex that ``run`` keeps.
    """
    G = M.group
    if not G.same_group(emb.ambient):
        raise InputError("subgroup is not inside the module's group")
    if emb.order == G.order or M.dim == 0:
        return True
    if M.dim % p_part(G.order // emb.order, M.p):
        return False
    run = run or Run()
    R, piv = relative_trace_image(M, M, emb, end_basis(M, run))
    ident = np.eye(M.dim, dtype=np.int64).ravel()
    return linalg.in_row_space(ident, R, piv, M.p)


def vertex(M: FpModule, run: Run | None = None) -> SubgroupEmbedding:
    """A minimal subgroup Q with M relatively Q-projective, as the canonical
    representative of its conjugacy class.

    A Sylow p-subgroup is tested first: every module is projective relative
    to it in this cohomological setting.  Then the vertex is the first of the
    p-subgroup classes of G that ``run`` keeps, taken by increasing order,
    relative to which M is projective.  By Green's vertex theory (J. A.
    Green, Math. Z. 70, 1959) M is relatively R-projective iff Q <=_G R, and
    no class of order below |Q| holds a conjugate of Q, so the first class
    that passes is Q's.  Within one order the classes keep the order of
    ``p_subgroups_up_to_conjugacy``.  M must be certified indecomposable.
    Memoized in ``run`` by module fingerprint.
    """
    run = run or Run()
    cache_key = M.fingerprint()
    hit = run.vertices.get(cache_key)
    if hit is not None:
        return hit
    G = M.group
    if M.dim == 0 or not end_info(M, run).local:
        raise InputError("vertex is defined for certified indecomposables")
    key = (G.fingerprint, M.p)
    if key not in run.p_subgroups:
        run.p_subgroups[key] = p_subgroups_up_to_conjugacy(G, sylow(G, M.p))
    syl, *smaller = run.p_subgroups[key]
    if not is_relatively_projective(M, syl, run):
        raise TheoremViolationError("module not projective relative to Sylow")
    found = next((R for R in sorted(smaller, key=lambda R: R.order)
                  if is_relatively_projective(M, R, run)), syl)
    canon = run.vertices[cache_key] = SubgroupEmbedding(
        G, found.canonical_class_key, tag="vertex")
    return canon


def source(M: FpModule, run: Run | None = None) -> FpModule:
    """A source of the indecomposable M: the first summand s of Res_Q M,
    Q = vertex(M), whose own vertex is Q.

    These s are exactly the summands with M | Ind_Q s (J. A. Green, Math.
    Z. 70, 1959), so no induced kG-module is needed.  M is projective
    relative to the vertex of such an s, a subgroup of Q, which is therefore
    Q; and by Mackey the summands of vertex Q of Res_Q M | Res_Q Ind_Q s, s a
    source, are the g s for g in N_G(Q), with Ind_Q (g s) = Ind_Q s.
    """
    run = run or Run()
    Q = vertex(M, run)
    if Q.order == M.group.order:
        return M
    for s, _ in decompose(restrict(M, Q), run).summands:
        if vertex(s, run).order == Q.order:
            return s
    raise TheoremViolationError("no summand of the restriction has vertex Q")
