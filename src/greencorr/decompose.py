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

No step is random and no step enumerates units, so a decomposition does not
depend on any seed, and a wrong certificate is never returned.  The radical
of a local End(M) is kept with its certificate: it decides direct summands
and isomorphisms of indecomposables exactly, and Higman's criterion decides
relative projectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .errors import InputError, TheoremViolationError, UndecidedError
from .linalg import mat_inv, mat_pow, nullspace, rank, rref, solve
from .modules import (
    FpModule,
    InducedModule,
    counit_ind_res,
    hom_space,
    hom_space_from_actions,
    induce,
    restrict,
    same_context,
    unit_res_ind,
)
from .permgroups import (
    SubgroupEmbedding,
    left_coset_representatives,
    p_subgroups_up_to_conjugacy,
    sylow,
)


def column_space(A: np.ndarray, p: int) -> np.ndarray:
    """Matrix whose columns span the column space of A."""
    R, _ = rref(A.T % p, p)
    return R.T


@dataclass
class SummandCertificate:
    """Locality evidence for one indecomposable summand class."""

    end_dim: int
    radical_dim: int
    residue_degree: int


@dataclass
class Decomposition:
    module: FpModule
    summands: list[tuple[FpModule, int]]
    change_of_basis: np.ndarray
    certificates: list[SummandCertificate]
    pieces: list[FpModule]

    def dims_multiset(self) -> list[int]:
        out = []
        for mod, mult in self.summands:
            out.extend([mod.dim] * mult)
        return sorted(out)

    def class_count(self) -> int:
        return len(self.summands)


# ---------------------------------------------------------------------------
# endomorphism algebra analysis
# ---------------------------------------------------------------------------


class _EndAlgebra:
    """A unital subalgebra of M_d(GF(p)) spanned by an echelonized basis."""

    def __init__(self, basis: list[np.ndarray], p: int):
        self.p = p
        self.m = len(basis)
        self.d = basis[0].shape[0]
        flat = np.stack([b.ravel() for b in basis])
        # hom_space returns reduced echelon bases, so coordinates are reads
        self.pivots = [int(np.nonzero(row)[0][0]) for row in flat]
        self._flat = flat

    def coords(self, x: np.ndarray) -> np.ndarray:
        return x.ravel()[self.pivots] % self.p

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        """The element with coordinates c, or the stack of them for rows c."""
        return ((c @ self._flat) % self.p).reshape(*c.shape[:-1], self.d, self.d)

    def flat_echelon(self, coords: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced echelon basis, on flattened matrices, of a span given in
        basis coordinates (one row per element)."""
        return rref((coords @ self._flat) % self.p, self.p)

    def structure_constants(self) -> np.ndarray:
        """mult[i, j] = coords(basis[i] @ basis[j]).

        Only the pivot entries of the products are formed, in one batched
        float64 matmul, which is exact while d * (p - 1)^2 < 2^53.
        """
        d = self.d
        B = self._flat.reshape(self.m, d, d).astype(np.float64)
        rows = [c // d for c in self.pivots]
        cols = [c % d for c in self.pivots]
        left = B[:, rows, :].transpose(1, 0, 2)    # [k, i, t]
        right = B[:, :, cols].transpose(2, 1, 0)   # [k, t, j]
        prod = np.matmul(left, right).astype(np.int64) % self.p
        return prod.transpose(1, 2, 0)


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
        for coeffs in product(range(p), repeat=span):
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
    # present only when not local: an endomorphism that is neither invertible
    # nor nilpotent, so Fitting's lemma on it splits M
    splitter: np.ndarray | None = None
    # present only when local: echelon basis (and pivots) of J(End M) on
    # flattened matrices
    radical_flat: tuple[np.ndarray, list[int]] | None = None

    def certificate(self) -> SummandCertificate:
        return SummandCertificate(self.end_dim, self.radical_dim,
                                  self.residue_degree)


def _analyze_end(ends: list[np.ndarray], p: int, dim: int) -> _LeafInfo:
    """Decide locality of End(M) from its radical, or produce a splitter."""
    m = len(ends)
    if m == 0:
        raise InputError("zero module has no endomorphism analysis")
    if m == 1:
        return _LeafInfo(True, 1, 0, 1, radical_flat=(
            np.zeros((0, dim * dim), dtype=np.int64), []))
    alg = _EndAlgebra(ends, p)
    mult = alg.structure_constants()
    J, j_pivots = _radical(alg, mult)
    quotient = _Semisimple(alg, mult, J, j_pivots)
    x = quotient.splitting_element()
    if x is None:
        return _LeafInfo(True, m, len(J), m - len(J),
                         radical_flat=alg.flat_echelon(J))
    return _LeafInfo(False, m, len(J), 0,
                     splitter=alg.from_coords(quotient.lift(x)))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _split_by(mats: list[np.ndarray], F: np.ndarray, p: int):
    """Split the module along the invariant decomposition im(F) ⊕ ker(F)."""
    d = F.shape[0]
    im = column_space(F, p)
    ker = nullspace(F, p).T
    r = im.shape[1]
    if r == 0 or r == d:
        return None
    P = np.concatenate([im, ker], axis=1) % p
    if rank(P, p) != d:
        return None
    Pi = mat_inv(P, p)
    left, right = [], []
    for A in mats:
        conj = (Pi @ A @ P) % p
        if conj[r:, :r].any() or conj[:r, r:].any():
            return None  # F was not an endomorphism; caller bug
        left.append(conj[:r, :r])
        right.append(conj[r:, r:])
    return left, right, P, r


def _fitting_split(mats: list[np.ndarray], f: np.ndarray, dim: int, p: int):
    """Split along Fitting's decomposition im(f^K) ⊕ ker(f^K), K >= dim, when
    f is neither invertible nor nilpotent; else None."""
    K = 1
    while K < dim:
        K <<= 1
    fK = mat_pow(f, K, p)
    if 0 < rank(fK, p) < dim:
        return _split_by(mats, fK, p)
    return None


def _leaf_or_split(mats: list[np.ndarray], dim: int, p: int):
    """Return ("leaf", _LeafInfo) or ("split", (left, right, P, r))."""
    ends = hom_space_from_actions(mats, dim, mats, dim, p)
    if len(ends) > 1:
        for f in ends:
            split = _fitting_split(mats, f, dim, p)
            if split is not None:
                return "split", split
    info = _analyze_end(ends, p, dim)
    if info.local:
        return "leaf", info
    split = _fitting_split(mats, info.splitter, dim, p)
    if split is None:
        raise UndecidedError("certificate splitter failed to split")
    return "split", split


_DECOMP_CACHE: dict[bytes, "Decomposition"] = {}
_DECOMP_CACHE_CAP = 512
_CERT_CACHE: dict[bytes, _LeafInfo] = {}


def decompose(M: FpModule, seed: int = 0) -> Decomposition:
    """Full Krull-Schmidt decomposition with per-class certificates.

    Deterministic: every split comes from a basis endomorphism or from the
    radical of End, with no budget and no enumeration of units, so ``seed``
    is accepted but unused.  Results are memoized by the module's exact
    fingerprint, and each summand's End analysis is kept for ``end_info``.
    """
    cache_key = M.fingerprint()
    hit = _DECOMP_CACHE.get(cache_key)
    if hit is not None:
        return hit
    p = M.p
    pieces: list[tuple[FpModule, np.ndarray, _LeafInfo]] = []

    def work(mats: list[np.ndarray], embed: np.ndarray, dim: int):
        if dim == 0:
            return
        mod = FpModule(M.group, p, mats, name=f"{M.name}[{len(pieces)}]",
                       check=False, dim=dim)
        key = mod.fingerprint()
        # a local End has no splitting basis element, so a cached local
        # analysis is what _leaf_or_split would find; a non-local one is not
        # used, or the split would depend on what the cache holds
        info = _CERT_CACHE.get(key)
        if info is None or not info.local:
            kind, payload = _leaf_or_split(mats, dim, p)
            if kind == "split":
                left, right, P, r = payload
                work(left, (embed @ P[:, :r]) % p, r)
                work(right, (embed @ P[:, r:]) % p, dim - r)
                return
            _CERT_CACHE[key] = info = payload
        pieces.append((mod, embed, info))

    if M.dim:
        work([a.copy() for a in M.action], np.eye(M.dim, dtype=np.int64), M.dim)

    # group into isomorphism classes
    classes: list[tuple[FpModule, _LeafInfo, int]] = []
    for mod, embed, info in pieces:
        placed = False
        for idx, (rep, rep_info, count) in enumerate(classes):
            if rep.dim == mod.dim and _iso_indec(rep, mod):
                classes[idx] = (rep, rep_info, count + 1)
                placed = True
                break
        if not placed:
            classes.append((mod, info, 1))

    order = sorted(range(len(classes)),
                   key=lambda i: (classes[i][0].dim, i))
    summands = [(classes[i][0], classes[i][2]) for i in order]
    certificates = [classes[i][1].certificate() for i in order]

    if pieces:
        cob = np.concatenate([embed for _, embed, _ in pieces], axis=1) % p
        assert rank(cob, p) == M.dim
        cobi = mat_inv(cob, p)
        conjugated = [(cobi @ A @ cob) % p for A in M.action]
        offset = 0
        for mod, embed, info in pieces:
            k = embed.shape[1]
            for conj, a_piece in zip(conjugated, mod.action):
                assert (conj[offset:offset + k, offset:offset + k] == a_piece).all()
            offset += k
    else:
        cob = np.zeros((0, 0), dtype=np.int64)

    result = Decomposition(M, summands, cob, certificates,
                           [mod for mod, _, _ in pieces])
    if len(_DECOMP_CACHE) >= _DECOMP_CACHE_CAP:
        _DECOMP_CACHE.pop(next(iter(_DECOMP_CACHE)))
    _DECOMP_CACHE[cache_key] = result
    return result


def end_info(M: FpModule) -> _LeafInfo:
    """Locality analysis of End(M), cached by module fingerprint."""
    key = M.fingerprint()
    hit = _CERT_CACHE.get(key)
    if hit is None:
        ends = hom_space(M, M)
        hit = _analyze_end(ends, M.p, M.dim)
        _CERT_CACHE[key] = hit
    return hit


def certify_indecomposable(M: FpModule) -> SummandCertificate:
    info = end_info(M)
    if not info.local:
        raise InputError(f"{M.name} is decomposable")
    return info.certificate()


def is_indecomposable(M: FpModule) -> bool:
    if M.dim == 0:
        return False
    return end_info(M).local


# ---------------------------------------------------------------------------
# direct summands and isomorphism
# ---------------------------------------------------------------------------


def _is_retract(M: FpModule, X: FpModule) -> bool:
    """Whether the indecomposable M is a direct summand of X.

    M | X iff some composite beta∘alpha (alpha: M -> X, beta: X -> M) lies
    outside the radical J of the local ring End(M).  For X = Ind_S s the homs
    come through the adjunctions from Hom_S(Res M, s) and Hom_S(s, Res M);
    otherwise from hom_space, where an invertible basis hom (beta its
    inverse) decides at once.  Raises InputError when J is needed and End(M)
    is not local.
    """
    p = M.p
    if isinstance(X, InducedModule):
        emb, s = X.embedding, X.base
        r = len(X.coset_reps)
        eta = unit_res_ind(M, emb)
        eps = counit_ind_res(M, emb)
        alphas = [(_block_diag(phi, r) @ eta) % p
                  for phi in hom_space(restrict(M, emb), s)]
        betas = [(eps @ _block_diag(psi, r)) % p
                 for psi in hom_space(s, restrict(M, emb))]
    else:
        alphas = hom_space(M, X)
        if X.dim == M.dim and any(rank(a, p) == M.dim for a in alphas):
            return True
        betas = hom_space(X, M) if alphas else []
    info = end_info(M)
    if not info.local:
        raise InputError("direct-summand test requires an indecomposable M")
    RJ, pivJ = info.radical_flat
    return any(not linalg.in_row_space(((b @ a) % p).ravel(), RJ, pivJ, p)
               for a in alphas for b in betas)


def is_direct_summand(M: FpModule, X: FpModule) -> bool:
    """Whether the certified-indecomposable M is a direct summand of X.

    Exact for every X: M | X iff some composite beta∘alpha of homs
    alpha: M -> X and beta: X -> M is a unit of the local ring End(M), i.e.
    lies outside its radical.  The homs into and out of an induced X come
    through the induction adjunctions.
    """
    if M.dim == 0:
        return True
    return _is_retract(M, X)


def _block_diag(block: np.ndarray, copies: int) -> np.ndarray:
    rows, cols = block.shape
    out = np.zeros((rows * copies, cols * copies), dtype=np.int64)
    for i in range(copies):
        out[i * rows:(i + 1) * rows, i * cols:(i + 1) * cols] = block
    return out


def _iso_indec(M: FpModule, N: FpModule) -> bool:
    """Exact isomorphism test for certified-indecomposable modules: M ≅ N iff
    the dimensions agree and M is a direct summand of N."""
    return M.dim == N.dim and _is_retract(M, N)


def is_isomorphic(M: FpModule, N: FpModule, seed: int = 0) -> bool:
    """General isomorphism test.

    An invertible basis hom decides at once; otherwise the Krull-Schmidt
    multisets of both decompositions are compared class by class.
    """
    same_context(M, N)
    if M.dim != N.dim:
        return False
    if M.dim == 0:
        return True
    if any(rank(F, M.p) == M.dim for F in hom_space(M, N)):
        return True
    return same_multiset(decompose(M, seed).summands,
                         decompose(N, seed).summands)


def multiset_of_classes(decs: list[Decomposition]) -> list[tuple[FpModule, int]]:
    """Merge decompositions into one multiset of iso classes with counts."""
    merged: list[tuple[FpModule, int]] = []
    for dec in decs:
        for mod, mult in dec.summands:
            for i, (rep, count) in enumerate(merged):
                if rep.dim == mod.dim and _iso_indec(rep, mod):
                    merged[i] = (rep, count + mult)
                    break
            else:
                merged.append((mod, mult))
    return merged


def same_multiset(a: list[tuple[FpModule, int]],
                  b: list[tuple[FpModule, int]]) -> bool:
    if sorted((m.dim, c) for m, c in a) != sorted((m.dim, c) for m, c in b):
        return False
    used = [False] * len(b)
    for mod, count in a:
        ok = False
        for j, (other, count2) in enumerate(b):
            if used[j] or other.dim != mod.dim or count != count2:
                continue
            if _iso_indec(mod, other):
                used[j] = True
                ok = True
                break
        if not ok:
            return False
    return all(used)


# ---------------------------------------------------------------------------
# relative projectivity, vertices, sources
# ---------------------------------------------------------------------------


def relative_trace_image(M: FpModule, N: FpModule,
                         emb: SubgroupEmbedding) -> tuple[np.ndarray, list[int]]:
    """Echelonized basis (flattened) of the image of the relative trace
    Tr_X^G : Hom_kX(Res M, Res N) -> Hom_kG(M, N),
    Tr_X^G(f) = sum over g in G/X of N(g) f M(g^-1).

    By the adjunction, this image is exactly the set of maps factoring
    through the counit Ind_X Res_X N -> N, i.e. through X-induced objects;
    with M = N it decides Higman's criterion.  Every trace lies in
    Hom_kG(M, N), whose basis B from hom_space is in reduced echelon form,
    so a trace is fixed by its entries at the k pivots (a, c) of B.  Each
    such entry is a linear functional of f, and all k functionals come from
    one batched product over the coset representatives; the image is the
    span of (Hom_kX basis) · functionals^T read back through B.
    """
    same_context(M, N)
    G = M.group
    if not G.same_group(emb.ambient):
        raise InputError("subgroup is not inside the module's group")
    p = M.p
    homs = hom_space(M, N)
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


def is_relatively_projective(M: FpModule, emb: SubgroupEmbedding) -> bool:
    """Whether M is relatively D-projective (a D-object, a retract of
    Ind_D Res_D M).

    Decided by Higman's criterion: M is relatively D-projective iff id_M lies
    in the image of the relative trace Tr_D^G on End_kD(Res_D M)
    (D. G. Higman, Duke Math. J. 21, 1954).
    """
    G = M.group
    if not G.same_group(emb.ambient):
        raise InputError("subgroup is not inside the module's group")
    if emb.order == G.order or M.dim == 0:
        return True
    R, piv = relative_trace_image(M, M, emb)
    ident = np.eye(M.dim, dtype=np.int64).ravel()
    return linalg.in_row_space(ident, R, piv, M.p)


@dataclass
class VertexResult:
    vertex: SubgroupEmbedding       # canonical conjugacy-class representative
    source: FpModule
    checked: list[tuple[int, bool]]  # (subgroup order, relatively projective)


_VERTEX_CACHE: dict[tuple[bytes, int], VertexResult] = {}


def vertex(M: FpModule, seed: int = 0) -> VertexResult:
    """A minimal subgroup D with M relatively D-projective, plus a source.

    Starts at a Sylow p-subgroup (every module is projective relative to it
    in this cohomological setting) and descends through subgroups up to
    conjugacy.  M must be certified indecomposable.  Memoized per module
    fingerprint and seed.
    """
    cache_key = (M.fingerprint(), seed)
    hit = _VERTEX_CACHE.get(cache_key)
    if hit is not None:
        return hit
    G = M.group
    p = M.p
    if M.dim == 0 or not end_info(M).local:
        raise InputError("vertex is defined for certified indecomposables")
    S = sylow(G, p)
    if not is_relatively_projective(M, S):
        raise TheoremViolationError("module not projective relative to Sylow")
    checked = [(S.order, True)]
    current = S
    while True:
        descended = False
        for R in p_subgroups_up_to_conjugacy(G, current):
            if R.order >= current.order:
                continue
            ok = is_relatively_projective(M, R)
            checked.append((R.order, ok))
            if ok:
                current = R
                descended = True
                break
        if not descended:
            break
    canon = SubgroupEmbedding(G, current.canonical_class_key(), tag="vertex")
    # a source: an indecomposable summand s of Res_D M with M <= Ind_D s
    source = None
    if current.order == G.order:
        source = M
    else:
        dec = decompose(restrict(M, current), seed)
        for s_mod, _ in dec.summands:
            ind = induce(s_mod, current)
            if is_direct_summand(M, ind):
                source = s_mod
                break
    if source is None:
        raise TheoremViolationError("no summand of the restriction induces M back")
    result = VertexResult(canon, source, checked)
    if len(_VERTEX_CACHE) >= _DECOMP_CACHE_CAP:
        _VERTEX_CACHE.pop(next(iter(_VERTEX_CACHE)))
    _VERTEX_CACHE[cache_key] = result
    return result
