"""Krull-Schmidt decomposition and relative projectivity over GF(p).

Splitting uses Fitting's lemma on endomorphisms (basis elements first, then
seeded random combinations).  When the attempt budget runs out, a certificate
decides the leaf:

* commutative End(M): the fixed space of the Frobenius x -> x^p has dimension
  equal to the number of indecomposable factors of End(M)/J, so M is
  indecomposable iff that dimension is 1.  When it is larger, a fixed element
  outside the scalars satisfies f^p = f exactly and yields a Lagrange
  idempotent, which splits M deterministically.
* noncommutative End(M): exhaustive unit analysis of the finite ring in its
  regular representation.  A finite ring is local iff its nonunits form an
  additive subgroup; when they do not, the enumeration always contains an
  idempotent besides 0 and 1, which splits M.

A wrong certificate is never returned; exhaustion raises UndecidedError.
The radical J of a local End(M) is kept with its certificate: it decides
direct summands and isomorphisms of indecomposables exactly, and Higman's
criterion decides relative projectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError, TheoremViolationError, UndecidedError
from .linalg import mat_inv, mat_pow, nullspace, rank, rref
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
    PermGroup,
    SubgroupEmbedding,
    p_subgroups_up_to_conjugacy,
    sylow,
)

FITTING_BUDGET_FACTOR = 64


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
        self.basis = basis
        self.p = p
        self.m = len(basis)
        self.d = basis[0].shape[0] if basis else 0
        flat = np.stack([b.ravel() for b in basis])
        # hom_space returns reduced echelon bases, so coordinates are reads
        self.pivots = [int(np.nonzero(row)[0][0]) for row in flat]
        self._flat = flat

    def coords(self, x: np.ndarray) -> np.ndarray:
        c = x.ravel()[self.pivots] % self.p
        return c

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        out = np.zeros((self.d, self.d), dtype=np.int64)
        for coeff, b in zip(c, self.basis):
            if coeff:
                out = (out + int(coeff) * b) % self.p
        return out

    def contains(self, x: np.ndarray) -> bool:
        return (self.from_coords(self.coords(x)) == x % self.p).all()

    def is_commutative(self) -> bool:
        for i in range(self.m):
            for j in range(i + 1, self.m):
                a, b = self.basis[i], self.basis[j]
                if ((a @ b) % self.p != (b @ a) % self.p).any():
                    return False
        return True

    def power_map(self, e: int) -> np.ndarray:
        """Matrix of x -> x^(p^e) on a commutative algebra (additive in char p)."""
        rows = [self.coords(mat_pow(b, self.p ** e, self.p)) for b in self.basis]
        return np.stack(rows).T % self.p

    def flat_echelon(self, coords: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced echelon basis, on flattened matrices, of a span given in
        basis coordinates (one row per element)."""
        return rref((coords @ self._flat) % self.p, self.p)


class _UnitAnalysis:
    """Exhaustive unit structure of a small finite algebra.

    Invertibility of x in E is decided by the left-multiplication operator on
    E itself (an m x m matrix over GF(p)), so the cost is governed by dim E,
    not by the ambient matrix size.
    """

    ENUM_LIMIT = 300_000

    def __init__(self, alg: _EndAlgebra):
        from itertools import product as _product

        p, m = alg.p, alg.m
        if p ** m > self.ENUM_LIMIT:
            raise UndecidedError(
                f"endomorphism algebra of size {p}^{m} too large to enumerate")
        # structure tensor: basis[i] @ basis[j] = sum_k mult[i,j,k] basis[k]
        mult = np.zeros((m, m, m), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                mult[i, j] = alg.coords((alg.basis[i] @ alg.basis[j]) % p)
        self.mult = mult
        self.alg = alg
        one = alg.coords(np.eye(alg.d, dtype=np.int64))
        self.one = one
        nonunits = []
        idempotent = None
        for tup in _product(range(p), repeat=m):
            c = np.array(tup, dtype=np.int64)
            if not c.any():
                continue
            L = np.einsum("j,jik->ki", c, mult) % p
            # L[k, i] with column i = coords of c * basis[i]
            if rank(L, p) < m:
                nonunits.append(c)
                if idempotent is None:
                    sq = np.einsum("i,j,ijk->k", c, c, mult) % p
                    if (sq == c).all() and (c != one % p).any():
                        idempotent = c
        self.nonunits = nonunits
        self.idempotent_coords = idempotent

    def nonunit_subspace(self) -> np.ndarray | None:
        """Basis (in coordinates) of the span of the nonunits if that span
        consists exactly of the nonunits (plus zero), else None."""
        p, m = self.alg.p, self.alg.m
        sb = linalg.SpanBuilder(m, p)
        for c in self.nonunits:
            sb.add(c)
        if p ** sb.rank == len(self.nonunits) + 1:
            return sb.basis()
        return None


@dataclass
class _LeafInfo:
    local: bool
    end_dim: int
    radical_dim: int
    residue_degree: int
    # present only when not local:
    idempotent: np.ndarray | None = None
    # present only when local: echelon basis (and pivots) of J(End M) on
    # flattened matrices
    radical_flat: tuple[np.ndarray, list[int]] | None = None

    def certificate(self) -> SummandCertificate:
        return SummandCertificate(self.end_dim, self.radical_dim,
                                  self.residue_degree)


def _analyze_end(ends: list[np.ndarray], p: int, dim: int) -> _LeafInfo:
    """Decide locality of End(M), or produce an exact splitting idempotent."""
    m = len(ends)
    if m == 0:
        raise InputError("zero module has no endomorphism analysis")
    if m == 1:
        return _LeafInfo(True, 1, 0, 1, radical_flat=(
            np.zeros((0, dim * dim), dtype=np.int64), []))
    alg = _EndAlgebra(ends, p)
    if alg.is_commutative():
        return _analyze_commutative(alg, dim)
    return _analyze_noncommutative(alg)


def _analyze_commutative(alg: _EndAlgebra, dim: int) -> _LeafInfo:
    p, m = alg.p, alg.m
    frob = alg.power_map(1)
    fixed = nullspace((frob - np.eye(m, dtype=np.int64)) % p, p)
    r = len(fixed)
    # nilradical = kernel of x -> x^(p^l) with p^l >= matrix size
    l = 1
    while p ** l < max(alg.d, 2):
        l += 1
    power = alg.power_map(l)
    J = nullspace(power, p)
    radical_dim = len(J)
    if r == 1:
        return _LeafInfo(True, m, radical_dim, m - radical_dim,
                         radical_flat=alg.flat_echelon(J))
    # r >= 2: an exact Frobenius-fixed element outside the scalars
    id_coords = alg.coords(np.eye(alg.d, dtype=np.int64))
    fixed_rows = np.stack(fixed)
    chosen = None
    for row in fixed_rows:
        stack = np.stack([row, id_coords])
        if rank(stack, p) == 2:
            chosen = row
            break
    assert chosen is not None
    f = alg.from_coords(chosen)
    e = _lagrange_idempotent(f, p)
    assert ((e @ e) % p == e).all()
    eye = np.eye(alg.d, dtype=np.int64)
    assert e.any() and (e != eye).any()
    return _LeafInfo(False, m, radical_dim, 0, idempotent=e)


def _lagrange_idempotent(f: np.ndarray, p: int) -> np.ndarray:
    """For f with f^p = f exactly, an idempotent projector onto one of the
    >= 2 eigenvalue blocks of f."""
    d = f.shape[0]
    eye = np.eye(d, dtype=np.int64)
    roots = []
    for c in range(p):
        prod = eye.copy()
        for c2 in range(p):
            if c2 != c:
                prod = (prod @ ((f - c2 * eye) % p)) % p
        if prod.any():
            roots.append((c, prod))
    assert len(roots) >= 2, "fixed element was scalar after all"
    c0, prod = roots[0]
    scale = 1
    root_vals = [c for c, _ in roots]
    prod = eye.copy()
    for c2 in root_vals:
        if c2 != c0:
            prod = (prod @ ((f - c2 * eye) % p)) % p
            scale = (scale * (c0 - c2)) % p
    return (prod * pow(scale % p, p - 2, p)) % p


def _analyze_noncommutative(alg: _EndAlgebra) -> _LeafInfo:
    """Locality by exhaustive unit analysis of the finite ring End(M).

    A finite ring is local iff its nonunits are closed under addition, i.e.
    form a GF(p)-subspace; when it is not local it always contains an
    idempotent other than 0 and 1, which the enumeration finds.
    """
    p, m = alg.p, alg.m
    ua = _UnitAnalysis(alg)
    J = ua.nonunit_subspace()
    if J is not None:
        return _LeafInfo(True, m, len(J), m - len(J),
                         radical_flat=alg.flat_echelon(J))
    if ua.idempotent_coords is None:
        raise UndecidedError("nonunits not a subspace yet no idempotent found")
    e = alg.from_coords(ua.idempotent_coords)
    assert ((e @ e) % p == e).all()
    eye = np.eye(alg.d, dtype=np.int64)
    assert e.any() and (e != eye).any()
    return _LeafInfo(False, m, 0, 0, idempotent=e)


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


def _fitting_candidates(ends: list[np.ndarray], p: int,
                        rng: np.random.Generator, budget: int):
    for f in ends:
        yield f
    d = ends[0].shape[0]
    for _ in range(budget):
        coeffs = rng.integers(0, p, size=len(ends))
        f = np.zeros((d, d), dtype=np.int64)
        for c, b in zip(coeffs, ends):
            if c:
                f = (f + int(c) * b) % p
        yield f


def _leaf_or_split(mats: list[np.ndarray], dim: int, p: int,
                   rng: np.random.Generator):
    """Return ("leaf", _LeafInfo) or ("split", (left, right, P, r))."""
    ends = hom_space_from_actions(mats, dim, mats, dim, p)
    if len(ends) == 1:
        return "leaf", _analyze_end(ends, p, dim)
    K = 1
    while K < dim:
        K <<= 1
    budget = FITTING_BUDGET_FACTOR * len(ends)
    for f in _fitting_candidates(ends, p, rng, budget):
        fK = mat_pow(f, K, p)
        r = rank(fK, p)
        if 0 < r < dim:
            split = _split_by(mats, fK, p)
            if split is not None:
                return "split", split
    info = _analyze_end(ends, p, dim)
    if info.local:
        return "leaf", info
    split = _split_by(mats, info.idempotent, p)
    if split is None:
        raise UndecidedError("certificate idempotent failed to split")
    return "split", split


_DECOMP_CACHE: dict[tuple[bytes, int], "Decomposition"] = {}
_DECOMP_CACHE_CAP = 512


def decompose(M: FpModule, seed: int = 0) -> Decomposition:
    """Full Krull-Schmidt decomposition with per-class certificates.

    Deterministic given the seed.  Never returns an uncertified answer:
    exhaustion raises UndecidedError instead.  Results are memoized by the
    module's exact fingerprint.
    """
    cache_key = (M.fingerprint(), seed)
    hit = _DECOMP_CACHE.get(cache_key)
    if hit is not None:
        return hit
    rng = np.random.default_rng(seed)
    p = M.p
    pieces: list[tuple[list[np.ndarray], np.ndarray, _LeafInfo]] = []

    def work(mats: list[np.ndarray], embed: np.ndarray, dim: int):
        if dim == 0:
            return
        kind, payload = _leaf_or_split(mats, dim, p, rng)
        if kind == "leaf":
            pieces.append((mats, embed, payload))
            return
        left, right, P, r = payload
        work(left, (embed @ P[:, :r]) % p, r)
        work(right, (embed @ P[:, r:]) % p, dim - r)

    if M.dim:
        work([a.copy() for a in M.action], np.eye(M.dim, dtype=np.int64), M.dim)

    piece_modules = [
        FpModule(M.group, p, mats, name=f"{M.name}[{k}]", check=False,
                 dim=mats[0].shape[0] if mats else embed.shape[1])
        for k, (mats, embed, info) in enumerate(pieces)
    ]
    # group into isomorphism classes
    classes: list[tuple[FpModule, _LeafInfo, int]] = []
    for mod, (mats, embed, info) in zip(piece_modules, pieces):
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
        for mats, embed, info in pieces:
            k = embed.shape[1]
            for conj, a_piece in zip(conjugated, mats):
                assert (conj[offset:offset + k, offset:offset + k] == a_piece).all()
            offset += k
    else:
        cob = np.zeros((0, 0), dtype=np.int64)

    result = Decomposition(M, summands, cob, certificates,
                           [m for m in piece_modules])
    if len(_DECOMP_CACHE) >= _DECOMP_CACHE_CAP:
        _DECOMP_CACHE.pop(next(iter(_DECOMP_CACHE)))
    _DECOMP_CACHE[cache_key] = result
    return result


_CERT_CACHE: dict[bytes, _LeafInfo] = {}


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
    Tr_X^G : Hom_kX(Res M, Res N) -> Hom_kG(M, N).

    By the adjunction, this image is exactly the set of maps factoring
    through the counit Ind_X Res_X N -> N, i.e. through X-induced objects.
    The sum is taken along a chain X <= P <= G when a proper intermediate
    p-overgroup is available (trace transitivity), which keeps the
    intermediate bases small.
    """
    same_context(M, N)
    G = M.group
    p = M.p
    chain = _trace_chain(G, emb, p)
    basis = _hom_basis_for_trace(M, N, emb)
    lower = emb
    for upper in chain:
        basis = _trace_step(M, N, lower, upper, basis)
        lower = upper
    if basis.shape[0] == 0:
        return basis, []
    return rref(basis, p)


def _trace_chain(G: PermGroup, emb: SubgroupEmbedding, p: int) -> list[SubgroupEmbedding]:
    from .permgroups import whole_group

    whole = whole_group(G)
    if emb.order == G.order:
        return [whole]
    index = G.order // emb.order
    if index <= 8:
        return [whole]
    # for p-subgroups route through a Sylow p-subgroup containing emb
    if emb.order == 1 or _is_p_group(emb, p):
        S = sylow(G, p)
        if S.order > emb.order:
            for g in range(G.order):
                cand = S.conjugated(g)
                if cand.contains(emb):
                    return [cand, whole]
    return [whole]


def _is_p_group(emb: SubgroupEmbedding, p: int) -> bool:
    n = emb.order
    while n % p == 0:
        n //= p
    return n == 1


def _hom_basis_for_trace(M: FpModule, N: FpModule,
                         emb: SubgroupEmbedding) -> np.ndarray:
    """Flattened basis of Hom_kX(Res_X M, Res_X N)."""
    p = M.p
    if emb.order == 1:
        return np.eye(M.dim * N.dim, dtype=np.int64)
    homs = hom_space(restrict(M, emb), restrict(N, emb))
    if not homs:
        return np.zeros((0, M.dim * N.dim), dtype=np.int64)
    return np.stack([f.ravel() for f in homs])


def _trace_step(M: FpModule, N: FpModule, lower: SubgroupEmbedding,
                upper: SubgroupEmbedding, flat: np.ndarray) -> np.ndarray:
    """Apply Tr_lower^upper to a flat basis of maps, returning a flat spanning set."""
    p = M.p
    G = M.group
    if flat.shape[0] == 0:
        return flat
    reps = _relative_coset_reps(G, lower, upper)
    T = flat.reshape(flat.shape[0], N.dim, M.dim)
    acc = np.zeros_like(T)
    for g in reps:
        L = N.element_action(g)
        R = M.element_action(int(G.inv[g]))
        acc = (acc + np.einsum("ab,nbc,cd->nad", L, T, R)) % p
    out = acc.reshape(flat.shape[0], -1)
    R2, _ = rref(out, p)
    return R2


def _relative_coset_reps(G: PermGroup, lower: SubgroupEmbedding,
                         upper: SubgroupEmbedding) -> list[int]:
    """Representatives of upper/lower, as ambient element indices."""
    if not upper.contains(lower):
        raise InputError("trace chain is not nested")
    seen = set()
    reps = []
    for u in upper.element_indices:
        if u in seen:
            continue
        reps.append(u)
        for s in lower.element_indices:
            seen.add(int(G.mult[u, s]))
    return reps


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
