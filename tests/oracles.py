"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and separate from the package code:
dict-of-permutation groups, direct triple enumeration for isocommas,
per-morphism isocomma groupoids with union-find components,
kronecker-product nullspaces for hom spaces, exhaustive idempotent search
for decompositions.
"""

from itertools import product

import numpy as np

from greencorr.groupoids import FiniteGroupoid


def perm_mul(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def brute_closure(gens, degree):
    eye = tuple(range(degree))
    seen = {eye}
    frontier = [eye]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                for y in (perm_mul(x, g), perm_mul(g, x)):
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
        frontier = new
    return sorted(seen)


def two_walk_tree(gens, degree):
    """The sorted elements and the spanning tree of the group that gens
    generate, by two breadth-first walks: one over permutations finds the
    elements, and one over their indices records factor_of[i] =
    (parent, generator position), the first step that reaches element i."""
    eye = tuple(range(degree))
    seen = {eye}
    frontier = [eye]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = perm_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    elements = sorted(seen)
    index = {x: i for i, x in enumerate(elements)}
    factor_of = [None] * len(elements)
    done = {index[eye]}
    frontier = [index[eye]]
    while frontier:
        new = []
        for x in frontier:
            for gpos, g in enumerate(gens):
                y = index[perm_mul(elements[x], g)]
                if y not in done:
                    done.add(y)
                    factor_of[y] = (x, gpos)
                    new.append(y)
        frontier = new
    return elements, factor_of


def brute_tables(G):
    """The former per-pair build of G.mult and G.inv: one composition and one
    index lookup per pair of elements."""
    n = G.order
    mult = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(G.elements):
        for j, b in enumerate(G.elements):
            mult[i, j] = G.index[perm_mul(a, b)]
    inv = np.array([G.index[perm_inv(a)] for a in G.elements], dtype=np.int32)
    return mult, inv


def galois_regular_classes(G, p):
    """The number of classes of p-regular elements of G under g ~ h when h
    is conjugate to g^(p^i): over GF(p) it is the number of simple modules
    (Reiner, Proc. AMS 15, 1964).  By walks over the permutations."""
    eye = tuple(range(G.degree))

    def order(x):
        k, y = 1, x
        while y != eye:
            k, y = k + 1, perm_mul(y, x)
        return k

    def power(x, k):
        y = eye
        for _ in range(k):
            y = perm_mul(y, x)
        return y

    seen, classes = set(), 0
    for x in G.elements:
        if x in seen or order(x) % p == 0:
            continue
        classes += 1
        todo = [x]
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo += [perm_mul(perm_mul(g, y), perm_inv(g))
                         for g in G.elements]
                todo.append(power(y, p))
    return classes


def brute_double_cosets(G, H, K):
    """Partition of G into sets HgK; G, H, K are element lists."""
    G = list(G)
    left = set(G)
    classes = []
    while left:
        g = min(left)
        orbit = {perm_mul(perm_mul(h, g), k) for h in H for k in K}
        assert orbit <= left
        left -= orbit
        classes.append((g, orbit))
    return classes


def _conj(G, g, x):
    return int(G.mult[G.mult[g, x], G.inv[g]])


def brute_subgroup_closure(G, gens):
    """Close gens under products on both sides with everything found so far."""
    seen = set(gens) | {G.identity}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for y in list(seen):
                for z in (int(G.mult[x, y]), int(G.mult[y, x])):
                    if z not in seen:
                        seen.add(z)
                        new.append(z)
        frontier = new
    return frozenset(seen)


def brute_all_subgroups(G):
    """Every subgroup of the PermGroup G as a sorted index tuple, by
    extending each subgroup found with every element outside it."""
    found = {frozenset({G.identity})}
    frontier = list(found)
    while frontier:
        new = []
        for S in frontier:
            for x in range(G.order):
                if x not in S:
                    T = brute_subgroup_closure(G, set(S) | {x})
                    if T not in found:
                        found.add(T)
                        new.append(T)
        frontier = new
    return {tuple(sorted(S)) for S in found}


def brute_class_key(G, elems):
    """Least sorted element tuple over all conjugates g S g^-1."""
    return min(tuple(sorted(_conj(G, g, x) for x in elems))
               for g in range(G.order))


def brute_normalizer(G, elems):
    """The g with g S g^-1 = S, by conjugating every element."""
    S = set(elems)
    return tuple(g for g in range(G.order)
                 if {_conj(G, g, x) for x in elems} == S)


def brute_is_subconjugate(G, A, B):
    """Whether some conjugate g A g^-1 lies inside B."""
    B = set(B)
    return any(all(_conj(G, g, x) in B for x in A) for g in range(G.order))


def brute_coset_lookup(G, elems):
    """Least representatives of the left cosets gS in element order, and the
    position of each element's coset among them."""
    where = [-1] * G.order
    reps = []
    for g in range(G.order):
        if where[g] < 0:
            for s in elems:
                where[int(G.mult[g, s])] = len(reps)
            reps.append(g)
    return reps, where


def brute_isocomma_components(G, H, K):
    """Components of the groupoid of triples (•, •, g) with morphism pairs
    (h, k), plus |Aut| of one base object per component.

    Objects are elements g of G; (h, k) maps g to k g h^{-1}.
    """
    objects = list(G)
    parent = {g: g for g in objects}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in objects:
        for h in H:
            for k in K:
                tgt = perm_mul(perm_mul(k, g), perm_inv(h))
                ra, rb = find(g), find(tgt)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    comps = {}
    for g in objects:
        comps.setdefault(find(g), []).append(g)
    out = []
    for root in sorted(comps):
        base = min(comps[root])
        auts = sum(
            1 for h in H for k in K
            if perm_mul(perm_mul(k, base), perm_inv(h)) == base
        )
        out.append((sorted(comps[root]), auts))
    return out


def brute_support_components(mats, dim):
    """Components of the support graph of the actions ``mats`` (i and j are
    joined when some action has a nonzero (i, j) entry), by union-find over
    the nonzero entries: sorted index lists, ordered by their least index."""
    parent = list(range(dim))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for A in mats:
        for i, j in zip(*np.nonzero(A)):
            ra, rb = find(int(i)), find(int(j))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    comps = {}
    for i in range(dim):
        comps.setdefault(find(i), []).append(i)
    return [comps[root] for root in sorted(comps)]


def dense_conjugate(mats, p, rng):
    """P^-1 A P for each action A, with P a seeded random invertible matrix
    whose entries are drawn uniformly, so it mixes every basis vector."""
    d = mats[0].shape[0]
    P = rng.integers(0, p, size=(d, d))
    while rank_mod(P, p) < d:
        P = rng.integers(0, p, size=(d, d))
    Pi = inv_mod_mat(P, p)
    return [(Pi @ A @ P) % p for A in mats]


def retract_by_radical(M, X, run):
    """Whether the certified-indecomposable M is a direct summand of X, by
    the radical: some composite b∘a of basis homs a: M -> X, b: X -> M lies
    outside J(End M), tested at the pivots of J's reduced echelon basis on
    flattened matrices.  J comes from ``decompose._radical``; every pair is
    tested, with no shortcut.  InputError unless End(M) is local."""
    from greencorr.decompose import _EndAlgebra, _radical, end_info
    from greencorr.errors import InputError
    from greencorr.linalg import in_row_space
    from greencorr.modules import hom_space

    p = M.p
    info = end_info(M, run)
    if not info.local:
        raise InputError("direct-summand test requires an indecomposable M")
    alg = _EndAlgebra(info.ends, p)
    J, _ = _radical(alg, alg.structure_constants())
    flat = np.stack([e.ravel() for e in info.ends])
    RJ, pivots = rref_mod((J @ flat) % p, p)
    return any(not in_row_space(((b @ a) % p).ravel(), RJ, pivots, p)
               for a in hom_space(M, X) for b in hom_space(X, M))


def first_fit_tally(items, run, classes=()):
    """``decompose._tally`` without the invariant screen of ``_iso_indec``:
    each (certified indecomposable, multiplicity) item joins the first class
    whose representative has its dimension and is a direct summand of it
    (``retract_by_radical``), or opens a new class."""
    out = [list(c) for c in classes]
    for mod, mult in items:
        for c in out:
            if c[0].dim == mod.dim and retract_by_radical(c[0], mod, run):
                c[1] += mult
                break
        else:
            out.append([mod, mult])
    return [(rep, count) for rep, count in out]


def mackey_job_modules(seed):
    """The modules that one mackey_odd_p benchmark job hands to
    ``decompose``, built as the job builds them but not decomposed: one
    (Res_H Ind_H^G M, [the double-coset inductions], recorded class rows)
    per pool module M of ``perfbench/workloads.mackey_setup(seed)``."""
    import importlib
    from pathlib import Path

    import pytest

    from greencorr.permgroups import double_cosets

    wl = _bench_workloads()
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    ref = wl.load_reference(bench / "reference", "mackey_odd_p")
    recorded = {c["name"]: c["modules"] for c in ref["mackey"]["chains"]}
    out = []
    with pytest.MonkeyPatch.context() as mp:
        # mackey_sides imports decompose when called: hand back its input
        mp.setattr(importlib.import_module("greencorr.decompose"),
                   "decompose", lambda M: M)
        for chain in wl.mackey_setup(seed, ref):
            G, H = chain["G"], chain["H"]
            cosets = double_cosets(G, H, H)
            for k, M in chain["modules"]:
                (lhs,), rhs = wl.mackey_sides(G, H, M, cosets)
                out.append((lhs, rhs, recorded[chain["name"]][k]["classes"]))
    return out


def kron_hom_basis(gens_m, gens_n, p):
    """Nullspace construction of Hom(M, N): all F with F rho_M(g) = rho_N(g) F.

    gens_m/gens_n are lists of square matrices (one per group generator).
    Returns a list of matrices forming a basis.
    """
    dm = gens_m[0].shape[0] if gens_m else 0
    dn = gens_n[0].shape[0] if gens_n else 0
    rows = []
    for A, B in zip(gens_m, gens_n):
        # vec(F A) - vec(B F) = (A^T (x) I - I (x) B) vec(F)
        op = (np.kron(A.T, np.eye(dn, dtype=np.int64))
              - np.kron(np.eye(dm, dtype=np.int64), B)) % p
        rows.append(op)
    if not rows:
        return [m.reshape(dn, dm) for m in np.eye(dn * dm, dtype=np.int64)]
    M = np.concatenate(rows) % p
    basis = nullspace_mod(M, p)
    return [v.reshape(dm, dn).T.copy() for v in basis]


def mat_mul_int64(a, b, p):
    """(a @ b) mod p in int64 matmul, exact while the products fit in int64."""
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % p


def mat_pow_int64(a, k, p):
    """a^k mod p by repeated squaring in int64 matmul, for a square matrix or
    a stack of them; a^0 is one identity matrix."""
    n = a.shape[-1]
    out = np.eye(n, dtype=np.int64)
    base = a % p
    while k:
        if k & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        k >>= 1
    return out


def as_fp(v, p):
    return np.remainder(np.asarray(v, dtype=np.int64), p)


def inv_mod(a, p):
    return pow(a % p, p - 2, p)


class SpanBuilder:
    """Incrementally grown row space kept in reduced echelon form.

    add() reports whether the vector enlarged the span; the running basis and
    pivot list are exposed for coordinate computations.
    """

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def reduce(self, v: np.ndarray) -> np.ndarray:
        w = as_fp(v, self.p).copy()
        for i, c in enumerate(self.pivots):
            if w[c]:
                w = (w - w[c] * self.rows[i]) % self.p
        return w

    def add(self, v: np.ndarray) -> bool:
        w = self.reduce(v)
        nz = np.nonzero(w)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        w = (w * inv_mod(int(w[c]), self.p)) % self.p
        # back-substitute into existing rows to stay fully reduced
        for i in range(len(self.rows)):
            coeff = int(self.rows[i][c])
            if coeff:
                self.rows[i] = (self.rows[i] - coeff * w) % self.p
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < c:
            pos += 1
        self.rows.insert(pos, w)
        self.pivots.insert(pos, c)
        return True

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.dim), dtype=np.int64)
        return np.stack(self.rows)


class ReferenceSpin:
    """Spin of the standard basis under the generator action, over a
    SpanBuilder: the reference for the package's spin.

    seeds: indices (into the spin order) of the vectors that started orbits;
    each orbit is spun before the next seed is taken, so orbit k is the run
    seeds[k] <= t < seeds[k + 1] of the spin order.
    prov: per spin vector, (parent_spin_index, generator_pos) or None for seeds.
    edges: leftover (spin_index, generator_pos) pairs that close up and hence
    contribute constraints.
    basis: dim x dim matrix, row t = spin vector w_t.
    span: the SpanBuilder the spin grew.
    """

    def __init__(self, action: list[np.ndarray], dim: int, p: int):
        d = dim
        span = SpanBuilder(d, p)
        vectors: list[np.ndarray] = []
        prov: list[tuple[int, int] | None] = []
        seeds: list[int] = []
        edges: list[tuple[int, int]] = []
        next_seed = 0
        while len(vectors) < d:
            while next_seed < d:
                e = np.zeros(d, dtype=np.int64)
                e[next_seed] = 1
                if span.add(e):
                    seeds.append(len(vectors))
                    vectors.append(e)
                    prov.append(None)
                    next_seed += 1
                    break
                next_seed += 1
            t = seeds[-1]
            queue = [t]
            while queue:
                s = queue.pop(0)
                for gpos, A in enumerate(action):
                    w = (A @ vectors[s]) % p
                    if span.add(w):
                        queue.append(len(vectors))
                        vectors.append(w)
                        prov.append((s, gpos))
                    else:
                        edges.append((s, gpos))
        self.seeds = seeds
        self.prov = prov
        self.edges = edges
        self.basis = np.stack(vectors) if vectors else np.zeros((0, 0), dtype=np.int64)
        self.span = span


def frontier_submodule_actions(M, vectors):
    """The actions of the submodule spanned by vectors, in the reduced
    echelon basis of its span: a frontier spin of all the vectors at once
    over a SpanBuilder, then one linear solve per generator."""
    from greencorr.linalg import solve

    span = SpanBuilder(M.dim, M.p)
    frontier = []
    for v in vectors:
        if span.add(v):
            frontier.append(v)
    while frontier:
        new = []
        for v in frontier:
            for A in M.action:
                w = (A @ v) % M.p
                if span.add(w):
                    new.append(w)
        frontier = new
    B = span.basis()  # rows span the submodule
    mats = []
    for A in M.action:
        img = (A @ B.T) % M.p  # dim x k, columns are images of basis rows
        coeff = solve(B.T, img, M.p)
        assert coeff is not None, "spun span is not a submodule"
        mats.append(coeff % M.p)
    return mats


def dense_hom_space(action_m, dim_m, action_n, dim_n, p):
    """Hom(M, N) from the spin of M as one dense system: every Cayley edge's
    constraint rows stacked into one (edges * dim_n) x (seeds * dim_n)
    matrix, solved by one nullspace; returns the reduced echelon basis."""
    if dim_m == 0 or dim_n == 0:
        return []
    spin = ReferenceSpin(action_m, dim_m, p)
    r = len(spin.seeds)
    dN, dM = dim_n, dim_m
    u = r * dN
    W = np.zeros((dM, dN, dN), dtype=np.int64)
    block = np.full(dM, -1, dtype=np.int64)
    for k, t in enumerate(spin.seeds):
        W[t] = np.eye(dN, dtype=np.int64)
        block[t] = k
    for t in range(dM):
        if block[t] < 0:
            s, gpos = spin.prov[t]
            W[t] = (action_n[gpos] @ W[s]) % p
            block[t] = block[s]
    ibt = inv_mod_mat(spin.basis.T, p)
    if spin.edges:
        vecs = np.stack([(action_m[g] @ spin.basis[s]) % p
                         for s, g in spin.edges])
        coords = mat_mul_int64(vecs, ibt.T, p)
        ne = len(spin.edges)
        combos = np.zeros((ne, dN, u), dtype=np.int64)
        for k in range(r):
            mask = block == k
            combos[:, :, k * dN:(k + 1) * dN] = mat_mul_int64(
                coords[:, mask], W[mask].reshape(-1, dN * dN),
                p).reshape(ne, dN, dN)
        for e, (s, g) in enumerate(spin.edges):
            kb = int(block[s])
            seg = combos[e, :, kb * dN:(kb + 1) * dN]
            combos[e, :, kb * dN:(kb + 1) * dN] = \
                (seg - (action_n[g] @ W[s])) % p
        sols = np.array(nullspace_mod(combos.reshape(-1, u), p),
                        dtype=np.int64).reshape(-1, u)
    else:
        sols = np.eye(u, dtype=np.int64)
    if len(sols) == 0:
        return []
    # hom k sends spin vector w_t to W[t] @ x_block(t)
    x = sols.reshape(len(sols), r, dN)[:, block, :]        # [k, t, :]
    Y = np.einsum("tab,ktb->kat", W, x) % p                 # columns W[t] x
    flat = np.stack([mat_mul_int64(y, ibt, p).ravel() for y in Y])
    R, _ = rref_mod(flat, p)
    return [row.reshape(dN, dM) for row in R]


def rref_mod(A, p):
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    A = A.copy() % p
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        idx = np.nonzero(col)[0]
        if idx.size:
            A[idx] = (A[idx] - np.outer(col[idx], A[r])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def nullspace_mod(A, p):
    R, pivots = rref_mod(A, p)
    n = A.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        v = np.zeros(n, dtype=np.int64)
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-int(R[i, c])) % p
        basis.append(v)
    return basis


def all_idempotents(end_basis, p, limit=200000):
    """Exhaustively enumerate idempotents in the span of end_basis (small only)."""
    h = len(end_basis)
    if p ** h > limit:
        raise ValueError("endomorphism algebra too large for exhaustion")
    d = end_basis[0].shape[0]
    idems = []
    for coeffs in product(range(p), repeat=h):
        F = np.zeros((d, d), dtype=np.int64)
        for c, E in zip(coeffs, end_basis):
            F = (F + c * E) % p
        if ((F @ F) % p == F).all():
            idems.append(F)
    return idems


def brute_decompose_dims(gens, p, limit=200000):
    """Multiset of summand dimensions found by exhaustive idempotent splitting."""
    d = gens[0].shape[0]
    if d == 0:
        return []
    ends = kron_hom_basis(gens, gens, p)
    idems = all_idempotents(ends, p, limit)
    eye = np.eye(d, dtype=np.int64)
    for F in idems:
        r = rank_mod(F, p)
        if 0 < r < d:
            # split along F: basis of im(F) and ker(F)
            im = column_space(F, p)
            ker = np.array(nullspace_mod(F, p), dtype=np.int64).T
            P = np.concatenate([im, ker], axis=1) % p
            assert rank_mod(P, p) == d
            Pi = inv_mod_mat(P, p)
            sub1 = [(Pi @ g @ P)[:r, :r] % p for g in gens]
            sub2 = [(Pi @ g @ P)[r:, r:] % p for g in gens]
            for g in gens:
                conj = (Pi @ g @ P) % p
                assert not conj[r:, :r].any() and not conj[:r, r:].any()
            return brute_decompose_dims(sub1, p, limit) + brute_decompose_dims(sub2, p, limit)
    return [d]


def rank_mod(A, p):
    A = A.copy() % p
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        idx = np.nonzero(col)[0]
        if idx.size:
            A[idx] = (A[idx] - np.outer(col[idx], A[r])) % p
        r += 1
    return r


def column_space(A, p):
    """Matrix whose columns are a basis of the column space."""
    At = A.T.copy() % p
    rows = []
    piv = []
    for row in At:
        w = row.copy()
        for r, c in zip(rows, piv):
            if w[c]:
                w = (w - w[c] * r) % p
        nz = np.nonzero(w)[0]
        if nz.size:
            c = int(nz[0])
            w = (w * pow(int(w[c]), p - 2, p)) % p
            rows.append(w)
            piv.append(c)
    return np.array(rows, dtype=np.int64).T


def inv_mod_mat(A, p):
    n = A.shape[0]
    aug = np.concatenate([A % p, np.eye(n, dtype=np.int64)], axis=1)
    m = aug.shape[0]
    r = 0
    for c in range(n):
        nz = np.nonzero(aug[r:, c])[0]
        piv = r + int(nz[0])
        aug[[r, piv]] = aug[[piv, r]]
        aug[r] = (aug[r] * pow(int(aug[r, c]), p - 2, p)) % p
        col = aug[:, c].copy()
        col[r] = 0
        idx = np.nonzero(col)[0]
        if idx.size:
            aug[idx] = (aug[idx] - np.outer(col[idx], aug[r])) % p
        r += 1
    return aug[:, n:]


def singular_batch(mats, p):
    """Which of the stacked square matrices (shape (B, n, n)) are singular
    mod p, by Gaussian elimination run on the whole batch at once."""
    A = mats.copy() % p
    B, n, _ = A.shape
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    singular = np.zeros(B, dtype=bool)
    idx = np.arange(B)
    for c in range(n):
        nz = A[:, c:, c] != 0
        singular |= ~nz.any(axis=1)
        piv = c + nz.argmax(axis=1)
        top = A[idx, piv].copy()
        A[idx, piv] = A[:, c]
        A[:, c] = (top * inv[top[:, c]][:, None]) % p
        A[:, c + 1:] = (A[:, c + 1:] - A[:, c + 1:, c:c + 1] * A[:, None, c]) % p
    return singular


def brute_radical(end_basis, p, limit=200000, chunk=4096):
    """J(E) of a local algebra E spanned by end_basis, as its set of nonunits.

    Enumerates all p^m elements of E and keeps the singular ones (E holds
    the inverse of each of its invertible matrices).  A finite
    ring is local iff its nonunits form an additive subgroup, and then they
    are its radical.  Returns the reduced echelon basis of J on flattened
    matrices, or None when the nonunits do not form a subspace (E is not
    local).
    """
    m = len(end_basis)
    if p ** m > limit:
        raise ValueError("algebra too large for exhaustion")
    d = end_basis[0].shape[0]
    flat = np.stack([b.ravel() for b in end_basis]).astype(np.int64)
    digits = p ** np.arange(m, dtype=np.int64)
    nonunits = []
    for start in range(1, p ** m, chunk):
        idx = np.arange(start, min(start + chunk, p ** m), dtype=np.int64)
        coeffs = (idx[:, None] // digits) % p
        mats = ((coeffs @ flat) % p).reshape(-1, d, d)
        nonunits.append(coeffs[singular_batch(mats, p)])
    N = np.concatenate(nonunits)
    span, _ = rref_mod(N, p)
    if p ** len(span) != len(N) + 1:
        return None
    return rref_mod((span @ flat) % p, p)[0]


def brute_isomorphic(gens_m, gens_n, p, limit=200000):
    """Whether some invertible matrix intertwines the two actions, by
    exhausting Hom(M, N) (small hom spaces only)."""
    basis = kron_hom_basis(gens_m, gens_n, p)
    if not basis or basis[0].shape[0] != basis[0].shape[1]:
        return False
    if p ** len(basis) > limit:
        raise ValueError("hom space too large for exhaustion")
    d = basis[0].shape[0]
    for coeffs in product(range(p), repeat=len(basis)):
        F = np.zeros((d, d), dtype=np.int64)
        for c, E in zip(coeffs, basis):
            F = (F + c * E) % p
        if rank_mod(F, p) == d:
            return True
    return False


def image_tuple_to_ambient(emb):
    """The former SubgroupEmbedding.to_ambient: each element of emb.group,
    looked up by its image tuple in the ambient group."""
    return tuple(emb.ambient.index[perm] for perm in emb.group.elements)


def vertex_by_subgroup_descent(M, run):
    """The former descent of decompose.vertex, as the canonical key of the
    vertex: a fresh Sylow subgroup, then the trivial subgroup, then at each
    step the subgroup classes of the current subgroup, listed anew."""
    from greencorr.decompose import is_relatively_projective
    from greencorr.permgroups import (
        p_subgroups_up_to_conjugacy, sylow, trivial_subgroup)

    G = M.group
    smaller = sylow(G, M.p)
    assert is_relatively_projective(M, smaller, run)
    current = trivial_subgroup(G)
    if smaller.order == 1 or is_relatively_projective(M, current, run):
        smaller = None
    while smaller is not None:
        current = smaller
        smaller = next((R for R in p_subgroups_up_to_conjugacy(G, current)
                        if 1 < R.order < current.order
                        and is_relatively_projective(M, R, run)), None)
    return current.canonical_class_key


def summand_route_relatively_projective(M, emb):
    """Relative projectivity by decompose-and-match: M is relatively
    emb-projective iff every indecomposable summand class of M occurs in
    Ind Res M with at least its multiplicity (Krull-Schmidt).

    The decompositions come from the package; summand classes are matched
    with brute_isomorphic, so no relative trace and no radical is involved.
    """
    from greencorr.decompose import decompose
    from greencorr.modules import induce, restrict

    if emb.order == M.group.order or M.dim == 0:
        return True
    dec_ind = decompose(induce(restrict(M, emb), emb))
    for mod, mult in decompose(M).summands:
        have = next((count for other, count in dec_ind.summands
                     if other.dim == mod.dim
                     and brute_isomorphic(mod.action, other.action, M.p)), 0)
        if have < mult:
            return False
    return True


def relatively_projective_by_trace(M, emb):
    """The former route of decompose.is_relatively_projective: Higman's
    criterion alone, whether id_M lies in the image of Tr_X^G on
    End_kX(Res_X M), with no shortcut from dimensions, vertices or a Run."""
    from greencorr.decompose import relative_trace_image
    from greencorr.linalg import in_row_space
    from greencorr.modules import hom_space

    R, piv = relative_trace_image(M, M, emb, hom_space(M, M))
    return in_row_space(np.eye(M.dim, dtype=np.int64).ravel(), R, piv, M.p)


def is_x_object_summand_check(M, family):
    """The reference for green.is_x_object: the indecomposable M is an
    X-object iff it is a retract of some Ind_X Res_X M, X in the family,
    found by decomposing each induced module instead of by vertices."""
    from greencorr.decompose import (
        Run, decompose, multiset_of_classes, _iso_indec)
    from greencorr.modules import induce, restrict

    if not family:
        return False
    run = Run()
    pieces = [decompose(induce(restrict(M, X), X), run) for X in family]
    merged = multiset_of_classes(pieces, run)
    return any(rep.dim == M.dim and _iso_indec(M, rep, run)
               for rep, _ in merged)


def source_by_induction(M, run):
    """The former source search of decompose.vertex: the first summand s of
    Res_Q M, Q = vertex(M), with M a direct summand of Ind_Q s, decided by a
    Hom solve against the induced kG-module."""
    from greencorr.decompose import decompose, is_direct_summand, vertex
    from greencorr.modules import induce, restrict

    Q = vertex(M, run)
    if Q.order == M.group.order:
        return M
    return next(s for s, _ in decompose(restrict(M, Q), run).summands
                if is_direct_summand(M, induce(s, Q), run))


def generating_family_with_regular(sc, run):
    """The former source list of green.generating_family_over_D: the
    trivial and the regular kD-module, then k[D/E] for each proper subgroup
    class E, decomposed, with the first of each class kept."""
    from greencorr.decompose import decompose
    from greencorr.green import _dedup_classes
    from greencorr.modules import induce, regular_module, trivial_module
    from greencorr.permgroups import all_subgroups, class_representatives

    Dgrp = sc.D.group
    sources = [trivial_module(Dgrp, sc.p), regular_module(Dgrp, sc.p)]
    sources += [induce(trivial_module(E.group, sc.p), E)
                for E in class_representatives(all_subgroups(Dgrp))
                if E.order < Dgrp.order]
    return _dedup_classes([mod for src in sources
                           for mod, _ in decompose(src, run).summands], run)


def module_catalog_all_inductions(sc, side, run):
    """The former catalog loop of green.module_catalog: it induces every
    member of the kD family, projective or not, and keeps the first of each
    class, as (module, is_D_object, is_X_object) sorted by dimension."""
    from greencorr.decompose import (
        decompose, end_info, is_relatively_projective)
    from greencorr.green import (
        _dedup_classes, generating_family_over_D, is_x_object)
    from greencorr.modules import induce, regular_module, trivial_module

    X, d_emb, fam = sc.side(side)
    candidates = [trivial_module(X, sc.p)]
    candidates += [mod for mod, _ in
                   decompose(regular_module(X, sc.p), run).summands]
    for s in generating_family_over_D(sc, run):
        candidates += [mod for mod, _ in
                       decompose(induce(s, d_emb), run).summands]
    out = [(mod, is_relatively_projective(mod, d_emb, run),
            is_x_object(mod, fam, run))
           for mod in _dedup_classes(candidates, run)
           if end_info(mod, run).local]
    return sorted(out, key=lambda t: t[0].dim)


def loop_regular_module(group, p):
    """The former per-element build of modules.regular_module: kG with the
    left multiplication action, one matrix entry at a time."""
    from greencorr.modules import FpModule

    n = group.order
    mats = []
    for g in group.gen_indices:
        A = np.zeros((n, n), dtype=np.int64)
        for h in range(n):
            A[int(group.mult[g, h]), h] = 1
        mats.append(A)
    return FpModule(group, p, mats, name="kG", dim=n)


def loop_permutation_module(group, S, p):
    """The former per-coset build of modules.permutation_module: k[G/S] on
    the left cosets of S."""
    from greencorr.modules import FpModule
    from greencorr.permgroups import coset_lookup

    reps, where = coset_lookup(group, S)
    r = len(reps)
    mats = []
    for g in group.gen_indices:
        A = np.zeros((r, r), dtype=np.int64)
        for i, rep in enumerate(reps):
            A[int(where[group.mult[g, rep]]), i] = 1
        mats.append(A)
    return FpModule(group, p, mats, name=f"k[G/{S.tag or 'S'}]", dim=r)


def loop_induce(M, emb):
    """The former per-coset build of modules.induce: Ind_S^G M as block
    permutation matrices, one (generator, coset) block at a time, with the
    twist looked up through emb.from_ambient."""
    from greencorr.errors import InputError
    from greencorr.modules import FpModule
    from greencorr.permgroups import coset_lookup

    G = emb.ambient
    if not M.group.same_group(emb.group):
        raise InputError("module is not over the subgroup being induced from")
    reps, where = coset_lookup(G, emb)
    r = len(reps)
    d = M.dim
    mats = []
    for a in G.gen_indices:
        A = np.zeros((r * d, r * d), dtype=np.int64)
        for ipos, rep in enumerate(reps):
            t = int(G.mult[a, rep])
            jpos = int(where[t])
            s_amb = int(G.mult[G.inv[reps[jpos]], t])
            s_sub = emb.from_ambient[s_amb]
            if d:
                A[jpos * d:(jpos + 1) * d, ipos * d:(ipos + 1) * d] = \
                    M.element_action(s_sub)
        mats.append(A)
    return FpModule(G, M.p, mats, name=f"Ind({M.name})", check=False,
                    dim=r * d)


def literal_trace_image(M, N, emb):
    """Image of Tr_X^G : Hom_X(Res M, Res N) -> Hom_G(M, N) by the literal
    sum over all left cosets, as (reduced echelon rows, pivots) on flattened
    dim N x dim M maps.

    Hom_X is the kron nullspace on the matrices of every element of X; each
    of its basis maps f is sent to the sum of N(g) f M(g^-1) over one g per
    coset gX, found by walking the multiplication table.
    """
    G, p = M.group, M.p
    X = list(emb.element_indices)
    basis = kron_hom_basis([M.element_action(x) for x in X],
                           [N.element_action(x) for x in X], p)
    reps, seen = [], set()
    for g in range(G.order):
        if g not in seen:
            reps.append(g)
            seen.update(int(G.mult[g, x]) for x in X)
    traces = []
    for f in basis:
        acc = np.zeros((N.dim, M.dim), dtype=np.int64)
        for g in reps:
            acc = (acc + N.element_action(g) @ f
                   @ M.element_action(int(G.inv[g]))) % p
        traces.append(acc.ravel())
    if not traces:
        return np.zeros((0, M.dim * N.dim), dtype=np.int64), []
    return rref_mod(np.stack(traces), p)


# ---------------------------------------------------------------------------
# group multiplication tables
# ---------------------------------------------------------------------------


def element_order_in_table(table: np.ndarray, i: int, identity: int) -> int:
    k, x = 1, i
    while x != identity:
        x = int(table[x, i])
        k += 1
    return k


def table_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    for e in range(n):
        if all(table[e, j] == j and table[j, e] == j for j in range(n)):
            return e
    raise ValueError("multiplication table has no identity")


def tables_isomorphic(t1: np.ndarray, t2: np.ndarray) -> bool:
    """Group isomorphism of multiplication tables.

    Invariant pre-filter (order, element-order histogram), then backtracking
    over generator images.  Intended for orders <= 16.
    """
    n = t1.shape[0]
    if t2.shape[0] != n:
        return False
    e1, e2 = table_identity(t1), table_identity(t2)
    ords1 = [element_order_in_table(t1, i, e1) for i in range(n)]
    ords2 = [element_order_in_table(t2, i, e2) for i in range(n)]
    if sorted(ords1) != sorted(ords2):
        return False

    def close_partial(images: dict[int, int]) -> dict[int, int] | None:
        # close a partial homomorphism under multiplication; None on conflict
        images = dict(images)
        changed = True
        while changed:
            changed = False
            known = list(images.items())
            for a, fa in known:
                for b, fb in known:
                    ab, fab = int(t1[a, b]), int(t2[fa, fb])
                    if ab in images:
                        if images[ab] != fab:
                            return None
                    else:
                        images[ab] = fab
                        changed = True
        vals = list(images.values())
        if len(set(vals)) != len(vals):
            return None
        return images

    # greedy generating sequence for t1
    gens: list[int] = []
    span = {e1}
    for i in range(n):
        if i not in span:
            gens.append(i)
            span = _table_closure(t1, gens, e1)
            if len(span) == n:
                break

    def extend(k: int, images: dict[int, int]) -> bool:
        if k == len(gens):
            return len(images) == n
        g = gens[k]
        for cand in range(n):
            if ords2[cand] != ords1[g] or cand in images.values():
                continue
            nxt = close_partial({**images, g: cand})
            if nxt is not None and extend(k + 1, nxt):
                return True
        return False

    return extend(0, {e1: e2})


def _table_closure(table: np.ndarray, gens: list[int], identity: int) -> set[int]:
    seen = {identity, *gens}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen):
                for c in (int(table[a, b]), int(table[b, a])):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
        frontier = new
    return seen


# ---------------------------------------------------------------------------
# groupoids, one morphism at a time
# ---------------------------------------------------------------------------


class BruteGroupoid:
    """A finite groupoid as plain lists, composed one pair at a time.

    compose(g, f) and inverse(m) are per-morphism callables; out(), hom
    and components() are the dict-of-lists and union-find constructions.
    """

    def __init__(self, objects, msrc, mtgt, ident, compose, inverse):
        self.objects, self.msrc, self.mtgt, self.ident = objects, msrc, mtgt, ident
        self.compose, self.inverse = compose, inverse

    @classmethod
    def of(cls, G):
        """A library groupoid read through its scalar compose/inverse, with
        its composition tabulated pair by pair."""
        msrc, mtgt = [int(s) for s in G.msrc], [int(t) for t in G.mtgt]
        out = _out_lists(len(G.objects), msrc)
        table = {(g, f): G.compose(g, f)
                 for f in range(len(msrc)) for g in out[mtgt[f]]}
        inverse = [G.inverse(m) for m in range(len(msrc))]
        return cls(list(G.objects), msrc, mtgt,
                   [G.identity_morphism(x) for x in range(len(G.objects))],
                   lambda g, f: table[(g, f)], inverse.__getitem__)

    @property
    def n_morphisms(self):
        return len(self.msrc)

    def out(self):
        return _out_lists(len(self.objects), self.msrc)

    @property
    def hom(self):
        """{(x, y): morphisms x -> y in index order}."""
        hom = {}
        for m in range(self.n_morphisms):
            hom.setdefault((self.msrc[m], self.mtgt[m]), []).append(m)
        return hom

    def components(self):
        """[(objects, base, loops)] by union-find, ordered by least object."""
        parent = list(range(len(self.objects)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for s, t in zip(self.msrc, self.mtgt):
            a, b = find(s), find(t)
            if a != b:
                parent[max(a, b)] = min(a, b)
        groups = {}
        for x in range(len(self.objects)):
            groups.setdefault(find(x), []).append(x)
        hom = self.hom
        return [(sorted(groups[r]), r, hom.get((r, r), [])) for r in sorted(groups)]

    def full_subgroupoid(self, objs):
        """(S, mor_of): the full subgroupoid on objs and its morphisms here."""
        objs = sorted(objs)
        sub = {o: k for k, o in enumerate(objs)}
        mor_of = [m for m in range(self.n_morphisms)
                  if self.msrc[m] in sub and self.mtgt[m] in sub]
        mor_sub = {m: k for k, m in enumerate(mor_of)}
        S = BruteGroupoid(
            [self.objects[o] for o in objs],
            [sub[self.msrc[m]] for m in mor_of],
            [sub[self.mtgt[m]] for m in mor_of],
            [mor_sub[self.ident[o]] for o in objs],
            lambda g, f: mor_sub[self.compose(mor_of[g], mor_of[f])],
            lambda m: mor_sub[self.inverse(mor_of[m])])
        return S, mor_of


def _out_lists(n_objects, msrc):
    out = {x: [] for x in range(n_objects)}
    for m, x in enumerate(msrc):
        out[x].append(m)
    return out


class RelabeledGroupoid(FiniteGroupoid):
    """A view of the groupoid A with its objects and morphisms renumbered by
    seeded random permutations q and m, so that its morphism sources are no
    longer sorted: object o of A is q[o] here, and morphism f is m[f]."""

    def __init__(self, A, rng):
        q, m = rng.permutation(A.n_objects), rng.permutation(A.n_morphisms)
        objects = [None] * A.n_objects
        for o, lab in enumerate(A.objects):
            objects[q[o]] = lab
        msrc, mtgt, ident = (np.empty_like(a) for a in (A.msrc, A.mtgt, A.ident))
        msrc[m], mtgt[m], ident[q] = q[A.msrc], q[A.mtgt], m[A.ident]
        super().__init__(objects, msrc, mtgt, ident, f"relabeled({A.name})")
        self.A, self.q, self.m, self._m_inv = A, q, m, np.argsort(m)

    def _compose(self, g, f):
        return self.m[self.A._compose(self._m_inv[g], self._m_inv[f])]

    def _inverse(self):
        return self.m[self.A.inv[self._m_inv]]


def brute_isocomma(i, u):
    """(i/u) built triple by triple and pair by pair.

    Objects (x, y, g) are listed in key order; the morphisms out of each
    are the pairs (a, b) over out(x) × out(y), a-major.  Also returns, per
    morphism, its (source object, a, b), and the object index dict.
    """
    A, B = BruteGroupoid.of(i.domain), BruteGroupoid.of(u.domain)
    C = BruteGroupoid.of(i.codomain)
    hom_c = C.hom
    labels = [(x, y, g)
              for x in range(len(A.objects)) for y in range(len(B.objects))
              for g in hom_c.get((i.obj(x), u.obj(y)), [])]
    obj_index = {lab: k for k, lab in enumerate(labels)}
    out_a, out_b = A.out(), B.out()
    pos_a = {a: k for ms in out_a.values() for k, a in enumerate(ms)}
    pos_b = {b: k for ms in out_b.values() for k, b in enumerate(ms)}
    offsets, parts, mtgt = [], [], []
    for o, (x, y, g) in enumerate(labels):
        offsets.append(len(parts))
        for a in out_a[x]:
            ia_inv = C.inverse(i.mor(a))
            for b in out_b[y]:
                parts.append((o, a, b))
                gp = C.compose(C.compose(u.mor(b), g), ia_inv)
                mtgt.append(obj_index[(A.mtgt[a], B.mtgt[b], gp)])

    def index(o, a, b):
        return offsets[o] + pos_a[a] * len(out_b[labels[o][1]]) + pos_b[b]

    def compose(g2, f1):
        o, a1, b1 = parts[f1]
        _, a2, b2 = parts[g2]
        return index(o, A.compose(a2, a1), B.compose(b2, b1))

    def inverse(m):
        _, a, b = parts[m]
        return index(mtgt[m], A.inverse(a), B.inverse(b))

    ident = [index(o, A.ident[x], B.ident[y]) for o, (x, y, _) in enumerate(labels)]
    P = BruteGroupoid(labels, [o for o, _, _ in parts], mtgt, ident, compose, inverse)
    return P, parts, obj_index


class SpanIsocomma:
    """The isocomma (i/u) as the general construction builds it for legs of
    any number of objects: the hom-set spans of every pair (x, y) list the
    objects, and the out-lists of x and y the morphisms.  Only its arrays
    are kept; ``groupoid`` is a plain FiniteGroupoid on them, whose
    out-lists, hom ranks and components come from the sorting code of the
    base class."""

    def __init__(self, i, u):
        from greencorr.groupoids import FiniteGroupoid, _spans

        A, B, C = i.domain, u.domain, i.codomain
        self.A, self.B = A, B
        pairs = np.arange(A.n_objects * B.n_objects, dtype=np.int32)
        pair_x, pair_y = np.divmod(pairs, B.n_objects)
        lo, hi = C._hom_bounds(i.obj_map[pair_x], u.obj_map[pair_y])
        count = hi - lo
        self.pair_start = (np.cumsum(count) - count).astype(np.int32)
        k, r = _spans(count)
        self.x, self.y = pair_x[k], pair_y[k]
        self.g = C._hom_sorted[1][lo[k] + r].astype(np.int32)
        self.deg_b = B._out_deg[self.y].astype(np.int32)
        block = A._out_deg[self.x] * self.deg_b
        self.offsets = (np.cumsum(block) - block).astype(np.int32)
        o, r = _spans(block)
        q, r = np.divmod(r, self.deg_b[o])
        self.m_a = A._out_sorted[A._out_start[self.x[o]] + q]
        self.m_b = B._out_sorted[B._out_start[self.y[o]] + r]
        g_tgt = C._compose(C._compose(u.mor_map[self.m_b], self.g[o]),
                           C.inv[i.mor_map[self.m_a]])
        mtgt = (self.pair_start[A.mtgt[self.m_a] * B.n_objects + B.mtgt[self.m_b]]
                + C.hom_rank[g_tgt])
        ident = self.morphism_index(np.arange(len(self.x)), A.ident[self.x],
                                    B.ident[self.y])
        self.groupoid = FiniteGroupoid(
            zip(self.x.tolist(), self.y.tolist(), self.g.tolist()), o, mtgt, ident)

    def morphism_index(self, o, a, b):
        index = self.A.out_pos[a] * self.deg_b[o]
        index += self.offsets[o]
        index += self.B.out_pos[b]
        return index


def _same_array(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert np.array_equal(got, want), what


def assert_matches_span_construction(iso):
    """Every array of the library isocomma iso is bit-identical, dtype
    included, to the general construction of the same cospan: objects,
    morphisms, out-lists, hom ranks, components, the index lookups and the
    two projections."""
    ref = SpanIsocomma(iso.left, iso.right)
    P, R = iso.groupoid, ref.groupoid
    for attr in ("x", "y", "g", "pair_start", "m_a", "m_b", "offsets", "deg_b"):
        _same_array(getattr(P, attr), getattr(ref, attr), attr)
    for attr in ("msrc", "mtgt", "ident", "_out_deg", "_out_sorted",
                 "_out_start", "out_pos", "hom_rank"):
        _same_array(getattr(P, attr), getattr(R, attr), attr)
    assert P.objects == R.objects
    assert [(c.objects, c.base, c.loops) for c in P.components] == \
        [(c.objects, c.base, c.loops) for c in R.components]
    n = R.n_objects
    want = np.full(n, -1, dtype=np.int32)
    want[[c.base for c in R.components]] = np.arange(len(R.components))
    _same_array(P.component_of(), want[R._base], "component_of")
    _same_array(iso.object_index(ref.x, ref.y, ref.g),
                np.arange(n, dtype=np.int32), "object_index")
    _same_array(iso.morphism_index(R.msrc, ref.m_a, ref.m_b),
                np.arange(R.n_morphisms, dtype=np.int32), "morphism_index")
    for F, leg, obj, mor in ((iso.pr1, iso.left, ref.x, ref.m_a),
                             (iso.pr2, iso.right, ref.y, ref.m_b)):
        assert F.domain is P and F.codomain is leg.domain
        _same_array(F.obj_map, obj, "projection objects")
        _same_array(F.mor_map, mor, "projection morphisms")


def sweep_bridge_groups(seed):
    """{name: (G, all subgroups of G)}: the bridge groups of one
    groupoid_sweep benchmark job, with their points relabeled by
    ``perfbench/workloads.groupoid_setup(seed)``."""
    return _bench_workloads().groupoid_setup(seed, None)["bridge"]


def _bench_workloads():
    """The module ``perfbench/workloads.py``."""
    import importlib
    import sys
    from pathlib import Path

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(bench))


def key_object_index(iso, x, y, g):
    """Index of the isocomma object (x, y, g) by a binary search of its key
    (x * nB + y) * nC + g among the keys of all objects, which ascend in
    object order; KeyError when there is none."""
    P = iso.groupoid
    nb, nc = iso.right.domain.n_objects, iso.left.codomain.n_morphisms
    keys = (P.x.astype(np.int64) * nb + P.y) * nc + P.g
    assert (np.diff(keys) > 0).all()
    key = (np.asarray(x, dtype=np.int64) * nb + y) * nc + g
    pos = np.searchsorted(keys, key)
    if not len(keys) or (keys[np.minimum(pos, len(keys) - 1)] != key).any():
        raise KeyError("no such isocomma object")
    return pos


def _raises_key_error(f, *args):
    try:
        f(*args)
    except KeyError:
        return True
    return False


def assert_object_index_agrees(iso, scalars=64):
    """iso.object_index agrees with key_object_index on every triple
    (x, y, g) of the legs' objects and a morphism of their codomain: on the
    triples that are objects, as one shuffled array and for up to
    ``scalars`` of them one at a time, and elsewhere by a KeyError from both,
    for single triples and for an array holding one of them."""
    A, B, C = iso.left.domain, iso.right.domain, iso.left.codomain
    x, y, g = (t.ravel() for t in np.meshgrid(
        np.arange(A.n_objects), np.arange(B.n_objects),
        np.arange(C.n_morphisms), indexing="ij"))
    inside = ((C.msrc[g] == iso.left.obj_map[x])
              & (C.mtgt[g] == iso.right.obj_map[y]))
    assert np.count_nonzero(inside) == iso.groupoid.n_objects
    objs = np.random.default_rng(0).permutation(np.flatnonzero(inside))
    got = iso.object_index(x[objs], y[objs], g[objs])
    assert got.tolist() == key_object_index(iso, x[objs], y[objs], g[objs]).tolist()
    for k in objs[:scalars].tolist():
        assert iso.object_index(int(x[k]), int(y[k]), int(g[k])) == \
            key_object_index(iso, int(x[k]), int(y[k]), int(g[k]))
    outside = np.flatnonzero(~inside)
    for k in outside[:scalars].tolist():
        assert _raises_key_error(iso.object_index, int(x[k]), int(y[k]), int(g[k]))
        assert _raises_key_error(key_object_index, iso, int(x[k]), int(y[k]),
                                 int(g[k]))
    if len(outside):
        mixed = np.append(objs[:3], outside[0])
        assert _raises_key_error(iso.object_index, x[mixed], y[mixed], g[mixed])


def brute_partial(i, iota_e, iota_f):
    """The boundary of (E/F/G) relative to (E/F/H) from the brute isocommas:
    (boundary, its objects in the ambient, its morphisms in the ambient)."""
    from greencorr.groupoids import compose_functors

    inner, _, _ = brute_isocomma(iota_e, iota_f)
    ambient, _, amb_index = brute_isocomma(compose_functors(i, iota_e),
                                           compose_functors(i, iota_f))
    hit = {amb_index[(x, y, i.mor(h))] for x, y, h in inner.objects}
    objs = [o for comp, _, _ in ambient.components()
            if not hit.intersection(comp) for o in comp]
    boundary, mor_of = ambient.full_subgroupoid(objs)
    return boundary, sorted(objs), mor_of


# assert_same_groupoid composes one pair at a time in Python, about 2 s per
# million pairs; property tests keep to groupoids with at most this many
# composable pairs
ORACLE_PAIRS = 100_000


def assert_same_groupoid(G, brute):
    """G (a library groupoid) equals the brute one: objects, endpoints,
    identities, inverses, composition on every composable pair, and
    components with their loops."""
    n = brute.n_morphisms
    assert G.objects == brute.objects
    assert G.msrc.tolist() == brute.msrc
    assert G.mtgt.tolist() == brute.mtgt
    assert G.ident.tolist() == brute.ident
    assert G.inv.tolist() == [brute.inverse(m) for m in range(n)]
    out = brute.out()
    pairs = [(g, f) for f in range(n) for g in out[brute.mtgt[f]]]
    g, f = (list(c) for c in zip(*pairs)) if pairs else ([], [])
    assert G.compose_many(g, f).tolist() == [brute.compose(*gf) for gf in pairs]
    assert [(c.objects, c.base, c.loops) for c in G.components] == \
        brute.components()
