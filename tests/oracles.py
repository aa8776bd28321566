"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and separate from the package code:
dict-of-permutation groups, direct triple enumeration for isocommas,
kronecker-product nullspaces for hom spaces, exhaustive idempotent search
for decompositions.
"""

from itertools import product

import numpy as np


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
