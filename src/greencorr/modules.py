"""Modules over group algebras kG with k = GF(p).

An FpModule is one invertible matrix per group generator; matrices for
arbitrary elements are filled on demand by walking the Cayley-graph spanning
tree recorded at group closure.  Vectors are columns and representations are
left actions, so rho(gh) = rho(g) rho(h).

One spin, _SpinData, serves hom spaces and submodules: it spins orbits from
start vectors, and keeps its span as fully reduced rows, so that a vector's
remainder is read off at the pivots.  hom_space spins M from the standard
basis: images of the seeds are the unknowns, and the leftover Cayley edges
contribute the linear constraints.  This keeps the system at (number of
seeds) * dim(N) unknowns instead of dim(M) * dim(N).  submodule_from_vectors
spins from the given vectors and reads its actions at the pivots.

induce owns the coset-block basis of Ind_S^G M: one block of dim(M) indices
per left coset of S, in the order of the least coset representatives, so
block 0 is the identity coset.  The regular module kG and the permutation
modules k[G/S] are the inductions of the trivial module k from 1 and from S.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InputError
from .linalg import as_fp, mat_inv, mat_mul
from .permgroups import (
    PermGroup,
    SubgroupEmbedding,
    coset_lookup,
    json_integer,
    require_prime,
    trivial_subgroup,
)


class FpModule:
    def __init__(self, group: PermGroup, p: int, action, name: str = "M",
                 check: bool = True, dim: int | None = None):
        self.group = group
        self.p = p
        self.action = [as_fp(a, p) for a in action]
        if len(self.action) != len(group.generators):
            raise InputError("need exactly one action matrix per generator")
        if self.action:
            self.dim = int(self.action[0].shape[0])
        elif dim is not None:
            self.dim = int(dim)
        else:
            raise InputError("modules over a generator-free group need an explicit dim")
        for a in self.action:
            if a.shape != (self.dim, self.dim):
                raise InputError("action matrices must be square of equal size")
        self.name = name
        self._elem_cache: dict[int, np.ndarray] = {
            group.identity: np.eye(self.dim, dtype=np.int64)}
        # write-once conjugation invariants, see generator_traces
        self._traces: tuple[int, ...] | None = None
        self._moved_ranks: tuple[int, ...] | None = None
        if check and self.dim:
            for a in self.action:
                if linalg.rank(a, p) != self.dim:
                    raise InputError("action matrix is singular mod p")

    def element_action(self, idx: int) -> np.ndarray:
        """Matrix of the group element with the given index, memoized.

        The recursion follows the closure spanning tree, so each matrix is a
        fixed product of generator matrices: a write-once memo table.
        """
        cached = self._elem_cache.get(idx)
        if cached is not None:
            return cached
        parent, gpos = self.group.factor_of[idx]
        mat = (self.element_action(parent) @ self.action[gpos]) % self.p
        self._elem_cache[idx] = mat
        return mat

    def generator_traces(self) -> tuple[int, ...]:
        """The trace mod p of each generator action, computed once.  It is
        invariant under conjugation, so isomorphic modules agree on it."""
        if self._traces is None:
            self._traces = tuple(int(np.trace(a)) % self.p for a in self.action)
        return self._traces

    def generator_moved_ranks(self) -> tuple[int, ...]:
        """rank((a - I) mod p) of each generator action a, computed once;
        invariant under conjugation like ``generator_traces``."""
        if self._moved_ranks is None:
            eye = np.eye(self.dim, dtype=np.int64)
            self._moved_ranks = tuple(linalg.rank(a - eye, self.p)
                                      for a in self.action)
        return self._moved_ranks

    def fingerprint(self) -> bytes:
        stacked = np.concatenate([a.ravel() for a in self.action]) if self.action \
            else np.zeros(0, dtype=np.int64)
        return (f"{self.p}:{self.dim}:".encode() + self.group.fingerprint
                + stacked.tobytes())

    def __repr__(self) -> str:
        return f"FpModule({self.name}, p={self.p}, dim={self.dim})"


def same_context(M: FpModule, N: FpModule) -> None:
    if M.p != N.p:
        raise InputError("modules live over different primes")
    if not M.group.same_group(N.group):
        raise InputError("modules live over different groups")
    if M.group is not N.group and M.group.generators != N.group.generators:
        # hom conditions pair generator matrices positionally, so the two
        # groups must agree on the generating sequence, not just the elements
        raise InputError("modules use different generating sequences")


def trivial_module(group: PermGroup, p: int) -> FpModule:
    return FpModule(group, p, [np.eye(1, dtype=np.int64)
                               for _ in group.generators], name="k", dim=1)


def regular_module(group: PermGroup, p: int) -> FpModule:
    """kG = Ind_1^G k: the left multiplication action on the elements."""
    one = trivial_subgroup(group)
    kG = induce(trivial_module(one.group, p), one)
    kG.name = "kG"
    return kG


def permutation_module(group: PermGroup, S: SubgroupEmbedding, p: int) -> FpModule:
    """k[G/S] = Ind_S^G k on the left cosets of S, with G = S.ambient."""
    kGS = induce(trivial_module(S.group, p), S)
    kGS.name = f"k[G/{S.tag or 'S'}]"
    return kGS


def direct_sum(M: FpModule, N: FpModule, name: str = "") -> FpModule:
    same_context(M, N)
    mats = []
    for a, b in zip(M.action, N.action):
        blk = np.zeros((M.dim + N.dim, M.dim + N.dim), dtype=np.int64)
        blk[:M.dim, :M.dim] = a
        blk[M.dim:, M.dim:] = b
        mats.append(blk)
    return FpModule(M.group, M.p, mats, name=name or f"{M.name}⊕{N.name}",
                    dim=M.dim + N.dim)


def submodule_from_vectors(M: FpModule, vectors: list[np.ndarray],
                           name: str = "sub") -> FpModule:
    """The submodule spanned by the given vectors, as a module in the reduced
    echelon basis B of its span.  The spin closes the span under every
    generator, and a vector of the span has its B-coordinates at the pivots,
    so a generator A acts on B by the rows of A @ B.T at the pivots."""
    spin = _SpinData(M.action, M.dim, M.p, [as_fp(v, M.p) for v in vectors])
    B, pivots = spin.reduced_span()
    mats = [(A[pivots] @ B.T) % M.p for A in M.action]
    return FpModule(M.group, M.p, mats, name=name, dim=len(pivots))


def random_module(group: PermGroup, p: int, max_dim: int,
                  rng: np.random.Generator, pool: list[FpModule] | None = None
                  ) -> FpModule:
    """A random module of dimension <= max_dim, found as a random spun
    submodule of permutation-style modules (so relations always hold), in at
    most 200 draws."""
    if pool is None:
        pool = _default_pool(group, p)
    for _ in range(200):
        X = pool[int(rng.integers(len(pool)))]
        if int(rng.integers(2)) and X.dim <= 24:
            Y = pool[int(rng.integers(len(pool)))]
            X = direct_sum(X, Y)
        v = rng.integers(0, p, size=X.dim).astype(np.int64)
        if not v.any():
            continue
        S = submodule_from_vectors(X, [v], name="rand")
        if 1 <= S.dim <= max_dim:
            return S
    raise InputError("failed to sample a small module; widen max_dim")


def _default_pool(group: PermGroup, p: int) -> list[FpModule]:
    pool = [trivial_module(group, p)]
    seen = set()
    for g in list(group.gen_indices) + [
            int(group.mult[a, b]) for a in group.gen_indices
            for b in group.gen_indices]:
        S = group.subgroup_closure({g})
        if S in seen:
            continue
        seen.add(S)
        emb = SubgroupEmbedding(group, tuple(S), tag=f"<{g}>")
        if group.order // emb.order <= 30:
            pool.append(permutation_module(group, emb, p))
    if group.order <= 30:
        pool.append(regular_module(group, p))
    return pool


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------


class _SpinData:
    """Spin of start vectors (the standard basis by default) under the
    generator action: the standard-basis method of the Meat-Axe (R. A.
    Parker, 1984).  Each start outside the span seeds an orbit, spun breadth
    first before the next start is taken, so orbit k is the run
    seeds[k] <= t < seeds[k + 1] of the spin order.

    seeds: indices (into the spin order) of the vectors that started orbits.
    prov: per spin vector, (parent_spin_index, generator_pos) or None for seeds.
    edges: leftover (spin_index, generator_pos) pairs that close up and hence
    contribute constraints.
    basis: row t = spin vector w_t; dim x dim when the starts span the space.

    The span is kept as fully reduced rows in one preallocated array, each 1
    at its own pivot and 0 at the others' pivots, so a vector w has the
    remainder w - w[pivots] @ rows, read off at the pivots.
    """

    def __init__(self, action: list[np.ndarray], dim: int, p: int,
                 starts: list[np.ndarray] | None = None):
        self.p, self.rank = p, 0
        self._rows = np.zeros((dim, dim), dtype=np.int64)
        self._pivots = np.zeros(dim, dtype=np.intp)
        basis = np.zeros((dim, dim), dtype=np.int64)
        self.seeds: list[int] = []
        self.prov: list[tuple[int, int] | None] = []
        self.edges: list[tuple[int, int]] = []
        if starts is None:
            starts = (np.eye(1, dim, j, dtype=np.int64)[0] for j in range(dim))
        for v in starts:
            if self.rank == dim:
                break
            if not self._grow(v):
                continue
            s = self.rank - 1
            self.seeds.append(s)
            self.prov.append(None)
            basis[s] = v
            while s < self.rank:
                for gpos, A in enumerate(action):
                    w = (A @ basis[s]) % p
                    if self._grow(w):
                        self.prov.append((s, gpos))
                        basis[self.rank - 1] = w
                    else:
                        self.edges.append((s, gpos))
                s += 1
        self.basis = basis[:self.rank]

    def _grow(self, v: np.ndarray) -> bool:
        """Whether v lies outside the span; if so, its normalized remainder
        becomes a new row, and is cleared from the other rows at its pivot."""
        p, rows = self.p, self._rows[:self.rank]
        w = (v - v[self._pivots[:self.rank]] @ rows) % p
        nz = w.nonzero()[0]
        if not nz.size:
            return False
        c = nz[0]
        w = w * linalg.inv_mod(int(w[c]), p) % p
        rows -= np.outer(rows[:, c], w)
        rows %= p
        self._rows[self.rank] = w
        self._pivots[self.rank] = c
        self.rank += 1
        return True

    def reduced_span(self) -> tuple[np.ndarray, np.ndarray]:
        """The span's reduced echelon basis, the rows in pivot order, with
        its pivot columns."""
        order = np.argsort(self._pivots[:self.rank])
        return self._rows[order], self._pivots[order]


def hom_space_from_actions(action_m: list[np.ndarray], dim_m: int,
                           action_n: list[np.ndarray], dim_n: int,
                           p: int) -> list[np.ndarray]:
    """hom_space core working on raw generator matrices."""
    if dim_m == 0 or dim_n == 0:
        return []
    spin = _SpinData(action_m, dim_m, p)
    r = len(spin.seeds)
    dN, dM = dim_n, dim_m
    u = r * dN

    # y_t = W[t] @ x_{block(t)}: each spin vector's operator is supported on
    # the dN-block of the seed that started its orbit
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

    # W and ibt are operands of every batch below: float64, the form that
    # mat_mul multiplies in, converted once
    W = W.astype(np.float64)
    ibt = mat_inv(spin.basis.T, p).astype(np.float64)

    # the edge constraints, one batch of edges at a time, fold into a
    # running reduced echelon basis R of the constraint rows
    R, pivots = np.zeros((0, u), dtype=np.int64), []
    for batch in linalg.batches(len(spin.edges)):
        rows = _edge_constraints(spin, batch, ibt, W, block, action_m,
                                 action_n, p)
        if len(rows):
            R, pivots = linalg._rref_in_place(np.concatenate([R, rows]), p)
    sols = linalg._kernel_of_rref(R, pivots, u, p)

    if sols.shape[0] == 0:
        return []
    nsol = sols.shape[0]
    sol_blocks = sols.reshape(nsol, r, dN)
    W_T = W.transpose(0, 2, 1)
    flat = np.empty((nsol, dN * dM), dtype=np.int64)
    for batch in linalg.batches(nsol):
        x = sol_blocks[batch][:, block, :].transpose(1, 0, 2)
        Y = mat_mul(x, W_T, p)  # Y[t, k] = W[t] @ x_k, the image of w_t
        # F_k = Y_k^T @ ibt, all k of the batch in one product
        F = mat_mul(Y.reshape(dM, -1).T, ibt, p)
        flat[batch] = F.reshape(-1, dN * dM)
    basis, _ = linalg._rref_in_place(flat, p)
    return [row.reshape(dN, dM) for row in basis]


def _edge_constraints(spin: _SpinData, batch: slice, ibt: np.ndarray,
                      W: np.ndarray, block: np.ndarray,
                      action_m: list[np.ndarray], action_n: list[np.ndarray],
                      p: int) -> np.ndarray:
    """The nonzero constraint rows, over the r * dN unknowns (r seeds), of
    the Cayley edges (s, g) in spin.edges[batch]: A_g w_s, written in the
    spin basis and mapped through the operators W, must equal
    action_n[g] @ W[s] applied to the unknowns of the block of s.  ibt and
    W are float64 residues, as mat_mul takes them."""
    edges = spin.edges[batch]
    r, dN = len(spin.seeds), W.shape[1]
    ne, u = len(edges), r * dN
    vecs = np.stack([(action_m[g] @ spin.basis[s]) % p for s, g in edges])
    coords = mat_mul(vecs, ibt.T, p)  # row e: coordinates of A_g w_s
    combos = np.zeros((ne, dN, u), dtype=np.int64)
    orbits = [*spin.seeds, len(W)]
    for k in range(r):
        lo, hi = orbits[k], orbits[k + 1]
        combos[:, :, k * dN:(k + 1) * dN] = mat_mul(
            coords[:, lo:hi], W[lo:hi].reshape(-1, dN * dN),
            p).reshape(ne, dN, dN)
    for e, (s, g) in enumerate(edges):
        kb = int(block[s])
        seg = combos[e, :, kb * dN:(kb + 1) * dN]
        combos[e, :, kb * dN:(kb + 1) * dN] = (
            seg - (action_n[g] @ W[s].astype(np.int64))) % p
    rows = combos.reshape(-1, u)
    return rows[rows.any(axis=1)]


def hom_space(M: FpModule, N: FpModule) -> list[np.ndarray]:
    """Basis of Hom_kG(M, N) = {F : F rho_M(g) = rho_N(g) F for all generators}.

    Returned matrices are dim(N) x dim(M), acting on column vectors, and the
    basis is canonical: reduced echelon form on the row-major vectorizations.
    """
    same_context(M, N)
    return hom_space_from_actions(M.action, M.dim, N.action, N.dim, M.p)


# ---------------------------------------------------------------------------
# induction, restriction, conjugation
# ---------------------------------------------------------------------------


def induce(M: FpModule, emb: SubgroupEmbedding) -> FpModule:
    """Ind_S^G M in the coset-block basis; dimension [G:S] * dim M.

    Block i spans the indices [i*dim(M), (i+1)*dim(M)) of the i-th least
    left coset representative rep_i.  A generator g carries block i to block
    j, the coset of g rep_i, through the twist rep_j^-1 g rep_i of S: every
    (generator, coset) pair is gathered at once, and element_action runs
    only for the twists that occur.
    """
    G = emb.ambient
    if not M.group.same_group(emb.group):
        raise InputError("module is not over the subgroup being induced from")
    reps, where = coset_lookup(G, emb)
    reps = np.array(reps, dtype=np.intp)
    r, d, k = len(reps), M.dim, len(G.gen_indices)
    moved = G.mult[np.array(G.gen_indices, dtype=np.intp)[:, None], reps]
    target = where[moved]
    # to_ambient is increasing, so a twist's index in S is its rank among
    # the sorted element indices
    twist = np.searchsorted(emb.element_indices,
                            G.mult[G.inv[reps[target]], moved])
    blocks = np.zeros((emb.order, d, d), dtype=np.int64)
    for s in set(twist.ravel().tolist()):
        blocks[s] = M.element_action(s)
    mats = np.zeros((k, r, d, r, d), dtype=np.int64)
    mats[np.arange(k)[:, None], target, :, np.arange(r), :] = blocks[twist]
    return FpModule(G, M.p, list(mats.reshape(k, r * d, r * d)),
                    name=f"Ind({M.name})", check=False, dim=r * d)


def restrict(M: FpModule, emb: SubgroupEmbedding, name: str = "") -> FpModule:
    """Res_S^G M: the same space with the subgroup's generators acting."""
    if not M.group.same_group(emb.ambient):
        raise InputError("restriction target is not a subgroup of the module's group")
    mats = [M.element_action(emb.to_ambient[g])
            for g in emb.group.gen_indices]
    return FpModule(emb.group, M.p, mats, name=name or f"Res({M.name})",
                    check=False, dim=M.dim)


def conjugate_module(M: FpModule, emb: SubgroupEmbedding, g: int,
                     target: SubgroupEmbedding | None = None) -> tuple[FpModule, SubgroupEmbedding]:
    """conj_g M over gDg^-1 for M over D; action x -> rho(g^-1 x g)."""
    G = emb.ambient
    if not M.group.same_group(emb.group):
        raise InputError("module is not over the subgroup being conjugated")
    if target is None:
        target = emb.conjugated(g, tag=f"^g{emb.tag or 'D'}")
    ginv = int(G.inv[g])
    mats = []
    for x in target.group.gen_indices:
        amb = target.to_ambient[x]
        back = int(G.mult[G.mult[ginv, amb], g])
        mats.append(M.element_action(emb.from_ambient[back]))
    return (FpModule(target.group, M.p, mats, name=f"c_g({M.name})",
                     check=False, dim=M.dim), target)


# ---------------------------------------------------------------------------
# the two adjunctions, as explicit matrices
# ---------------------------------------------------------------------------


def counit_ind_res(N: FpModule, emb: SubgroupEmbedding) -> np.ndarray:
    """epsilon : Ind_S Res_S N -> N, g_i ⊗ n -> g_i . n (counit of Ind -| Res)."""
    reps, _ = coset_lookup(N.group, emb)
    blocks = [N.element_action(rep) for rep in reps]
    return np.concatenate(blocks, axis=1) % N.p


def unit_res_ind(N: FpModule, emb: SubgroupEmbedding) -> np.ndarray:
    """eta : N -> Ind_S Res_S N, n -> sum_i g_i ⊗ g_i^-1 n (unit of Res -| Ind)."""
    G = N.group
    reps, _ = coset_lookup(G, emb)
    blocks = [N.element_action(int(G.inv[rep])) for rep in reps]
    return np.concatenate(blocks, axis=0) % N.p


def unit_ind_res_on_base(M: FpModule, emb: SubgroupEmbedding) -> np.ndarray:
    """eta : M -> Res_S Ind_S M, inclusion at the identity coset block, which
    is block 0: the identity is element 0, the least of its coset."""
    d = M.dim
    return np.eye(emb.ambient.order // emb.order * d, d, dtype=np.int64)


def counit_res_ind_on_base(M: FpModule, emb: SubgroupEmbedding) -> np.ndarray:
    """epsilon : Res_S Ind_S M -> M, projection onto the identity coset
    block, block 0."""
    d = M.dim
    return np.eye(d, emb.ambient.order // emb.order * d, dtype=np.int64)


def cohomological_composite(N: FpModule, emb: SubgroupEmbedding) -> np.ndarray:
    """epsilon ∘ eta : N -> Ind Res N -> N; must equal [G:S] * id exactly."""
    return (counit_ind_res(N, emb) @ unit_res_ind(N, emb)) % N.p


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def module_to_json(M: FpModule) -> dict:
    return {
        "p": M.p,
        "group_ref": {
            "degree": M.group.degree,
            "generators": [list(g) for g in M.group.generators],
        },
        "dim": M.dim,
        "action": {
            str(i): [int(v) for v in a.ravel()] for i, a in enumerate(M.action)
        },
    }


def module_from_json(doc: dict) -> FpModule:
    """The module that ``module_to_json`` wrote; InputError unless every
    number is a JSON integer, p is prime, dim * (p - 1)^2 < 2^63 so that
    the int64 products of the relation check are exact, and the matrices
    are a representation."""
    p = json_integer(doc["p"], "p")
    require_prime(p)
    ref = doc["group_ref"]
    group = PermGroup(json_integer(ref["degree"], "degree"),
                      [tuple(g) for g in ref["generators"]])
    d = json_integer(doc["dim"], "dim")
    if d * (p - 1) ** 2 >= 2 ** 63:
        raise InputError(f"p = {p} is too large for exact products of a "
                         f"{d}-dimensional module (dim * (p - 1)^2 must "
                         "stay below 2^63)")
    mats = []
    for i in range(len(group.generators)):
        flat = doc["action"][str(i)]
        if len(flat) != d * d:
            raise InputError("action entry count does not match dim^2")
        entries = [json_integer(v, f"an entry of action {i}") for v in flat]
        mats.append(np.array(entries, dtype=np.int64).reshape(d, d) % p)
    M = FpModule(group, p, mats, name="loaded")
    # element_action follows the spanning tree, so rho(h) rho(g) = rho(hg)
    # for every element h and generator g checks the group's relations
    acts = np.stack([M.element_action(h) for h in range(group.order)])
    for pos, g in enumerate(group.gen_indices):
        if ((acts @ M.action[pos]) % p != acts[group.mult[:, g]]).any():
            raise InputError("the action matrices break the group's relations")
    return M
