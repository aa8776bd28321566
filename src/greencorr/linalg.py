"""Exact dense linear algebra over the prime field GF(p).

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
routines are deterministic; bases coming out of nullspace/row-space
computations are in reduced row echelon form.  There is no incremental span
class: the module spin keeps its own reduced rows (modules._SpinData).

Products run in float64 BLAS while they are exact there, which
``exact_in_float64(inner, m)`` decides for the modulus m that the product is
reduced by: ``mat_mul`` raises past that bound for its p, and ``mat_pow``
checks it for the modulus it is given (p * q in the radical's trace levels,
which need not be prime) and squares in int64 past it.

``rref`` reduces its own copy of the input through ``_rref_in_place``.  That
routine is for arrays their caller has just built and will not read again:
it takes a writable 2-d int64 array of residues in [0, p), overwrites it with
its reduced echelon form, and returns (A[:rank], pivot columns), so the
echelon rows are a view of the caller's array.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def as_fp(a, p: int) -> np.ndarray:
    """A fresh C-ordered int64 array of the residues of a mod p, whatever
    the memory order of a, so that rows of a transpose are contiguous."""
    return np.remainder(np.asarray(a, dtype=np.int64), p, order="C")


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod p")
    return pow(a, p - 2, p)


# callers multiply long stacks this many matrices at a time, so that the
# float64 temporaries of mat_mul stay small
_BATCH = 32


def batches(n: int) -> list[slice]:
    """Slices that cut range(n) into runs of at most _BATCH."""
    return [slice(i, i + _BATCH) for i in range(0, n, _BATCH)]


def exact_in_float64(inner: int, m: int) -> bool:
    """Whether float64 products of residues mod m with this inner length are
    exact: float64 holds every integer below 2^53, and each entry of the
    product is at most inner * (m - 1)^2 before its reduction."""
    return inner * (m - 1) ** 2 < 2 ** 53


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for arrays of residues in [0, p), with matmul broadcasting.

    The product runs in float64 BLAS, which holds every integer below 2^53
    exactly; so it is exact while inner length * (p - 1)^2 < 2^53, the
    delayed reduction of Dumas, Giorgi & Pernet (ACM TOMS 35(3), 2008).
    Raises InputError when that bound fails.  An operand already in float64
    is used as it is, so a caller that multiplies by the same matrix many
    times converts it once.
    """
    inner = a.shape[-1]
    if not exact_in_float64(inner, p):
        raise InputError(f"p = {p} is too large for exact products of "
                         f"length {inner} (inner length * (p - 1)^2 must "
                         "stay below 2^53)")
    return _reduced_product(a.astype(np.float64, copy=False),
                            b.astype(np.float64, copy=False),
                            p).astype(np.int64)


def _reduced_product(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """(a @ b) mod m in the dtype of a and b, for residues in [0, m)."""
    out = np.matmul(a, b)
    np.fmod(out, m, out=out)  # the product of residues is not negative
    return out


def mat_pow(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """a^k mod p, for a square matrix or a stack of them; a^0 is one
    identity matrix.

    p is any modulus.  The squarings keep float64 residues while
    n * (p - 1)^2 < 2^53 for this p (see exact_in_float64), and run in
    int64 past that bound.
    """
    n = a.shape[-1]
    if k == 0:
        return np.eye(n, dtype=np.int64)
    base = a % p
    if exact_in_float64(n, p):
        base = base.astype(np.float64)
    out = None
    while True:
        if k & 1:
            out = base if out is None else _reduced_product(out, base, p)
        k >>= 1
        if not k:
            return out.astype(np.int64, copy=False)
        base = _reduced_product(base, base, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    A = as_fp(a, p)  # a fresh array, which the reduction overwrites
    if A.ndim != 2:
        raise InputError("rref expects a 2-d array")
    return _rref_in_place(A, p)


def _rref_in_place(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Overwrite A, a writable 2-d int64 array of residues in [0, p), with
    its reduced row echelon form; returns (A[:rank], pivot columns).

    Column c is scanned once: its nonzero rows from r on hold the pivot, and
    the others are the rows that the pivot row clears.
    """
    m, n = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = A[:, c].nonzero()[0]
        k = int(nz.searchsorted(r))
        if k == nz.size:
            continue
        piv = int(nz[k])
        if piv != r:
            # row r is zero in column c, so after the swap the nonzero rows
            # are those of nz with r in the place of piv
            A[[r, piv]] = A[[piv, r]]
            nz[k] = r
        lead = int(A[r, c])
        if lead != 1:
            A[r] = (A[r] * inv_mod(lead, p)) % p
        if nz.size > 1:
            f = A[nz, c]
            f[k] = 0
            A[nz] = (A[nz] - f[:, None] * A[r]) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank(a: np.ndarray, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel {x : a x = 0}, one row per basis vector."""
    R, pivots = rref(a, p)
    return _kernel_of_rref(R, pivots, np.shape(a)[1], p)


def _kernel_of_rref(R: np.ndarray, pivots: list[int], n: int,
                    p: int) -> np.ndarray:
    """The nullspace basis of a matrix with n columns whose reduced echelon
    form is R: one row per free column c, the row of the identity at c with
    -R[:, c] at the pivot columns."""
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    cols = np.flatnonzero(free)
    basis = np.zeros((cols.size, n), dtype=np.int64)
    basis[np.arange(cols.size), cols] = 1
    basis[:, pivots] = (-R[:, cols]).T % p
    return basis


def mat_inv(a: np.ndarray, p: int) -> np.ndarray:
    A = as_fp(a, p)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError("inverse of a non-square matrix")
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular mod p")
    return R[:, n:]


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a x = b, or None if inconsistent."""
    A = as_fp(a, p)
    B = as_fp(b, p).reshape(A.shape[0], -1)
    aug = np.concatenate([A, B], axis=1)
    R, pivots = rref(aug, p)
    n = A.shape[1]
    if any(c >= n for c in pivots):
        return None
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        X[c] = R[i, n:]
    return X if b.ndim > 1 else X[:, 0]


def in_row_space(v: np.ndarray, basis_rref: np.ndarray, pivots: list[int], p: int) -> bool:
    """Membership test against a basis already in reduced echelon form."""
    w = as_fp(v, p).copy()
    for i, c in enumerate(pivots):
        if w[c]:
            w = (w - w[c] * basis_rref[i]) % p
    return not w.any()
