import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from greencorr.errors import InputError
from greencorr.linalg import (
    in_row_space,
    inv_mod,
    mat_inv,
    mat_mul,
    mat_pow,
    nullspace,
    rank,
    rref,
    solve,
)

from oracles import mat_mul_int64, mat_pow_int64, nullspace_mod


def random_matrix(rng, m, n, p):
    return rng.integers(0, p, size=(m, n)).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_properties(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        A = random_matrix(rng, m, n, p)
        R, pivots = rref(A, p)
        assert R.shape[0] == len(pivots)
        for i, c in enumerate(pivots):
            assert R[i, c] == 1
            col = R[:, c].copy()
            col[i] = 0
            assert not col.any()  # pivot columns are cleared
        # row space is preserved
        for row in A:
            assert in_row_space(row, R, pivots, p)
        probe = random_matrix(rng, 1, n, p)
        assert in_row_space(probe[0], R, pivots, p) == (
            rank(np.concatenate([A, probe]), p) == len(pivots))


@pytest.mark.parametrize("p", [2, 3])
def test_nullspace_exactness(p):
    rng = np.random.default_rng(10 + p)
    for _ in range(20):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        A = random_matrix(rng, m, n, p)
        ns = nullspace(A, p)
        assert len(ns) == n - rank(A, p)
        for v in ns:
            assert not ((A @ v) % p).any()
        if len(ns):
            assert rank(np.stack(ns) if ns.ndim == 1 else ns, p) == len(ns)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mat_inv_and_solve(p):
    rng = np.random.default_rng(20 + p)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        A = random_matrix(rng, n, n, p)
        if rank(A, p) < n:
            with pytest.raises(InputError):
                mat_inv(A, p)
            continue
        Ai = mat_inv(A, p)
        assert ((A @ Ai) % p == np.eye(n, dtype=np.int64)).all()
        b = random_matrix(rng, n, 1, p)[:, 0]
        x = solve(A, b, p)
        assert x is not None
        assert ((A @ x) % p == b % p).all()


def test_solve_inconsistent():
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert solve(A, b, 2) is None


def test_mat_pow():
    A = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert (mat_pow(A, 0, 5) == np.eye(2, dtype=np.int64)).all()
    assert (mat_pow(A, 7, 5)[0, 1]) == 7 % 5


def test_inv_mod():
    for p in (2, 3, 7):
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 3)


def test_row_space_idempotent():
    A = np.array([[2, 4], [1, 2], [0, 1]], dtype=np.int64)
    R1 = rref(A, 5)[0]
    R2 = rref(R1, 5)[0]
    assert (R1 == R2).all()


# ---------------------------------------------------------------------------
# mat_mul: float64 BLAS products against the int64 reference
# ---------------------------------------------------------------------------

PRIMES = st.sampled_from([2, 3, 5, 7])
SIDES = st.integers(0, 9)


def residues(data, p: int, shape: tuple) -> np.ndarray:
    return data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, p - 1)))


def assert_matches_reference(a, b, p):
    out = mat_mul(a, b, p)
    assert out.dtype == np.int64
    assert np.array_equal(out, mat_mul_int64(a, b, p))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=PRIMES, m=SIDES, k=SIDES, n=SIDES)
def test_mat_mul_2d_matches_int64(data, p, m, k, n):
    assert_matches_reference(residues(data, p, (m, k)),
                             residues(data, p, (k, n)), p)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=PRIMES, s=st.integers(1, 5), m=SIDES, k=SIDES,
       n=SIDES, which=st.sampled_from(["left", "right", "both"]))
def test_mat_mul_batched_matches_int64(data, p, s, m, k, n, which):
    a = residues(data, p, (s, m, k) if which != "right" else (m, k))
    b = residues(data, p, (s, k, n) if which != "left" else (k, n))
    assert_matches_reference(a, b, p)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=PRIMES, s=st.integers(1, 5), m=SIDES, k=SIDES,
       n=SIDES)
def test_mat_mul_non_contiguous_matches_int64(data, p, s, m, k, n):
    # transposed views and strided slices, as the hom kernel passes them
    a = residues(data, p, (m, s, k)).transpose(1, 0, 2)
    b = residues(data, p, (s, n, 2 * k)).transpose(0, 2, 1)[:, ::2, :]
    assert_matches_reference(a, b, p)
    assert_matches_reference(residues(data, p, (k, m)).T, b[0], p)


def test_mat_mul_is_exact_up_to_its_bound():
    # inner length 2: 2 (q - 1)^2 < 2^53 exactly when q <= 2^26, and the
    # largest entries give the largest dot products
    q = 2 ** 26
    a = np.full((3, 2), q - 1, dtype=np.int64)
    assert np.array_equal(mat_mul(a, a.T, q), mat_mul_int64(a, a.T, q))
    with pytest.raises(InputError, match=str(q + 1)):
        mat_mul(a, a.T, q + 1)
    with pytest.raises(InputError):
        mat_mul(np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64),
                2 ** 31 - 1)


# ---------------------------------------------------------------------------
# mat_pow, nullspace and rref against the int64 references
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(data=st.data(), p=PRIMES, i=st.integers(0, 3), n=st.integers(1, 8),
       stack=st.sampled_from([(), (1,), (3,)]), k=st.integers(0, 70))
def test_mat_pow_matches_int64(data, p, i, n, stack, k):
    # the radical's trace levels raise to q = p^i modulo p * q
    m = p * p ** i
    a = residues(data, m, (*stack, n, n))
    out = mat_pow(a, k, m)
    assert out.dtype == np.int64
    assert np.array_equal(out, mat_pow_int64(a, k, m))


@settings(max_examples=20)
@given(data=st.data(), n=st.integers(1, 5), stack=st.sampled_from([(), (2,)]),
       k=st.integers(0, 9))
def test_mat_pow_past_the_float64_bound_matches_int64(data, n, stack, k):
    # 2 (p - 1)^2 < 2^53 <= 3 (p - 1)^2: n = 1, 2 square in float64, n >= 3
    # in int64, and both must agree with the int64 reference
    p = 67108859
    a = residues(data, p, (*stack, n, n))
    assert np.array_equal(mat_pow(a, k, p), mat_pow_int64(a, k, p))


@settings(max_examples=60)
@given(data=st.data(), p=PRIMES, m=SIDES, n=st.integers(1, 9))
def test_nullspace_matches_oracle(data, p, m, n):
    A = residues(data, p, (m, n))
    want = np.array(nullspace_mod(A, p), dtype=np.int64).reshape(-1, n)
    assert np.array_equal(nullspace(A, p), want)


def test_rref_of_a_transpose_returns_c_ordered_rows():
    rng = np.random.default_rng(5)
    A = random_matrix(rng, 7, 11, 3)
    A[:, 4] = (A[:, 1] + A[:, 2]) % 3  # a dependent row of A.T
    R, pivots = rref(A.T, 3)
    R_copy, pivots_copy = rref(np.ascontiguousarray(A.T), 3)
    assert R.flags.c_contiguous and len(R) < A.shape[1]
    assert np.array_equal(R, R_copy) and pivots == pivots_copy
