import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypencil import SingularMatrixError
from polypencil.linalg import (
    _frobenius,
    as_cmatrix,
    det,
    guarded_solve,
    lu_factor,
    lu_solve,
    sip,
)


def rand(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestLUFactor:
    def test_identity(self):
        f = lu_factor(np.eye(3))
        assert np.allclose(f.lu, np.eye(3))
        assert f.parity == 1

    def test_permutation_swap(self):
        f = lu_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert f.parity == -1
        # one row swap makes the packed factor the identity
        assert np.allclose(f.lu, np.eye(2))

    def test_reconstruction_random(self, rng):
        a = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
        f = lu_factor(a)
        lower = np.tril(f.lu, -1) + np.eye(5)
        upper = np.triu(f.lu)
        swapped = a.copy()
        for k, r in enumerate(f.row_swaps):  # replay the row exchanges on A
            swapped[[k, r]] = swapped[[r, k]]
        err = np.linalg.norm(swapped - lower @ upper)
        assert err <= 1e-13 * np.linalg.norm(a)

    def test_exact_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(Exception):
            lu_factor(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_cmatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSolve:
    def test_identity_passthrough(self, rng):
        b = rand(rng, 4, 2)
        assert np.allclose(lu_solve(lu_factor(np.eye(4)), b), b)

    def test_scaling(self):
        x = lu_solve(lu_factor(2.0 * np.eye(4)), np.ones((4, 1)))
        assert np.allclose(x, 0.5 * np.ones((4, 1)))

    def test_residual_random(self, rng):
        a = rand(rng, 6) + 3.0 * np.eye(6)  # keep it comfortably nonsingular
        b = rand(rng, 6, 1)
        x = lu_solve(lu_factor(a), b)
        res = np.linalg.norm(a @ x - b)
        assert res <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(x)

    def test_solve_many_sizes(self, rng):
        for n in range(1, 13):
            a = rand(rng, n) + (n + 1) * np.eye(n)
            b = rand(rng, n, 1)
            x = lu_solve(lu_factor(a), b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)


class TestDeterminant:
    def test_identity(self):
        assert lu_factor(np.eye(5)).parity == 1
        assert det(np.eye(5)) == 1.0

    def test_diagonal(self):
        assert det(np.diag([2.0, 3.0])) == pytest.approx(6.0)
        assert det(np.diag([1.0, 1e-15])) == pytest.approx(1e-15)

    def test_permutation_parity(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert lu_factor(swap).parity == -1
        assert det(swap) == -1.0

    def test_singular_is_zero(self):
        assert det(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0

    def test_matches_numpy(self, rng):
        for n in (2, 4, 7):
            a = rand(rng, n)
            assert det(a) == pytest.approx(np.linalg.det(a), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 4), q=st.integers(1, 4))
def test_kron_determinant_identity(seed, p, q):
    rng = np.random.default_rng(seed)
    a = rand(rng, p) + (p + 1) * np.eye(p)
    b = rand(rng, q) + (q + 1) * np.eye(q)
    lhs = det(np.kron(a, b))
    rhs = det(a) ** q * det(b) ** p
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
def test_solve_residual_property(seed, n):
    rng = np.random.default_rng(seed)
    a = rand(rng, n) + (n + 2) * np.eye(n)
    b = rand(rng, n, 1)
    x = lu_solve(lu_factor(a), b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)


def test_sip_involution():
    for n in (1, 2, 5, 9):
        j = sip(n)
        assert np.array_equal(j @ j, np.eye(n))


def test_guarded_solve_refuses_each_singular_member_alone():
    # exactly singular, then 1 / (||M||_F ||M^-1 B||_F) about 1e-13: both
    # refused, the others kept.  One B = I_3[:, :2] serves the whole stack,
    # and the exactly singular member is refused though B misses its null row
    ms = np.array([np.eye(3), np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1e-13, 1.0]),
                   2 * np.eye(3)], dtype=complex)
    b = np.eye(3, 2, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(ms, b)
    solutions, ok = guarded_solve(ms, b)
    assert ok.tolist() == [True, False, False, True]
    assert solutions.shape == (4, 3, 2) and np.isnan(solutions[1]).all()
    for k in (0, 2, 3):
        assert np.array_equal(solutions[k], np.linalg.solve(ms[k], b))
    solution, ok = guarded_solve(ms[1], b)
    assert not ok and solution.shape == (3, 2) and np.isnan(solution).all()


@pytest.mark.parametrize("n", [1, 8, 37, 120])
def test_guarded_solve_against_the_identity_is_the_lapack_inverse(n):
    rng = np.random.default_rng(n)
    eye = np.eye(n, dtype=complex)
    stack = rand(rng, 5 * n, n).reshape(5, n, n)
    inverses, ok = guarded_solve(stack, eye[None])
    assert ok.all() and np.array_equal(inverses, np.linalg.inv(stack))
    inverse, ok = guarded_solve(stack[2], eye)
    assert ok and np.array_equal(inverse, np.linalg.inv(stack[2]))


def test_guarded_solve_reads_the_columns_b_uses():
    # M^-1 e_1 = e_1 is as well conditioned as can be; M^-1 itself is not
    m = np.diag([1.0, 1e-13]).astype(complex)
    assert guarded_solve(m, np.eye(2, 1))[1]
    assert not guarded_solve(m, np.eye(2))[1]
    assert guarded_solve(m[None], np.eye(2, 1)[None])[1].tolist() == [True]


@pytest.mark.parametrize("cols", [5, 100])
def test_guarded_solve_allocates_little_beyond_its_solution(cols):
    """The norms of a (10, 100, 100) stack and of M^-1 B take no stack-sized temporary."""
    rng = np.random.default_rng(cols)
    stack = rand(rng, 1000, 100).reshape(10, 100, 100)
    b = np.eye(100, cols, dtype=complex)[None]
    tracemalloc.start()
    try:
        solution, ok = guarded_solve(stack, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all() and peak - solution.nbytes < 0.1 * stack.nbytes


@pytest.mark.parametrize("exponent", [520, 600, 1015, -520, -700])
def test_guard_norms_scale_exactly_past_the_range_of_their_squares(exponent):
    """A member whose sum of squares overflows or underflows is summed again, scaled by a power
    of two: its norm is the unscaled one times 2^exponent, bit for bit, and the others keep
    their bits."""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    base = _frobenius(m)
    s = 2.0 ** exponent
    scaled = m.copy()
    scaled[[1, 3]] *= s
    norms = _frobenius(scaled)
    assert norms[0] == base[0] and norms[2] == base[2]
    assert np.array_equal(norms[[1, 3]], base[[1, 3]] * s)
    assert _frobenius(m[1] * s) == base[1] * s  # one matrix, not a stack


@pytest.mark.parametrize("exponent", [520, 1015, -600])
def test_guard_decides_alike_at_every_scale(exponent):
    """rcond_F does not change when M is scaled, so neither does a decision of the guard."""
    rng = np.random.default_rng(5)
    m = rng.standard_normal((40, 5, 5)) + 1j * rng.standard_normal((40, 5, 5))
    m[::4, 0] = m[::4, 1] * (1 + 1e-15)  # some members near singular, refused
    b = np.eye(5, 2, dtype=complex)
    _, ok = guarded_solve(m, b)
    assert 0 < ok.sum() < len(ok)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, scaled_ok = guarded_solve(m * 2.0 ** exponent, b)
    assert np.array_equal(scaled_ok, ok)
