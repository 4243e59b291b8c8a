import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypencil import SingularMatrixError
from polypencil.linalg import (
    as_cmatrix,
    det,
    guarded_inverse,
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


def test_guarded_inverse_refuses_each_singular_member_alone():
    # exactly singular, then rcond_F about 1e-13: both refused, the others kept
    ms = np.array([np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, 1e-13]), 2 * np.eye(2)],
                  dtype=complex)
    inverses, ok = guarded_inverse(ms)
    assert ok.tolist() == [True, False, False, True]
    assert np.array_equal(inverses[3], np.linalg.inv(ms[3]))
    inverse, ok = guarded_inverse(ms[1])
    assert not ok and np.isnan(inverse).all()
