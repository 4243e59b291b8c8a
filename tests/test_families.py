"""A basis family is its row of the paper's tables, and nothing outside ``bases`` needs more.

``ScaledPowers`` (phi_k = (c z)^k) is defined in this file alone, as a direct
``Basis`` subclass that supplies the members itself; the package's build,
triple, evaluation, eigenvalue and equivalence code runs on it unchanged.
The grade rule of each family is enforced when the polynomial is made.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from conftest import rand_matrix
from polypencil import (
    Basis,
    CustomThreeTerm,
    Hermite,
    MatrixPolynomial,
    Newton,
    UnsupportedBasisError,
    build,
    equivalence_degree_graded,
    evaluate,
    generalized_eigenvalues,
    make_triple,
    resolvent,
    verify_equivalence,
    verify_triple,
)


@dataclass(frozen=True)
class ScaledPowers(Basis):
    """phi_k = (c z)^k: the three-term recurrence z phi_k = phi_{k+1} / c, written out."""

    c: float = 2.0

    structural_blocks = 0

    def phi_rows(self, count, zs):
        z = np.asarray(zs, dtype=complex).reshape(-1)
        inv = 1.0 / np.maximum(1.0, np.abs(z))
        k = np.arange(count)
        return (self.c * z * inv)[:, None] ** k * inv[:, None] ** (count - 1 - k)

    def one_row(self, ell):
        return np.eye(ell, dtype=complex)[-1]  # 1 = phi_0, the last block column

    def skeleton(self, ell):
        """K1 = c I and K0 = I below the diagonal, below block row 0."""
        band = list(range(1, ell))
        return ell, (band, band, [self.c] * (ell - 1)), (band, [i - 1 for i in band],
                                                          [1.0] * (ell - 1))

    def data_row(self, data):
        """(c P_ell, 0, .., 0); (-P_ell-1, .., -P_0)."""
        ell = len(data) - 1
        r1 = np.zeros((ell,) + data.shape[1:], dtype=complex)
        r1[0] = self.c * data[ell]
        return r1, -data[ell - 1::-1]

    def monomial_rows(self, count):
        return np.diag(self.c ** np.arange(count - 1, -1, -1)).astype(complex)

    def null_vector_rows(self, ell):
        return self.monomial_rows(ell)


def toy_polynomial(n, ell, seed, c=2.0):
    rng = np.random.default_rng(seed)
    return MatrixPolynomial.from_coefficients(ScaledPowers(c), [rand_matrix(rng, n)
                                                                for _ in range(ell + 1)])


def direct_value(p, z):
    """P(z) = sum_k (c z)^k P_k, summed here with no package code."""
    return sum((p.basis.c * z) ** k * pk for k, pk in enumerate(p.data))


def companion_eigenvalues(p):
    """Eigenvalues of P from numpy's eigvals of the monic block companion of P(w / c)."""
    n, ell = p.n, p.grade
    lead = np.linalg.inv(p.data[ell])
    a = np.zeros((n * ell, n * ell), dtype=complex)
    a[:n] = -np.concatenate([lead @ p.data[k] for k in range(ell - 1, -1, -1)], axis=1)
    a[n:, :-n] = np.eye(n * (ell - 1))
    return np.linalg.eigvals(a) / p.basis.c


POINTS = (0.3 + 0.4j, -1.1 + 0.2j, 0.05 - 0.7j, 1.7)


@pytest.mark.parametrize("n, ell", [(1, 1), (2, 3), (3, 4)])
def test_toy_family_pencil_linearizes(n, ell):
    p = toy_polynomial(n, ell, 10 * n + ell)
    pc = build(p)
    assert pc.size == n * ell and pc.basis == p.basis
    for z in POINTS:
        value = direct_value(p, z)
        assert np.linalg.det(pc.at(z)) == pytest.approx(np.linalg.det(value), rel=1e-10)
        assert np.allclose(evaluate(p, z), value, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n, ell", [(1, 2), (2, 3), (3, 4)])
def test_toy_family_triple_satisfies_the_resolvent_identity(n, ell):
    p = toy_polynomial(n, ell, 20 * n + ell)
    t = make_triple(build(p))
    for z in POINTS:
        expected = np.linalg.inv(direct_value(p, z))
        assert np.allclose(resolvent(t, z), expected, rtol=1e-10, atol=1e-10)
    assert verify_triple(t, p, POINTS) <= 1e-10


@pytest.mark.parametrize("n, ell", [(1, 3), (2, 3), (2, 5)])
def test_toy_family_eigenvalues_match_numpy(n, ell):
    p = toy_polynomial(n, ell, 30 * n + ell, c=0.5)
    result = generalized_eigenvalues(build(p), p)
    got = np.array([lam for lam, _ in result.finite])
    expected = companion_eigenvalues(p)
    assert result.infinite_count == 0 and len(got) == n * ell
    scale = np.abs(expected).max()
    assert all(np.abs(expected - lam).min() <= 1e-9 * scale for lam in got)
    assert all(np.abs(got - lam).min() <= 1e-9 * scale for lam in expected)


@pytest.mark.parametrize("n, ell", [(1, 2), (2, 4)])
def test_toy_family_is_strictly_equivalent_to_the_monomial_pencil(n, ell):
    p = toy_polynomial(n, ell, 40 * n + ell)
    pair = equivalence_degree_graded(p)
    assert verify_equivalence(pair) <= 1e-12
    assert np.array_equal(pair.f, np.kron(p.basis.null_vector_rows(ell), np.eye(n)))


def test_a_member_the_family_lacks_names_it():
    with pytest.raises(UnsupportedBasisError, match="ScaledPowers has no three-term recurrence"):
        ScaledPowers().recurrence_row(0)
    with pytest.raises(UnsupportedBasisError, match="Basis has no skeleton"):
        MatrixPolynomial.from_coefficients(Basis(), [np.eye(2), np.eye(2)])


class TestGradeRule:
    """The family's grade rule holds when the polynomial is made, not at its first use."""

    def test_newton_needs_a_node_per_grade(self):
        with pytest.raises(ValueError, match="newton basis of grade 3 needs 3 nodes, got 1"):
            MatrixPolynomial.from_coefficients(Newton(nodes=(0.5,)), [np.eye(2)] * 4)
        p = MatrixPolynomial.from_coefficients(Newton(nodes=(0.5, 1.0, -1.0)), [np.eye(2)] * 4)
        assert p.grade == 3

    def test_custom_recurrence_needs_an_alpha_per_grade(self):
        basis = CustomThreeTerm(alpha=(1.0,), beta=(0.0,), gamma=(0.0,))
        with pytest.raises(ValueError,
                           match="custom recurrence of grade 2 needs 2 alpha values, got 1"):
            MatrixPolynomial.from_coefficients(basis, [np.eye(2)] * 3)
        assert MatrixPolynomial.from_coefficients(basis, [np.eye(2)] * 2).grade == 1

    def test_hermite_needs_one_matrix_per_datum(self):
        basis = Hermite(nodes=(0.0, 1.0), confluencies=(2, 1))
        with pytest.raises(ValueError, match="grade 3 does not match the basis, whose grade is 2"):
            MatrixPolynomial(basis, [np.eye(2)] * 4)
        assert MatrixPolynomial(basis, [np.eye(2)] * 3).grade == 2
