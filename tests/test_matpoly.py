import numpy as np
import pytest

import golden
from conftest import ALL_KINDS, TEN_KINDS, hermite_polynomial, poly_nodes, random_polynomial
from polypencil import (
    ChebyshevT,
    Hermite,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    evaluate,
)
from polypencil.bases import phi_rows
from polypencil.matpoly import NODE_SNAP


def test_monomial_square():
    p = MatrixPolynomial.from_coefficients(
        Monomial(), [np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)])
    assert np.allclose(evaluate(p, 3.0), 9.0 * np.eye(2))


def test_lagrange_constant_identity():
    p = MatrixPolynomial(Lagrange(nodes=golden.LAGRANGE_NODES),
                         [np.eye(2)] * 3)
    assert np.allclose(p(0.3), np.eye(2), atol=1e-14)


def test_lagrange_node_value_is_stored_not_computed(rng):
    basis = Lagrange(nodes=[1.0, 0.0, -1.0])
    samples = [rng.standard_normal((2, 2)) for _ in range(3)]
    p = MatrixPolynomial(basis, samples)
    for k, tau in enumerate(basis.nodes):
        assert np.array_equal(evaluate(p, tau), samples[k])


def test_near_node_snap():
    basis = Lagrange(nodes=[1.0, 0.0, -1.0])
    samples = [np.eye(1) * v for v in (4.0, 5.0, 6.0)]
    p = MatrixPolynomial(basis, samples)
    assert evaluate(p, 1.0 + 0.5 * NODE_SNAP)[0, 0] == 4.0


def test_hermite_matrix_example_value():
    basis = Hermite(nodes=golden.HERMITE_MATRIX_NODES,
                    confluencies=golden.HERMITE_MATRIX_CONFL)
    p = hermite_polynomial(basis, golden.HERMITE_MATRIX_RHO)
    assert np.allclose(evaluate(p, 2.0), [[1.0, -2.0], [-3.0, 1.0]], atol=1e-12)
    for z in (0.4 + 0.1j, -1.3, 2.5 - 1.0j):
        assert np.allclose(evaluate(p, z), golden.hermite_matrix_value(z), atol=1e-10)


def test_hermite_node_values(rng):
    basis = Hermite(nodes=[0.7, -0.2], confluencies=[2, 3])
    groups = [[rng.standard_normal((2, 2)) for _ in range(2)],
              [rng.standard_normal((2, 2)) for _ in range(3)]]
    p = hermite_polynomial(basis, groups)
    assert np.array_equal(evaluate(p, 0.7), groups[0][0])
    assert np.array_equal(evaluate(p, -0.2), groups[1][0])


def test_hermite_single_node_is_taylor_polynomial(rng):
    tau = 0.4
    ell = 4
    coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(ell + 1)]
    basis = Hermite(nodes=[tau], confluencies=[ell + 1])
    p = hermite_polynomial(basis, [coeffs])
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        taylor = sum(c * (z - tau) ** k for k, c in enumerate(coeffs))
        scale = np.linalg.norm(taylor)
        assert np.linalg.norm(evaluate(p, z) - taylor) <= 1e-10 * max(scale, 1.0)


def test_chebyshev_to_lagrange_consistency(rng):
    ell = 4
    coeffs = [rng.standard_normal((2, 2)) for _ in range(ell + 1)]
    p = MatrixPolynomial.from_coefficients(ChebyshevT(), coeffs)
    nodes = [np.cos(np.pi * k / ell) for k in range(ell + 1)]
    samples = [evaluate(p, t) for t in nodes]
    q = MatrixPolynomial(Lagrange(nodes=nodes), samples)
    for _ in range(20):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.5, 0.5))
        a, b = evaluate(p, z), evaluate(q, z)
        assert np.linalg.norm(a - b) <= 1e-9 * max(np.linalg.norm(a), 1.0)


class TestValidation:
    def test_mismatched_sample_count(self):
        with pytest.raises(ValueError):
            MatrixPolynomial(Lagrange(nodes=[0.0, 1.0]), [np.eye(2)])

    def test_mismatched_block_sizes(self):
        with pytest.raises(Exception):
            MatrixPolynomial.from_coefficients(Monomial(), [np.eye(2), np.eye(3)])

    def test_data_is_read_only(self, rng):
        p = random_polynomial("chebyshev", 2, 3, rng)
        assert not p.data.flags.writeable
        with pytest.raises(ValueError):
            p.data[0, 0, 0] = 1.0

    def test_scalar_shorthand(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), [[[1.0]], [[0.0]], [[1.0]]])
        assert p.n == 1 and p.grade == 2
        assert evaluate(p, 2.0)[0, 0] == pytest.approx(5.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phi_rows_agree_with_evaluate(kind, rng):
    p = random_polynomial(kind, 2, 4, rng)
    zs = [0.3 - 0.2j, -1.1 + 0.4j, 25.0j, *poly_nodes(p)[:2]]
    rows = phi_rows(p.basis, p.data.shape[0], zs)
    for z, values in zip(zs, np.tensordot(rows, p.data, axes=1)):
        expected = evaluate(p, z)
        got = values * max(1.0, abs(z)) ** p.grade
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))


def test_phi_rows_stay_finite_far_out():
    rows = phi_rows(ChebyshevT(), 21, [1e200, -3e150j])
    assert np.all(np.isfinite(rows)) and np.allclose(np.abs(rows[:, -1]), 2.0 ** 19)


@pytest.mark.parametrize("kind", TEN_KINDS)
def test_batch_rows_equal_single_points_bitwise(kind, rng):
    p = random_polynomial(kind, 3, 6, rng)
    zs = np.array([0.3 - 0.2j, -1.1 + 0.4j, 25.0j, *poly_nodes(p)[:2], 1.7 + 1.9j])
    values = evaluate(p, zs)
    assert values.shape == (len(zs), 3, 3)
    for z, value in zip(zs, values):
        assert np.array_equal(value, evaluate(p, z))


@pytest.mark.parametrize("kind", ["lagrange", "hermite"])
def test_batch_snaps_to_the_stored_node_data(kind, rng):
    p = random_polynomial(kind, 2, 5, rng)
    nodes = p.basis.nodes
    starts = np.cumsum(p.basis.confluencies) - p.basis.confluencies
    zs = [nodes[0], nodes[-1] * (1.0 + 0.5 * NODE_SNAP), 0.1 + 0.2j]
    values = evaluate(p, zs)
    assert np.array_equal(values[0], p.data[starts[0]])
    assert np.array_equal(values[1], p.data[starts[-1]])
    assert not np.array_equal(values[2], p.data[starts[0]])
