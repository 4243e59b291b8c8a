import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from polypencil import (
    BadConfluencyError,
    Bernstein,
    ChebyshevT,
    CustomThreeTerm,
    DuplicateNodesError,
    Hermite,
    Lagrange,
    LegendreP,
    MatrixPolynomial,
    Monomial,
    Newton,
    Taylor,
    UnsupportedBasisError,
    barycentric_weights,
    build_hermite,
    node_polynomial,
    null_vector_basis_matrix,
    one_coefficients,
    recurrence_row,
)
from polypencil.bases import monomial_rows, phi_rows


class TestRecurrenceRow:
    def test_chebyshev_generic(self):
        assert recurrence_row(ChebyshevT(), 3) == (0.5, 0.0, 0.5)

    def test_chebyshev_initial_case(self):
        # phi_1 must be z itself, so the k = 0 row has alpha = 1
        assert recurrence_row(ChebyshevT(), 0) == (1.0, 0.0, 0.0)

    def test_monomial(self):
        assert recurrence_row(Monomial(), 7) == (1.0, 0.0, 0.0)

    def test_legendre(self):
        a, b, g = recurrence_row(LegendreP(), 2)
        assert (a, b, g) == pytest.approx((3 / 5, 0.0, 2 / 5))

    def test_newton_and_taylor(self):
        assert recurrence_row(Newton(nodes=[2.0, 5.0]), 1) == (1.0, 5.0, 0.0)
        assert recurrence_row(Taylor(shift=1.5), 3) == (4.0, 1.5, 0.0)

    def test_custom_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            CustomThreeTerm(alpha=(1.0, 0.0), beta=(0.0, 0.0), gamma=(0.0, 0.0))

    def test_non_three_term_rejected(self):
        with pytest.raises(UnsupportedBasisError):
            recurrence_row(Bernstein(), 1)


def phi_value(basis, count, k, z):
    """phi_k(z) from a count-column phi_rows row, undoing its max(1, |z|) scaling."""
    return complex(phi_rows(basis, count, [z])[0, k] * max(1.0, abs(z)) ** (count - 1))


class TestEvalPhi:
    """Single basis function values, read off phi_rows."""

    def test_chebyshev_t2(self):
        expected = math.cos(2.0 * math.acos(0.5))
        assert phi_value(ChebyshevT(), 3, 2, 0.5) == pytest.approx(expected)
        assert expected == pytest.approx(-0.5)

    def test_monomial_cube(self):
        assert phi_value(Monomial(), 4, 3, 2.0) == pytest.approx(8.0)

    def test_bernstein_binomial(self):
        expected = 3.0 * (1 / 3) * (2 / 3) ** 2
        assert phi_value(Bernstein(), 4, 1, 1 / 3) == pytest.approx(expected)
        assert expected == pytest.approx(4 / 9)

    def test_chebyshev_cosine_identity(self, rng):
        for _ in range(10):
            theta = rng.uniform(0.0, math.pi)
            k = int(rng.integers(0, 11))
            value = phi_value(ChebyshevT(), k + 1, k, math.cos(theta))
            assert abs(value - math.cos(k * theta)) <= 1e-12

    def test_newton_vanishes_at_earlier_nodes(self, rng):
        nodes = [0.3, -0.8, 1.1, 0.05]
        basis = Newton(nodes=nodes)
        for k in range(1, 5):
            for j in range(min(k, 4)):
                assert abs(phi_value(basis, k + 1, k, nodes[j])) <= 1e-12

    def test_lagrange_cardinal(self):
        basis = Lagrange(nodes=[1.0, 0.0, -1.0])
        for k, tau in enumerate(basis.nodes):
            for j, other in enumerate(basis.nodes):
                expected = 1.0 if j == k else 0.0
                assert phi_value(basis, 3, k, other) == pytest.approx(expected, abs=1e-14)


class TestOneCoefficients:
    def test_monomial(self):
        assert np.array_equal(one_coefficients(Monomial(), 4), [0, 0, 0, 1])

    def test_bernstein(self):
        assert np.allclose(one_coefficients(Bernstein(), 5),
                           [1 / 5, 2 / 5, 3 / 5, 4 / 5, 1.0])

    def test_hermite(self):
        basis = Hermite(nodes=[0.0, 1.0], confluencies=[3, 2])
        assert np.array_equal(one_coefficients(basis, 4), [0, 0, 0, 1, 0, 1])

    def test_lagrange(self):
        basis = Lagrange(nodes=[1.0, 0.0, -1.0])
        assert np.array_equal(one_coefficients(basis, 2), [0, 1, 1, 1])


class TestNodePolynomial:
    def test_cubic(self):
        basis = Lagrange(nodes=[1.0, 0.0, -1.0])
        assert np.allclose(node_polynomial(basis), [1, 0, -1, 0])

    def test_single_node(self):
        # z - 0 for one Lagrange node; z^2 for one doubly-confluent node
        assert np.allclose(node_polynomial(Lagrange(nodes=[0.0])), [1, 0])
        assert np.allclose(node_polynomial(Hermite(nodes=[0.0], confluencies=[2])), [1, 0, 0])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateNodesError):
            Lagrange(nodes=[1.0, 1.0])
        with pytest.raises(DuplicateNodesError):
            Hermite(nodes=[1.0, 1.0], confluencies=[1, 1])

    def test_bad_confluencies_rejected(self):
        with pytest.raises(BadConfluencyError):
            Hermite(nodes=[0.0, 1.0], confluencies=[1])
        with pytest.raises(BadConfluencyError):
            Hermite(nodes=[0.0, 1.0], confluencies=[0, 2])


class TestLagrangeIsHermite:
    def test_subclass_with_unit_confluencies(self):
        basis = Lagrange(nodes=[1.0, 0.0, -1.0])
        assert isinstance(basis, Hermite)
        assert basis.confluencies == (1, 1, 1) and basis.grade == 2
        assert Lagrange(nodes=[1.0, 0.0, -1.0], confluencies=[1, 1, 1]) == basis

    def test_other_confluencies_rejected(self):
        with pytest.raises(BadConfluencyError):
            Lagrange(nodes=[1.0, 0.0, -1.0], confluencies=(2, 1, 1))
        with pytest.raises(BadConfluencyError):
            Lagrange(nodes=[1.0, 0.0, -1.0], confluencies=(1, 1))


def exact_hermite_weights(nodes, confl, probes):
    """Independent oracle: solve the partial-fraction interpolation conditions.

    Builds the exact linear system sum_ij beta_ij / (z - tau_i)^(j+1) =
    1 / omega(z) at rational probe points and solves it by Gaussian
    elimination over Fraction.
    """
    unknowns = [(i, j) for i, s in enumerate(confl) for j in range(s)]
    rows = []
    rhs = []
    for z in probes:
        z = F(z)
        omega = F(1)
        for t, s in zip(nodes, confl):
            omega *= (z - F(t)) ** s
        rows.append([F(1) / (z - F(nodes[i])) ** (j + 1) for i, j in unknowns])
        rhs.append(F(1) / omega)
    m = len(unknowns)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    solution = {key: aug[idx][m] / aug[idx][idx] for idx, key in enumerate(unknowns)}
    # repackage node-major with derivative order descending
    flat = []
    for i, s in enumerate(confl):
        flat.extend(solution[(i, s - 1 - d)] for d in range(s))
    return flat


class TestBarycentricWeights:
    def test_lagrange_product_formula(self):
        basis = Lagrange(nodes=[1.0, 0.0, -1.0])
        assert np.allclose(barycentric_weights(basis), [0.5, -1.0, 0.5], atol=1e-15)

    def test_cached_once_per_basis_and_read_only(self):
        basis = Hermite(nodes=golden.HERMITE_SCALAR_NODES,
                        confluencies=golden.HERMITE_SCALAR_CONFL)
        w = barycentric_weights(basis)
        assert barycentric_weights(basis) is w
        with pytest.raises(ValueError):
            w[0] = 0.0
        twin = Hermite(nodes=golden.HERMITE_SCALAR_NODES,
                       confluencies=golden.HERMITE_SCALAR_CONFL)
        assert barycentric_weights(twin) is not w
        assert np.array_equal(barycentric_weights(twin), w)

    def test_lagrange_bitwise_product_formula(self, rng):
        nodes = [complex(t) for t in rng.standard_normal(7) + 1j * rng.standard_normal(7)]
        expected = []
        for i, ti in enumerate(nodes):
            prod = 1.0 + 0.0j
            for j, tj in enumerate(nodes):
                if j != i:
                    prod *= ti - tj
            expected.append(1.0 / prod)
        assert barycentric_weights(Lagrange(nodes=nodes)).tolist() == expected

    def test_single_node(self):
        assert np.allclose(barycentric_weights(Lagrange(nodes=[5.0])), [1.0])

    def test_hermite_reference_column(self):
        basis = Hermite(nodes=golden.HERMITE_SCALAR_NODES,
                        confluencies=golden.HERMITE_SCALAR_CONFL)
        w = barycentric_weights(basis)
        assert np.max(np.abs(w - golden.HERMITE_SCALAR_WEIGHTS)) <= 1e-12

    def test_hermite_against_exact_rational_oracle(self):
        nodes = [F(1), F(1, 2), F(-1, 2), F(-1)]
        confl = [2, 1, 1, 3]
        exact = exact_hermite_weights(nodes, confl, probes=[2, 3, 4, 5, 6, 7, 8])
        reference = [F(1, 6), F(-25, 36), F(32, 27), F(-32, 9), F(1, 3), F(11, 9), F(331, 108)]
        assert exact == reference
        computed = barycentric_weights(
            Hermite(nodes=[float(t) for t in nodes], confluencies=confl))
        assert np.max(np.abs(computed - np.array([float(v) for v in exact]))) <= 1e-12

    def test_hermite_clustered_nodes_against_exact_rational_oracle(self):
        # nodes k/50, 0.06 to 0.14 apart; every weight to full relative accuracy
        nodes = [F(k, 50) for k in (-20, -13, -9, -4, 0, 3, 7, 11)]
        confl = [2, 3, 1, 3, 2, 1, 3, 2]
        exact = exact_hermite_weights(nodes, confl, probes=range(2, 2 + sum(confl)))
        exact = np.array([float(v) for v in exact])
        computed = barycentric_weights(
            Hermite(nodes=[float(t) for t in nodes], confluencies=confl))
        assert np.max(np.abs(computed - exact) / np.abs(exact)) <= 1e-13

    def test_lagrange_partial_fraction_identity(self, rng):
        basis = Lagrange(nodes=[1.0, 0.2, -0.4, -1.3])
        beta = barycentric_weights(basis)
        omega = node_polynomial(basis)
        for _ in range(10):
            z = complex(rng.uniform(2, 4), rng.uniform(-1, 1))
            lhs = sum(b / (z - t) for b, t in zip(beta, basis.nodes))
            rhs = 1.0 / np.polyval(omega, z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_hermite_partial_fraction_identity(self, rng):
        basis = Hermite(nodes=[0.9, -0.1, -1.2], confluencies=[2, 3, 1])
        flat = barycentric_weights(basis)
        omega = node_polynomial(basis)
        for _ in range(10):
            z = complex(rng.uniform(2, 4), rng.uniform(-1, 1))
            lhs = 0.0
            pos = 0
            for tau, s in zip(basis.nodes, basis.confluencies):
                for j in range(s):
                    lhs += flat[pos + s - 1 - j] / (z - tau) ** (j + 1)
                pos += s
            rhs = 1.0 / np.polyval(omega, z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 9999), count=st.integers(2, 6))
def test_lagrange_weights_identity_property(seed, count):
    rng = np.random.default_rng(seed)
    nodes = np.cos(np.pi * np.arange(count) / (count - 1)) + 0.05 * rng.standard_normal(count)
    if len(set(nodes.tolist())) != count:
        return
    basis = Lagrange(nodes=[complex(t) for t in nodes])
    beta = barycentric_weights(basis)
    omega = node_polynomial(basis)
    z = complex(rng.uniform(2, 3), rng.uniform(0.5, 1.5))
    lhs = sum(b / (z - t) for b, t in zip(beta, basis.nodes))
    rhs = 1.0 / np.polyval(omega, z)
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


class TestNullVectorBasisMatrix:
    def test_monomial_is_identity(self):
        assert np.array_equal(null_vector_basis_matrix(Monomial(), 3), np.eye(3))

    def test_chebyshev_rows(self):
        rows = null_vector_basis_matrix(ChebyshevT(), 3)
        # rows are T2, T1, T0 in descending powers
        assert np.allclose(rows, [[2, 0, -1], [0, 1, 0], [0, 0, 1]])

    def test_bernstein_reference(self):
        rows = null_vector_basis_matrix(Bernstein(), 4)
        assert np.max(np.abs(rows - golden.EQUIV_BERNSTEIN_F)) <= 1e-12

    def test_lagrange_reference(self):
        basis = Lagrange(nodes=golden.EQUIV_LAGRANGE_NODES)
        rows = null_vector_basis_matrix(basis, 3)
        assert np.max(np.abs(rows - golden.EQUIV_LAGRANGE_F)) <= 1e-12

    def test_hermite_rows_are_the_pencil_null_vector(self, rng):
        # (z C1 - C0) v(z) = e_0 P(z), v(z) the rows evaluated at z
        p = MatrixPolynomial(Hermite(nodes=[0.9, -0.1, -1.2], confluencies=[2, 1, 3]),
                             rng.standard_normal(6))
        pc = build_hermite(p)
        rows = null_vector_basis_matrix(p.basis, 5)
        for z in (0.3 + 0.2j, -2.0, 1.7j):
            out = pc.at(z) @ np.array([np.polyval(row, z) for row in rows])
            expected = np.zeros(7, dtype=complex)
            expected[0] = p(z)[0, 0]
            scale = np.max(np.abs(rows)) * max(1.0, abs(z)) ** 6
            assert np.max(np.abs(out - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["bernstein", "lagrange", "hermite"])
def test_monomial_rows_expand_phi(kind, rng):
    from conftest import spread_nodes

    if kind == "hermite":
        basis = Hermite(nodes=spread_nodes(rng, 3), confluencies=[3, 2, 3])
    else:
        basis = Bernstein() if kind == "bernstein" else Lagrange(nodes=spread_nodes(rng, 8))
    count = 7 if kind == "bernstein" else 8
    rows = monomial_rows(basis, count)  # phi_{count-1} .. phi_0, descending powers
    zs = rng.uniform(0, 1, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
    phi = phi_rows(basis, count, zs)  # |z| <= 1: no scaling applied
    for z, row in zip(zs, phi):
        got = [np.polyval(rows[count - 1 - k], z) for k in range(count)]
        assert np.max(np.abs(got - row)) <= 1e-12 * np.max(np.abs(row))


@pytest.mark.parametrize("kind", ["monomial", "shifted", "taylor", "newton",
                                  "chebyshev", "legendre", "bernstein", "lagrange", "hermite"])
@pytest.mark.parametrize("ell", [2, 3, 5, 8])
def test_partition_of_unity(kind, ell, rng):
    from conftest import make_basis

    basis = make_basis(kind, ell, rng)
    row = one_coefficients(basis, ell)
    rows = null_vector_basis_matrix(basis, ell)
    combo = row @ rows  # descending monomial coefficients of the constant 1
    target = np.zeros(rows.shape[1])
    target[-1] = 1.0
    assert np.max(np.abs(combo - target)) <= 1e-9
    for _ in range(20):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        value = sum(c * np.polyval(rows[i], z) for i, c in enumerate(row))
        assert abs(value - 1.0) <= 1e-9
