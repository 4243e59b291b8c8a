from fractions import Fraction as F

import numpy as np
import pytest

import golden
from polypencil import (
    Bernstein,
    ChebyshevT,
    Lagrange,
    LegendreP,
    MatrixPolynomial,
    Monomial,
    SingularC0Error,
    build,
    build_three_term,
    equivalence_degree_graded,
    equivalence_lagrange,
    monomial_form,
    verify_equivalence,
)


def scalar(values):
    return [np.array([[v]], dtype=complex) for v in values]


def bernstein_reference_poly():
    return MatrixPolynomial.from_coefficients(Bernstein(grade=4),
                                              scalar(golden.EQUIV_BERNSTEIN_A))


class TestDegreeGraded:
    def test_bernstein_reference_pair(self):
        p = bernstein_reference_poly()
        pair = equivalence_degree_graded(p)
        assert np.max(np.abs(pair.e - golden.EQUIV_BERNSTEIN_E)) <= 1e-12
        assert np.max(np.abs(pair.f - golden.EQUIV_BERNSTEIN_F)) <= 1e-12
        pm = build_three_term(monomial_form(p))
        assert verify_equivalence(pair, build(p), pm) <= 1e-12

    def test_bernstein_reference_monomial_coefficients(self):
        # a = [1..5] collapses to the degree-1 polynomial 1 + 4z
        pm = monomial_form(bernstein_reference_poly())
        coeffs = [c[0, 0].real for c in pm.coefficients]
        assert coeffs == pytest.approx([1.0, 4.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_monomial_basis_gives_identity(self, rng):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([0.7, -0.3, 1.2, 0.4]))
        pair = equivalence_degree_graded(p)
        assert np.allclose(pair.e, np.eye(3), atol=1e-12)
        assert np.allclose(pair.f, np.eye(3), atol=1e-12)

    def test_chebyshev_random(self, rng):
        p = MatrixPolynomial.from_coefficients(ChebyshevT(),
                                               scalar(rng.standard_normal(4) + 1.0))
        pair = equivalence_degree_graded(p)
        pm = build_three_term(monomial_form(p))
        assert verify_equivalence(pair, build(p), pm) <= 1e-10

    def test_block_case_uses_tensor_lift(self, rng):
        coeffs = [rng.standard_normal((2, 2)) for _ in range(4)]
        coeffs[0] += 3.0 * np.eye(2)  # keep the constant term comfortably nonsingular
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), coeffs)
        pair = equivalence_degree_graded(p)
        assert pair.e.shape == (6, 6)
        pm = build_three_term(monomial_form(p))
        assert verify_equivalence(pair, build(p), pm) <= 1e-10

    def test_block_bernstein(self, rng):
        coeffs = [rng.standard_normal((2, 2)) for _ in range(4)]
        coeffs[0] += 3.0 * np.eye(2)
        p = MatrixPolynomial.from_coefficients(Bernstein(grade=3), coeffs)
        pair = equivalence_degree_graded(p)
        pm = build_three_term(monomial_form(p))
        assert verify_equivalence(pair, build(p), pm) <= 1e-10

    def test_singular_constant_term(self):
        # p(z) = z^2 makes the constant pencil term singular
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([0, 0, 1]))
        with pytest.raises(SingularC0Error):
            equivalence_degree_graded(p)

    def test_singular_constant_term_block(self, rng):
        # the second diagonal entry is L_1(z) = z, so P(0) and with it C0 are
        # singular; the LAPACK solve's failure must surface as SingularC0Error
        coeffs = [np.diag([rng.standard_normal() + 3.0, b]) for b in (0.0, 1.0, 0.0)]
        p = MatrixPolynomial.from_coefficients(LegendreP(), coeffs)
        assert np.linalg.matrix_rank(build(p).c0) < build(p).size
        with pytest.raises(SingularC0Error):
            equivalence_degree_graded(p)


class TestLagrange:
    def test_reference_pair(self, rng):
        nodes = golden.EQUIV_LAGRANGE_NODES
        rho = scalar(rng.standard_normal(4))
        p = MatrixPolynomial.from_samples(Lagrange(nodes=nodes), rho)
        pair = equivalence_lagrange(p)
        assert np.max(np.abs(pair.e - golden.EQUIV_LAGRANGE_E)) <= 1e-12
        assert np.max(np.abs(pair.f - golden.EQUIV_LAGRANGE_F)) <= 1e-12
        pm = build_three_term(monomial_form(p))
        assert verify_equivalence(pair, build(p), pm) <= 1e-12

    def test_monomial_coefficient_forms(self, rng):
        # values at the ascending nodes [-1, -1/2, 1/2, 1]
        ascending = [-1.0, -0.5, 0.5, 1.0]
        for _ in range(5):
            rho = [F(int(v), 8) for v in rng.integers(-40, 40, size=4)]
            expected = golden.lagrange_monomial_coefficients(rho)
            p = MatrixPolynomial.from_samples(
                Lagrange(nodes=ascending), scalar([float(r) for r in rho]))
            pm = monomial_form(p)
            got = [pm.coefficients[k][0, 0].real for k in range(4)]
            assert got == pytest.approx([float(a) for a in expected], abs=1e-12)
            assert np.allclose(pm.coefficients[4], 0.0) and np.allclose(pm.coefficients[5], 0.0)

    def test_constant_one(self):
        nodes = golden.EQUIV_LAGRANGE_NODES
        p = MatrixPolynomial.from_samples(Lagrange(nodes=nodes), scalar([1, 1, 1, 1]))
        pm = monomial_form(p)
        coeffs = [c[0, 0].real for c in pm.coefficients]
        assert coeffs == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-12)
        pair = equivalence_lagrange(p)
        assert verify_equivalence(pair, build(p), build_three_term(pm)) <= 1e-12

    def test_padded_pencil_shape(self, rng):
        nodes = golden.EQUIV_LAGRANGE_NODES
        p = MatrixPolynomial.from_samples(Lagrange(nodes=nodes),
                                          scalar(rng.standard_normal(4)))
        pm = build_three_term(monomial_form(p))
        assert pm.size == 5
        assert np.allclose(pm.c1, np.diag([0, 1, 1, 1, 1]))


def test_degree_graded_c1_transform_shape(rng):
    # the transformed leading matrix is the identity apart from the corner
    # block, which becomes the monomial leading coefficient
    coeffs = [rng.standard_normal((2, 2)) for _ in range(4)]
    coeffs[0] += 3.0 * np.eye(2)
    p = MatrixPolynomial.from_coefficients(ChebyshevT(), coeffs)
    pair = equivalence_degree_graded(p)
    lead = monomial_form(p).coefficients[-1]
    out = pair.e @ build(p).c1 @ pair.f
    expected = np.eye(6, dtype=complex)
    expected[:2, :2] = lead
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_pair_matrices_are_nonsingular(rng):
    from polypencil.linalg import det

    cases = [
        MatrixPolynomial.from_coefficients(Bernstein(grade=3),
                                           scalar(rng.standard_normal(4) + 2.0)),
        MatrixPolynomial.from_coefficients(ChebyshevT(),
                                           scalar(rng.standard_normal(5) + 2.0)),
        bernstein_reference_poly(),
    ]
    pairs = [equivalence_degree_graded(p) for p in cases]
    lag = MatrixPolynomial.from_samples(Lagrange(nodes=golden.EQUIV_LAGRANGE_NODES),
                                        scalar(rng.standard_normal(4)))
    pairs.append(equivalence_lagrange(lag))
    for pair in pairs:
        assert abs(det(pair.e)) > 1e-12
        assert abs(det(pair.f)) > 1e-12
