from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import golden
from conftest import COEFF_KINDS, hermite_polynomial, random_polynomial
from polypencil import (
    Bernstein,
    ChebyshevT,
    Hermite,
    Lagrange,
    LegendreP,
    MatrixPolynomial,
    Monomial,
    SingularC0Error,
    build,
    build_three_term,
    equivalence_degree_graded,
    equivalence_lagrange,
    evaluate,
    monomial_form,
    verify_equivalence,
)
from polypencil.bases import monomial_rows
from polypencil.linalg import guarded_solve


def scalar(values):
    return [np.array([[v]], dtype=complex) for v in values]


def bernstein_reference_poly():
    return MatrixPolynomial.from_coefficients(Bernstein(),
                                              scalar(golden.EQUIV_BERNSTEIN_A))


class TestDegreeGraded:
    def test_bernstein_reference_pair(self):
        p = bernstein_reference_poly()
        pair = equivalence_degree_graded(p)
        assert np.max(np.abs(pair.e - golden.EQUIV_BERNSTEIN_E)) <= 1e-12
        assert np.max(np.abs(pair.f - golden.EQUIV_BERNSTEIN_F)) <= 1e-12
        assert verify_equivalence(pair) <= 1e-12

    def test_bernstein_reference_monomial_coefficients(self):
        # a = [1..5] collapses to the degree-1 polynomial 1 + 4z
        pm = monomial_form(bernstein_reference_poly())
        coeffs = [c[0, 0].real for c in pm.data]
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
        assert verify_equivalence(pair) <= 1e-10

    def test_block_case_uses_tensor_lift(self, rng):
        coeffs = [rng.standard_normal((2, 2)) for _ in range(4)]
        coeffs[0] += 3.0 * np.eye(2)  # keep the constant term comfortably nonsingular
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), coeffs)
        pair = equivalence_degree_graded(p)
        assert pair.e.shape == (6, 6)
        assert verify_equivalence(pair) <= 1e-10

    def test_block_bernstein(self, rng):
        coeffs = [rng.standard_normal((2, 2)) for _ in range(4)]
        coeffs[0] += 3.0 * np.eye(2)
        p = MatrixPolynomial.from_coefficients(Bernstein(), coeffs)
        pair = equivalence_degree_graded(p)
        assert verify_equivalence(pair) <= 1e-10

    def test_singular_constant_term(self):
        # p(z) = z^2 makes the constant pencil term singular; E comes from C1 = I
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([0, 0, 1]))
        pair = equivalence_degree_graded(p)
        assert np.array_equal(pair.e, np.eye(2)) and np.array_equal(pair.f, np.eye(2))
        assert verify_equivalence(pair) == 0.0

    def test_singular_constant_term_block(self, rng):
        # the second diagonal entry is L_1(z) = z, so P(0) and with it C0 are
        # singular, and so is the leading coefficient diag(*, 0): with both
        # terms singular the LAPACK solve's failure surfaces as SingularC0Error
        coeffs = [np.diag([rng.standard_normal() + 3.0, b]) for b in (0.0, 1.0, 0.0)]
        p = MatrixPolynomial.from_coefficients(LegendreP(), coeffs)
        assert np.linalg.matrix_rank(build(p).c0) < build(p).size
        assert np.linalg.matrix_rank(build(p).c1) < build(p).size
        with pytest.raises(SingularC0Error, match="both the leading and the constant term"):
            equivalence_degree_graded(p)

    @pytest.mark.parametrize("kind", ["chebyshev", "legendre"])
    @pytest.mark.parametrize("n, ell", [(2, 8), (3, 5), (4, 15)])
    def test_leading_term_keeps_the_zeros_of_f_inverse(self, kind, n, ell):
        # C1_phi and C1_m are block diagonal with identity blocks below the
        # corner, so every block of E off the first block row and column is
        # diagonal, with exact zeros elsewhere
        p = random_polynomial(kind, n, ell, np.random.default_rng(ell))
        pair = equivalence_degree_graded(p)
        rows, cols = np.indices(pair.e.shape)
        kept = (rows < n) | (cols < n) | (rows % n == cols % n)
        assert np.count_nonzero(pair.e[~kept]) == 0
        assert verify_equivalence(pair) <= 1e-10

    @pytest.mark.parametrize("kind", [k for k in COEFF_KINDS if k != "bernstein"] + ["custom"])
    @pytest.mark.parametrize("n, ell", [(2, 8), (3, 5), (4, 15)])
    def test_first_block_column_of_e_is_exactly_zero_below_the_corner(self, kind, n, ell):
        # F is block upper triangular, so the inverse of F keeps exact zeros
        # below its first block, and C1_m and C1_phi are block diagonal
        p = random_polynomial(kind, n, ell, np.random.default_rng(ell))
        pair = equivalence_degree_graded(p)
        assert np.count_nonzero(pair.e[n:, :n]) == 0
        assert verify_equivalence(pair) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_bernstein_grade_15_meets_the_cli_tol(self, seed):
        # F is not triangular and ill conditioned: E from its bare inverse misses 1e-8
        p = random_polynomial("bernstein", 4, 15, np.random.default_rng(seed))
        assert verify_equivalence(equivalence_degree_graded(p)) <= 1e-8

    def test_singular_leading_coefficient_falls_back_to_the_constant_term(self, rng):
        coeffs = [rng.standard_normal((2, 2)) for _ in range(3)] + [np.zeros((2, 2))]
        coeffs[0] += 3.0 * np.eye(2)  # P(0) = P_0 - P_2 stays nonsingular
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), coeffs)
        c1 = build(p).c1
        assert not guarded_solve(c1, np.eye(len(c1)))[1]
        assert verify_equivalence(equivalence_degree_graded(p)) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_chebyshev_grade_15_verdict(self, seed):
        # E solved from the constant term misses the CLI's --tol (1e-8) on these documents
        p = random_polynomial("chebyshev", 4, 15, np.random.default_rng(seed))
        assert verify_equivalence(equivalence_degree_graded(p)) <= 1e-9


class TestLagrange:
    def test_reference_pair(self, rng):
        nodes = golden.EQUIV_LAGRANGE_NODES
        rho = scalar(rng.standard_normal(4))
        p = MatrixPolynomial(Lagrange(nodes=nodes), rho)
        pair = equivalence_lagrange(p)
        assert np.max(np.abs(pair.e - golden.EQUIV_LAGRANGE_E)) <= 1e-12
        assert np.max(np.abs(pair.f - golden.EQUIV_LAGRANGE_F)) <= 1e-12
        assert verify_equivalence(pair) <= 1e-12

    def test_monomial_coefficient_forms(self, rng):
        # values at the ascending nodes [-1, -1/2, 1/2, 1]
        ascending = [-1.0, -0.5, 0.5, 1.0]
        for _ in range(5):
            rho = [F(int(v), 8) for v in rng.integers(-40, 40, size=4)]
            expected = golden.lagrange_monomial_coefficients(rho)
            p = MatrixPolynomial(
                Lagrange(nodes=ascending), scalar([float(r) for r in rho]))
            pm = monomial_form(p)
            got = [pm.data[k][0, 0].real for k in range(4)]
            assert got == pytest.approx([float(a) for a in expected], abs=1e-12)
            assert np.allclose(pm.data[4], 0.0) and np.allclose(pm.data[5], 0.0)

    def test_constant_one(self):
        nodes = golden.EQUIV_LAGRANGE_NODES
        p = MatrixPolynomial(Lagrange(nodes=nodes), scalar([1, 1, 1, 1]))
        pm = monomial_form(p)
        coeffs = [c[0, 0].real for c in pm.data]
        assert coeffs == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-12)
        pair = equivalence_lagrange(p)
        assert verify_equivalence(pair) <= 1e-12

    def test_padded_pencil_shape(self, rng):
        nodes = golden.EQUIV_LAGRANGE_NODES
        p = MatrixPolynomial(Lagrange(nodes=nodes),
                             scalar(rng.standard_normal(4)))
        pm = build_three_term(monomial_form(p))
        assert pm.size == 5
        assert np.allclose(pm.c1, np.diag([0, 1, 1, 1, 1]))


class TestHermite:
    @pytest.mark.parametrize("grade", [4, 7, 10])
    @pytest.mark.parametrize("seed", range(10))
    def test_pair_holds(self, seed, grade):
        p = random_polynomial("hermite", 2, grade, np.random.default_rng(seed))
        assert verify_equivalence(equivalence_lagrange(p)) <= 1e-10

    @pytest.mark.parametrize("grade", [4, 7, 10])
    @pytest.mark.parametrize("seed", range(10))
    def test_perturbed_e_or_f_fails(self, seed, grade):
        pair = equivalence_lagrange(
            random_polynomial("hermite", 2, grade, np.random.default_rng(seed)))
        for field in ("e", "f"):
            wrong = getattr(pair, field).copy()
            wrong[np.unravel_index(np.argmax(np.abs(wrong)), wrong.shape)] *= 1 + 1e-6
            assert verify_equivalence(replace(pair, **{field: wrong})) > 1e-8, field

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_confluencies_match_lagrange_bitwise(self, seed):
        lag = random_polynomial("lagrange", 2, 8, np.random.default_rng(seed))
        her = MatrixPolynomial(Hermite(nodes=lag.basis.nodes, confluencies=[1] * 9), lag.data)
        a, b = equivalence_lagrange(lag), equivalence_lagrange(her)
        for got, want in ((b.e, a.e), (b.f, a.f), (b.phi.c0, a.phi.c0),
                          (b.monomial.c0, a.monomial.c0)):
            assert got.tobytes() == want.tobytes()

    def test_monomial_form_of_taylor_data(self):
        # p(z) = 1 + 2z + 3z^2: p(0) = 1, p'(0) = 2 and p(1) = 6
        p = hermite_polynomial(Hermite(nodes=[0.0, 1.0], confluencies=[2, 1]),
                               [scalar([1, 2]), scalar([6])])
        coeffs = [c[0, 0] for c in monomial_form(p).data]
        assert coeffs == pytest.approx([1, 2, 3, 0, 0], abs=1e-12)


def test_degree_graded_c1_transform_shape(rng):
    # the transformed leading matrix is the identity apart from the corner
    # block, which becomes the monomial leading coefficient
    coeffs = [rng.standard_normal((2, 2)) for _ in range(4)]
    coeffs[0] += 3.0 * np.eye(2)
    p = MatrixPolynomial.from_coefficients(ChebyshevT(), coeffs)
    pair = equivalence_degree_graded(p)
    lead = monomial_form(p).data[-1]
    out = pair.e @ build(p).c1 @ pair.f
    expected = np.eye(6, dtype=complex)
    expected[:2, :2] = lead
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_pair_matrices_are_nonsingular(rng):
    from polypencil.linalg import det

    cases = [
        MatrixPolynomial.from_coefficients(Bernstein(),
                                           scalar(rng.standard_normal(4) + 2.0)),
        MatrixPolynomial.from_coefficients(ChebyshevT(),
                                           scalar(rng.standard_normal(5) + 2.0)),
        bernstein_reference_poly(),
    ]
    pairs = [equivalence_degree_graded(p) for p in cases]
    lag = MatrixPolynomial(Lagrange(nodes=golden.EQUIV_LAGRANGE_NODES),
                           scalar(rng.standard_normal(4)))
    pairs.append(equivalence_lagrange(lag))
    her = hermite_polynomial(Hermite(nodes=[1.0, 0.0], confluencies=[2, 1]),
                             [scalar([1, 2]), scalar([3])])
    pairs.append(equivalence_lagrange(her))
    for pair in pairs:
        assert abs(det(pair.e)) > 1e-12
        assert abs(det(pair.f)) > 1e-12


@pytest.mark.parametrize("kind", COEFF_KINDS + ("custom", "lagrange", "hermite"))
@pytest.mark.parametrize("seed", range(5))
def test_monomial_form_is_the_same_polynomial(kind, seed):
    # bound: rounding of the change of basis, sum_k ||P_k|| sum_m |R_km| |z|^m
    rng = np.random.default_rng(seed)
    p = random_polynomial(kind, 2, 8, rng)
    rows = np.abs(monomial_rows(p.basis, p.grade + 1)[::-1, ::-1])  # [k, m]: z^m in phi_k
    norms = np.linalg.norm(p.data, axis=(1, 2))
    pm = monomial_form(p)
    for z in rng.uniform(0, 1, 5) * np.exp(2j * np.pi * rng.uniform(size=5)):
        scale = norms @ rows @ abs(z) ** np.arange(p.grade + 1)
        assert np.linalg.norm(evaluate(pm, z) - evaluate(p, z)) <= 1e-13 * scale


@pytest.mark.parametrize("seed", range(10))
def test_lagrange_grade_23_pair_holds(seed):
    p = random_polynomial("lagrange", 4, 23, np.random.default_rng(seed))
    assert verify_equivalence(equivalence_lagrange(p)) <= 1e-4


def test_pair_carries_the_pencils_it_relates(rng):
    cheb = MatrixPolynomial.from_coefficients(ChebyshevT(), scalar(rng.standard_normal(5) + 2.0))
    lag = MatrixPolynomial(Lagrange(nodes=golden.EQUIV_LAGRANGE_NODES),
                           scalar(rng.standard_normal(4)))
    for p, pair in ((cheb, equivalence_degree_graded(cheb)), (lag, equivalence_lagrange(lag))):
        pm = build_three_term(monomial_form(p))
        for got, want in ((pair.phi, build(p)), (pair.monomial, pm)):
            assert np.array_equal(got.c1, want.c1) and np.array_equal(got.c0, want.c0)
