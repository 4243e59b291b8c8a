import tracemalloc
import warnings

import numpy as np
import pytest

import golden
from conftest import ALL_KINDS, hermite_polynomial, one_at_a_time, poly_nodes, random_polynomial
from polypencil import (
    Bernstein,
    ChebyshevT,
    CompanionPencil,
    DimensionMismatchError,
    GradeTooSmallError,
    Hermite,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Newton,
    NonFiniteError,
    build,
    build_bernstein,
    build_hermite,
    build_lagrange,
    build_three_term,
    equivalence_degree_graded,
    evaluate,
    flip_triple,
    make_triple,
    similarity_triple,
    transpose_triple,
    verify_equivalence,
    verify_triple,
)
from polypencil.linalg import det


def scalar(values):
    return [np.array([[v]], dtype=complex) for v in values]


def det_matches_polynomial(pc, p, zs, rtol=1e-8):
    for z in zs:
        lhs = det(pc.at(z))
        rhs = det(evaluate(p, z))
        assert abs(lhs - rhs) <= rtol * max(abs(rhs), 1e-30), (z, lhs, rhs)


class TestThreeTerm:
    def test_newton_reference(self):
        p = MatrixPolynomial.from_coefficients(Newton(nodes=golden.NEWTON_NODES),
                                               golden.NEWTON_COEFFS)
        pc = build_three_term(p)
        assert np.max(np.abs(pc.c0 - golden.NEWTON_C0)) <= 1e-12
        assert np.max(np.abs(pc.c1 - golden.NEWTON_C1)) <= 1e-12

    def test_scalar_monomial(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([1, 0, 1]))
        pc = build_three_term(p)
        assert np.allclose(pc.c1, np.eye(2))
        assert np.allclose(pc.c0, [[0, -1], [1, 0]])
        for z in (0.0, 1.0, 2.0):
            assert det(pc.at(z)) == pytest.approx(z * z + 1.0)

    def test_scalar_chebyshev_t2(self):
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), scalar([0, 0, 1]))
        pc = build_three_term(p)
        assert np.allclose(pc.c1, np.diag([2.0, 1.0]))
        assert np.allclose(pc.c0, [[0, 1], [1, 0]])
        for z in (0.3, -0.9, 1.7):
            assert det(pc.at(z)) == pytest.approx(2.0 * z * z - 1.0)

    def test_grade_one_special_case(self):
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), scalar([3, 2]))
        pc = build_three_term(p)
        assert pc.size == 1
        for z in (0.0, 0.7, -2.1):
            assert det(pc.at(z)) == pytest.approx(2.0 * z + 3.0)

    @pytest.mark.parametrize("kind", ["monomial", "shifted", "taylor", "newton", "chebyshev",
                                      "legendre", "custom"])
    def test_grade_one_is_the_single_block_pencil(self, kind, rng):
        # the Mandelbrot base level p_1 = z + 1 is the monomial case
        p = random_polynomial(kind, 2, 1, rng)
        a0, b0, _ = p.basis.recurrence_row(0)
        pc = build_three_term(p)
        assert np.array_equal(pc.c1, p.data[1] / a0)
        assert np.array_equal(pc.c0, (b0 / a0) * p.data[1] - p.data[0])

    def test_grade_zero_rejected(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([4]))
        with pytest.raises(GradeTooSmallError):
            build_three_term(p)


class TestBernstein:
    def test_monic_reference(self):
        p = MatrixPolynomial.from_coefficients(Bernstein(),
                                               golden.BERNSTEIN_MONIC_COEFFS)
        pc = build_bernstein(p)
        assert np.max(np.abs(pc.c1 - golden.BERNSTEIN_MONIC_C1)) <= 1e-12
        assert np.max(np.abs(pc.c0 - golden.BERNSTEIN_MONIC_C0)) <= 1e-12

    def test_singular_leading_reference(self):
        p = MatrixPolynomial.from_coefficients(Bernstein(),
                                               golden.BERNSTEIN_SINGULAR_COEFFS)
        pc = build_bernstein(p)
        assert np.max(np.abs(pc.c1[:2, :2] - golden.BERNSTEIN_SINGULAR_C1_BLOCK)) <= 1e-12
        assert abs(pc.c1[1, 0] - 5099.0 / 5940.0) <= 1e-12

    def test_scalar_squared_factor(self):
        # p = B_0^2 = (1-z)^2
        p = MatrixPolynomial.from_coefficients(Bernstein(), scalar([1, 0, 0]))
        pc = build_bernstein(p)
        assert np.allclose(pc.c0, [[0, -1], [1, 0]])
        assert np.allclose(pc.c1, [[0, -1], [1, 2]])
        for z in (0.0, 0.5, 2.0):
            assert det(pc.at(z)) == pytest.approx((1.0 - z) ** 2)

    def test_one_instance_serves_every_grade(self, rng):
        # the grade is the count of coefficients less one, so X = [1, 2, ..., ell]/ell (x) I
        basis = Bernstein()
        for ell in range(1, 7):
            p = MatrixPolynomial(basis, rng.standard_normal((ell + 1, 2, 2))
                                 + 1j * rng.standard_normal((ell + 1, 2, 2)))
            pc = build(p)
            t = make_triple(pc)
            zs = one_at_a_time(pc, 10, rng)
            det_matches_polynomial(pc, p, zs)
            assert verify_triple(t, p, zs) <= 1e-9
            x = np.kron(np.arange(1, ell + 1) / ell, np.eye(2))
            assert np.max(np.abs(t.x - x)) <= 1e-15
            assert verify_equivalence(equivalence_degree_graded(p)) <= 1e-8

    def test_grade_too_small(self):
        p = MatrixPolynomial.from_coefficients(Bernstein(), scalar([1]))
        with pytest.raises(GradeTooSmallError):
            build_bernstein(p)


class TestLagrange:
    def test_identity_samples_structure(self):
        p = MatrixPolynomial(Lagrange(nodes=golden.LAGRANGE_NODES),
                             [np.eye(2)] * 3)
        pc = build_lagrange(p)
        assert pc.size == 8
        eye = np.eye(2)
        for k in range(3):
            assert np.allclose(pc.c0[:2, 2 * (k + 1):2 * (k + 2)], -eye)
            assert np.allclose(pc.c0[2 * (k + 1):2 * (k + 2), :2],
                               golden.LAGRANGE_WEIGHTS[k] * eye)
            assert np.allclose(pc.c0[2 * (k + 1):2 * (k + 2), 2 * (k + 1):2 * (k + 2)],
                               golden.LAGRANGE_NODES[k] * eye)
        assert np.allclose(pc.c1, np.diag([0, 0, 1, 1, 1, 1, 1, 1]))

    def test_constant_one_determinant(self):
        p = MatrixPolynomial(Lagrange(nodes=[0.0, 1.0]), scalar([1, 1]))
        pc = build_lagrange(p)
        for z in (2.0, 3.0):
            assert det(pc.at(z)) == pytest.approx(1.0)

    def test_node_determinant_recovers_samples(self):
        # p(z) = z^2 sampled at [0, 1, 2]
        p = MatrixPolynomial(Lagrange(nodes=[0.0, 1.0, 2.0]),
                             scalar([0, 1, 4]))
        pc = build_lagrange(p)
        for tau, rho in zip([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]):
            assert abs(det(tau * pc.c1 - pc.c0) - rho) <= 1e-12

    def test_single_node_rejected(self):
        p = MatrixPolynomial(Lagrange(nodes=[0.0]), scalar([1]))
        with pytest.raises(GradeTooSmallError):
            build_lagrange(p)


class TestHermite:
    def test_scalar_reference(self):
        basis = Hermite(nodes=golden.HERMITE_SCALAR_NODES,
                        confluencies=golden.HERMITE_SCALAR_CONFL)
        groups = [scalar([1, 0]), scalar([1]), scalar([1]), scalar([1, 0, 0])]
        p = hermite_polynomial(basis, groups)
        pc = build_hermite(p)
        assert np.max(np.abs(pc.c0 - golden.HERMITE_SCALAR_C0)) <= 1e-12
        assert np.allclose(pc.c1, np.diag([0] + [1] * 7))

    def test_matrix_reference(self):
        basis = Hermite(nodes=golden.HERMITE_MATRIX_NODES,
                        confluencies=golden.HERMITE_MATRIX_CONFL)
        p = hermite_polynomial(basis, golden.HERMITE_MATRIX_RHO)
        pc = build_hermite(p)
        assert np.max(np.abs(pc.c0 - golden.HERMITE_MATRIX_C0)) <= 1e-12

    def test_single_node_is_bordered_frobenius(self, rng):
        # one node of full confluency recovers the monomial companion in
        # shifted powers, framed by one extra row and column
        tau = 0.3
        coeffs = rng.standard_normal(4)
        basis = Hermite(nodes=[tau], confluencies=[4])
        p = hermite_polynomial(basis, [scalar(coeffs)])
        pc = build_hermite(p)
        assert pc.size == 5
        assert np.allclose(pc.c0[0, 1:], -coeffs[::-1])
        assert np.allclose(np.diag(pc.c0)[1:], tau)
        assert np.allclose(np.diag(pc.c0, -1)[1:], 1.0)
        assert np.allclose(pc.c0[1:, 0], [1, 0, 0, 0])
        taylor = lambda z: sum(c * (z - tau) ** k for k, c in enumerate(coeffs))
        for z in (0.0, 1.5, -0.7):
            assert det(pc.at(z)) == pytest.approx(taylor(z))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n,ell", [(1, 2), (1, 5), (2, 3), (3, 2), (2, 6)])
def test_determinant_identity(kind, n, ell, rng):
    p = random_polynomial(kind, n, ell, rng)
    pc = build(p)
    nodes = poly_nodes(p)
    count = 0
    while count < 10:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if any(abs(z - t) < 0.05 for t in nodes):
            continue
        count += 1
        lhs = det(pc.at(z))
        rhs = det(evaluate(p, z))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kron_lift_matches_block_build(kind, rng):
    """Building blockwise equals lifting the scalar pencil by kron."""
    n, ell = 2, 3
    p_scalar = random_polynomial(kind, 1, ell, rng)
    eye = np.eye(n, dtype=complex)
    p_block = MatrixPolynomial(p_scalar.basis, p_scalar.data[:, :1, :1] * eye)
    pc_scalar = build(p_scalar)
    pc_block = build(p_block)
    assert np.array_equal(np.kron(pc_scalar.c1, eye), pc_block.c1)
    assert np.array_equal(np.kron(pc_scalar.c0, eye), pc_block.c0)


def test_custom_recurrence_end_to_end(rng):
    from polypencil import CustomThreeTerm, sample_points, verify_triple

    basis = CustomThreeTerm(alpha=(1.0, 0.6, 0.7, 0.8, 0.9),
                            beta=(0.1, -0.2, 0.05, 0.0, 0.3),
                            gamma=(0.0, 0.3, 0.2, 0.1, 0.25))
    coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(5)]
    p = MatrixPolynomial.from_coefficients(basis, coeffs)
    pc = build(p)
    det_matches_polynomial(pc, p, [0.3, -1.2, 0.8 + 0.4j, 2.0 - 1.0j])
    t = make_triple(pc)
    zs = sample_points(pc, 8, rng)
    assert verify_triple(t, p, zs) <= 1e-8


def test_deep_confluency_hermite(rng):
    from polypencil import sample_points, verify_triple

    basis = Hermite(nodes=[0.4, -0.9], confluencies=[5, 1])
    groups = [[rng.standard_normal((1, 1)) for _ in range(5)],
              [rng.standard_normal((1, 1))]]
    p = hermite_polynomial(basis, groups)
    pc = build(p)
    assert pc.size == 7  # (sum of confluencies - 1) + 2 blocks
    det_matches_polynomial(pc, p, [1.3, -0.2 + 0.5j, 2.4])
    t = make_triple(pc)
    assert verify_triple(t, p, sample_points(pc, 8, rng)) <= 1e-8


class TestTransforms:
    """The triple-level transforms, checked on the pencils they produce."""

    def test_flip_involution(self, rng):
        p = random_polynomial("chebyshev", 2, 3, rng)
        t = make_triple(build(p))
        back = flip_triple(flip_triple(t))
        assert np.array_equal(back.pencil.c1, t.pencil.c1)
        assert np.array_equal(back.pencil.c0, t.pencil.c0)
        assert np.array_equal(back.x, t.x)
        assert np.array_equal(back.y, t.y)

    def test_flip_reverses_diagonal(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([1, 2, 3, 4]))
        pc = build(p)
        flipped = flip_triple(make_triple(pc)).pencil
        assert np.allclose(np.diag(flipped.c1), np.diag(pc.c1)[::-1])

    def test_flip_transpose_chebyshev_band(self, rng):
        coeffs = rng.standard_normal(6)
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), scalar(coeffs))
        pc = transpose_triple(flip_triple(make_triple(build(p)))).pencil
        # bordered tridiagonal: nonzeros only on the band and the last column
        for i in range(5):
            for j in range(5):
                if abs(i - j) > 1 and j != 4:
                    assert pc.c0[i, j] == 0
                    assert pc.c1[i, j] == 0
        assert np.allclose(np.diag(pc.c1), [1, 2, 2, 2, 2 * coeffs[5]])
        assert np.allclose(np.diag(pc.c0, -1), [1, 1, 1, 1])
        assert np.allclose(np.diag(pc.c0, 1)[:3], [1, 1, 1])
        assert pc.c0[4, 4] == pytest.approx(-coeffs[4])
        # determinant is untouched by the transform
        for z in (0.3, -1.1):
            assert det(pc.at(z)) == pytest.approx(det(build(p).at(z)))

    def test_similarity_identity(self, rng):
        pc = build(random_polynomial("legendre", 2, 3, rng))
        same = similarity_triple(make_triple(pc), np.eye(pc.size)).pencil
        assert np.allclose(same.c1, pc.c1)
        assert np.allclose(same.c0, pc.c0)

    def test_similarity_by_sip_equals_flip(self, rng):
        """flip, the similarity by J, reverses the rows and columns exactly."""
        t = make_triple(build(random_polynomial("newton", 1, 4, rng)))
        flipped = flip_triple(t)
        assert np.array_equal(flipped.pencil.c0, t.pencil.c0[::-1, ::-1])
        assert np.array_equal(flipped.pencil.c1, t.pencil.c1[::-1, ::-1])
        assert np.array_equal(flipped.x, t.x[:, ::-1])
        assert np.array_equal(flipped.y, t.y[::-1])

    def test_similarity_preserves_determinant(self, rng):
        p = random_polynomial("monomial", 2, 3, rng)
        pc = build(p)
        s = np.eye(pc.size) + 0.3 * rng.standard_normal((pc.size, pc.size))
        moved = similarity_triple(make_triple(pc), s).pencil
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert det(moved.at(z)) == pytest.approx(det(pc.at(z)), rel=1e-8)

    def test_transpose_preserves_determinant(self, rng):
        pc = build(random_polynomial("bernstein", 2, 3, rng))
        moved = transpose_triple(make_triple(pc)).pencil
        for z in (0.4, -1.3 + 0.2j):
            assert det(moved.at(z)) == pytest.approx(det(pc.at(z)), rel=1e-10)

    def test_transformed_pencil_rejects_make_triple(self, rng):
        t = make_triple(build(random_polynomial("chebyshev", 1, 3, rng)))
        with pytest.raises(ValueError):
            make_triple(flip_triple(t).pencil)


class TestNonFinitePencil:
    """A finite document whose arithmetic overflows is refused where the pencil is built."""

    @pytest.mark.parametrize("basis, coeffs", [
        (Newton(nodes=[1.0, 1e308]), [1, 1, 2]),  # (b / a) * P_2 overflows
        (Bernstein(), [0, -1.7e308, 1.7e308]),  # P_2 / 2 - P_1 overflows
    ], ids=["newton", "bernstein"])
    def test_overflowing_builder_raises_without_a_warning(self, basis, coeffs):
        p = MatrixPolynomial.from_coefficients(basis, scalar(coeffs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="non-finite entries"):
                build(p)

    def test_constructor_rejects_a_size_of_part_blocks(self):
        # make_triple reads the grade off the block count, so the blocks must be whole
        with pytest.raises(DimensionMismatchError):
            CompanionPencil(c1=np.eye(3, dtype=complex), c0=np.eye(3, dtype=complex), n=2,
                            basis=Monomial())

    def test_constructor_rejects_a_non_finite_member(self):
        c1 = np.eye(2, dtype=complex)
        c0 = np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonFiniteError):
            CompanionPencil(c1=c1, c0=c0, n=1)
        with pytest.raises(NonFiniteError):
            CompanionPencil(c1=c0 * np.nan, c0=c1, n=1)



def test_at_allocates_the_stack_once():
    """z*C1 - C0 for ten points at N = 100: a 1.6 MB stack, and the product is that stack."""
    rng = np.random.default_rng(4)
    pc = build(random_polynomial("chebyshev", 5, 20, rng))
    zs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    tracemalloc.start()
    try:
        stack = pc.at(zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (10, 100, 100) and peak <= 1.05 * stack.nbytes
