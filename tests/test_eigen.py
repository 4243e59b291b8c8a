import dataclasses
import warnings

import numpy as np
import pytest

import golden
from conftest import TEN_KINDS, rand_matrix, random_polynomial
from polypencil import (
    Bernstein,
    ChebyshevT,
    CompanionPencil,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Newton,
    NoConvergenceError,
    SingularPencilEverywhereError,
    build,
    build_algebraic,
    eig,
    eigen_residual,
    evaluate,
    generalized_eigenvalues,
    hessenberg,
    make_triple,
    qr_eigenvalues,
)
from polypencil import eigen
from polypencil.eigen import _balancing, _finite_part, _staircase
from polypencil.linalg import det


def scalar(values):
    return [np.array([[v]], dtype=complex) for v in values]


def sorted_eigs(values):
    return np.array(sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9))))


class TestHessenberg:
    def test_already_hessenberg(self, rng):
        h = np.triu(rand_matrix(rng, 5), -1)
        out = hessenberg(h)
        below = np.tril(out, -2)
        assert np.max(np.abs(below)) <= 1e-13
        # unitary column/row rescaling only: magnitudes survive
        assert np.allclose(np.abs(out), np.abs(h), atol=1e-12)

    def test_two_by_two_untouched(self, rng):
        a = rand_matrix(rng, 2)
        assert np.array_equal(hessenberg(a), a)

    def test_random_reduction(self, rng):
        a = rand_matrix(rng, 6)
        h = hessenberg(a)
        assert np.max(np.abs(np.tril(h, -2))) <= 1e-13 * np.linalg.norm(a)

    def test_spectrum_preserved(self, rng):
        a = rand_matrix(rng, 7)
        ours = sorted_eigs(qr_eigenvalues(hessenberg(a)))
        reference = sorted_eigs(np.linalg.eigvals(a))
        assert np.max(np.abs(ours - reference)) <= 1e-9 * max(1.0, np.max(np.abs(reference)))


class TestQREigenvalues:
    def test_diagonal(self):
        values = sorted_eigs(qr_eigenvalues(np.diag([1.0, 2.0, 3.0j])))
        assert np.allclose(values, sorted_eigs(np.array([1.0, 2.0, 3.0j])), atol=1e-12)

    def test_companion_of_square_plus_one(self):
        companion = np.array([[0.0, -1.0], [1.0, 0.0]])
        values = sorted_eigs(qr_eigenvalues(companion))
        assert np.allclose(values, [-1.0j, 1.0j], atol=1e-12)

    def test_trace_and_determinant_identities(self, rng):
        a = rand_matrix(rng, 8)
        h = hessenberg(a)
        values = qr_eigenvalues(h)
        assert np.sum(values) == pytest.approx(np.trace(a), rel=1e-8)
        assert np.prod(values) == pytest.approx(det(a), rel=1e-8)

    def test_budget_exhaustion_raises(self, rng):
        a = hessenberg(rand_matrix(rng, 6))
        with pytest.raises(NoConvergenceError):
            qr_eigenvalues(a, budget_factor=0)

    def test_matches_numpy_on_many(self, rng):
        for n in (3, 5, 10, 14):
            a = rand_matrix(rng, n)
            ours = sorted_eigs(eig(a))
            reference = sorted_eigs(np.linalg.eigvals(a))
            scale = max(1.0, np.max(np.abs(reference)))
            assert np.max(np.abs(ours - reference)) <= 1e-8 * scale


class TestGeneralizedEigenvalues:
    def test_square_plus_one(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([1, 0, 1]))
        result = generalized_eigenvalues(build(p), p)
        assert result.infinite_count == 0
        values = sorted_eigs([l for l, _ in result.finite])
        assert np.allclose(values, [-1.0j, 1.0j], atol=1e-8)
        assert all(res <= 1e-10 for _, res in result.finite)

    def test_constant_identity_lagrange(self):
        p = MatrixPolynomial(Lagrange(nodes=golden.LAGRANGE_NODES),
                             [np.eye(2)] * 3)
        pc = build(p)
        result = generalized_eigenvalues(pc, p)
        # det(z C1 - C0) is the constant 1: everything is at infinity
        assert result.finite == () and result.infinite_count == pc.size

    def test_newton_example_residuals(self):
        p = MatrixPolynomial.from_coefficients(Newton(nodes=golden.NEWTON_NODES),
                                               golden.NEWTON_COEFFS)
        result = generalized_eigenvalues(build(p), p)
        assert len(result.finite) == 6
        assert all(res <= 1e-8 for _, res in result.finite)

    def test_lagrange_infinite_count_at_full_degree(self, rng):
        for n, ell in [(1, 3), (2, 3), (3, 2)]:
            coeffs = [rand_matrix(rng, n) for _ in range(ell + 1)]
            pm = MatrixPolynomial.from_coefficients(Monomial(), coeffs)
            nodes = [complex(np.cos(np.pi * k / ell)) for k in range(ell + 1)]
            p = MatrixPolynomial(Lagrange(nodes=nodes),
                                 [evaluate(pm, t) for t in nodes])
            result = generalized_eigenvalues(build(p), p)
            assert result.infinite_count >= 2 * n

    def test_counts_cover_pencil_size(self, rng):
        for kind in ("legendre", "lagrange", "hermite"):
            p = random_polynomial(kind, 2, 3, rng)
            pc = build(p)
            result = generalized_eigenvalues(pc, p)
            assert len(result.finite) + result.infinite_count == pc.size

    def test_shift_independence(self, rng):
        p = random_polynomial("chebyshev", 2, 4, rng)
        pc = build(p)
        first = generalized_eigenvalues(pc, p, rng=np.random.default_rng(11))
        second = generalized_eigenvalues(pc, p, rng=np.random.default_rng(97))
        assert first.shift_used != second.shift_used
        a = sorted_eigs([l for l, _ in first.finite])
        b = sorted_eigs([l for l, _ in second.finite])
        assert len(a) == len(b)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_reported_eigenvalues_satisfy_both_checks(self, rng):
        for kind in ("monomial", "chebyshev"):
            p = random_polynomial(kind, 2, 3, rng)
            pc = build(p)
            result = generalized_eigenvalues(pc, p)
            for lam, res in result.finite:
                assert res <= 1e-6
                m = pc.at(lam)
                hadamard = np.prod(np.linalg.norm(m, axis=1))
                assert abs(det(m)) <= 1e-6 * max(hadamard, 1e-300)


class TestEigenResidual:
    def test_exact_root(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([6, -5, 1]))
        assert eigen_residual(p, 2.0) <= 1e-12

    def test_non_root_is_order_one(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([6, -5, 1]))
        value = eigen_residual(p, 0.0)
        assert 0.5 <= value <= 2.0

    def test_bernstein_example_eigenvalues(self):
        p = MatrixPolynomial.from_coefficients(Bernstein(),
                                               golden.BERNSTEIN_MONIC_COEFFS)
        result = generalized_eigenvalues(build(p), p)
        assert result.finite
        for lam, res in result.finite:
            assert res <= 1e-8
            assert eigen_residual(p, lam) <= 1e-8

    def test_backward_error_ignores_z_scaling(self):
        # P~(z) = P(z/20) multiplies every eigenvalue by 20; in exact arithmetic
        # eta_P~(20 z) = eta_P(z) at every z, eigenvalues included
        for seed in range(3):
            rng = np.random.default_rng(seed)
            coeffs = [rand_matrix(rng, 3) for _ in range(9)]
            p = MatrixPolynomial.from_coefficients(Monomial(), coeffs)
            scaled = MatrixPolynomial.from_coefficients(
                Monomial(), [c / 20.0 ** k for k, c in enumerate(coeffs)])
            for z in 1.5 * np.exp(1j * np.linspace(0.0, 6.0, 5)):
                assert eigen_residual(scaled, 20.0 * z) == pytest.approx(
                    eigen_residual(p, z), rel=1e-9)
            worst = max(res for _, res in generalized_eigenvalues(build(p), p).finite)
            worst_scaled = max(res for _, res in
                               generalized_eigenvalues(build(scaled), scaled).finite)
            assert 0.1 <= worst_scaled / worst <= 10.0


class TestClassification:
    def test_large_chebyshev_eigenvalue_stays_finite(self):
        rng = np.random.default_rng(0)
        p = random_polynomial("chebyshev", 2, 20, rng)
        # a small leading coefficient pushes eigenvalues out past |z| = 5,
        # where T_20 is about 1e19
        coeffs = list(p.data[:-1]) + [0.1 * p.data[-1]]
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), coeffs)
        pc = build(p)
        result = generalized_eigenvalues(pc, p)
        assert result.infinite_count == 0 and len(result.finite) == 40
        assert all(res <= 1e-6 for _, res in result.finite)
        reference = np.linalg.eigvals(np.linalg.solve(pc.c1, pc.c0))
        large = [lam for lam, _ in result.finite if abs(lam) > 5.0]
        assert large
        for lam in large:
            assert np.min(np.abs(reference - lam)) <= 1e-8 * abs(lam)

    def test_clustered_hermite_keeps_every_eigenvalue(self):
        # confluent nodes close together make eta of order 1e-6 to 1e-3 (the
        # noise of evaluating P there), yet all 36 eigenvalues are genuine
        p = random_polynomial("hermite", 2, 18, np.random.default_rng(302))
        pc = build(p)
        result = generalized_eigenvalues(pc, p)
        assert len(result.finite) == 36 and result.infinite_count == pc.size - 36
        sigma = result.shift_used
        thetas = np.linalg.eigvals(np.linalg.solve(sigma * pc.c1 - pc.c0, pc.c1))
        thetas = thetas[np.abs(thetas) > 1e-8 * np.abs(thetas).max()]
        reference = sigma - 1.0 / thetas
        ours = np.array([lam for lam, _ in result.finite])
        assert len(reference) == 36
        dist = np.abs(ours[:, None] - reference[None, :]) / np.maximum(1.0, np.abs(ours))[:, None]
        assert dist.min(axis=1).max() <= 1e-8
        assert dist.min(axis=0).max() <= 1e-8

    @pytest.mark.parametrize("kind", ["lagrange", "hermite"])
    @pytest.mark.parametrize("seed", range(20))
    def test_split_comes_from_the_pencil_alone(self, kind, seed):
        n = 2
        p = random_polynomial(kind, n, 10, np.random.default_rng(seed))
        pc = build(p)
        with_p = generalized_eigenvalues(pc, p, rng=np.random.default_rng(seed))
        without_p = generalized_eigenvalues(pc, None, rng=np.random.default_rng(seed))
        # an interpolation pencil has exactly 2n eigenvalues at infinity
        assert len(with_p.finite) == pc.size - 2 * n
        assert [lam for lam, _ in with_p.finite] == [lam for lam, _ in without_p.finite]
        assert with_p.infinite_count == without_p.infinite_count


class TestBalancedShift:
    """The pencil is balanced before a shift is accepted on its LAPACK rcond."""

    def test_hermite_document_every_unbalanced_shift_refused(self):
        # confluent nodes 0.974 and 0.966: unbalanced, every shift on |sigma| = 1.37
        # had a pivot ratio near 1e-14, below PIVOT_GUARD
        sl = pytest.importorskip("scipy.linalg")
        p = random_polynomial("hermite", 2, 18, np.random.default_rng(15))
        pc = build(p)
        result = generalized_eigenvalues(pc, None)
        assert len(result.finite) == 36 and result.infinite_count == pc.size - 36
        assert max(res for _, res in result.finite) <= 1e-14
        # QZ on the balanced (exactly equivalent) pencil; unbalanced, QZ itself is
        # off by up to 0.1 here, while 40-digit arithmetic agrees with both to 2e-10
        d_l, d_r = _balancing(pc.c1, pc.c0)
        reference = sl.eigvals(d_l[:, None] * pc.c0 * d_r, d_l[:, None] * pc.c1 * d_r)
        reference = reference[np.isfinite(reference) & (np.abs(reference) < 1e6)]
        ours = np.array([lam for lam, _ in result.finite])
        assert len(reference) == 36
        dist = np.abs(ours[:, None] - reference[None, :]) / np.maximum(1.0, np.abs(ours))[:, None]
        assert dist.min(axis=1).max() <= 1e-8 and dist.min(axis=0).max() <= 1e-8

    @pytest.mark.parametrize("kind", ["lagrange", "hermite"])
    @pytest.mark.parametrize("seed", range(20))
    def test_interpolation_pencil_at_grade_18_is_never_refused(self, kind, seed):
        n = 2
        p = random_polynomial(kind, n, 18, np.random.default_rng(seed))
        pc = build(p)
        result = generalized_eigenvalues(pc, p)
        assert len(result.finite) == pc.size - 2 * n

    def test_scalings_are_powers_of_two_that_even_out_a_graded_pencil(self, rng):
        pc = build(random_polynomial("chebyshev", 3, 6, rng))
        grade = np.ldexp(1.0, rng.integers(-6, 7, size=(2, pc.size)))
        c1 = grade[0][:, None] * pc.c1 * grade[1]
        c0 = grade[0][:, None] * pc.c0 * grade[1]
        d_l, d_r = _balancing(c1, c0)
        assert np.array_equal(np.ldexp(1.0, np.frexp(d_l)[1] - 1), d_l)
        assert np.array_equal(np.ldexp(1.0, np.frexp(d_r)[1] - 1), d_r)
        w = np.abs(d_l[:, None] * c1 * d_r) ** 2 + np.abs(d_l[:, None] * c0 * d_r) ** 2
        # once no factor moves, every row sum, and every column sum, lies within a
        # factor of 2 of one common level
        for sums in (w.sum(axis=1), w.sum(axis=0)):
            assert sums.max() / sums.min() < 4.0
        graded = dataclasses.replace(pc, c1=c1, c0=c0)
        ours = sorted_eigs([lam for lam, _ in generalized_eigenvalues(graded).finite])
        plain = sorted_eigs([lam for lam, _ in generalized_eigenvalues(pc).finite])
        assert len(ours) == len(plain)
        assert np.max(np.abs(ours - plain) / np.maximum(1.0, np.abs(plain))) <= 1e-8

    def test_zero_row_and_huge_entries_stop(self):
        c1 = np.diag([1e300, 1.0, 0.0]).astype(complex)
        c0 = np.zeros((3, 3), dtype=complex)
        c0[1, 2] = 1e-300
        d_l, d_r = _balancing(c1, c0)
        assert np.all(np.isfinite(d_l)) and np.all(np.isfinite(d_r))
        assert d_l[2] == 1.0  # row 2 is zero: nothing to scale


def _nearest_distance(ours, theirs):
    """Largest relative distance from a value of either set to the nearest of the other."""
    ours, theirs = np.array(ours), np.array(theirs)
    dist = np.abs(ours[:, None] - theirs[None, :]) / np.maximum(1.0, np.abs(ours))[:, None]
    return max(dist.min(axis=1).max(), dist.min(axis=0).max())


class TestCertifiedFinitePart:
    """Structural infinities deflated, the rest certified finite, values without vectors."""

    @pytest.mark.parametrize("kind", TEN_KINDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_the_classified_full_pencil(self, kind, seed, monkeypatch):
        def refuse(*args):
            raise AssertionError("the certificate failed")

        monkeypatch.setattr(eigen, "_staircase", refuse)
        n = 2
        p = random_polynomial(kind, n, 6, np.random.default_rng(seed))
        pc = build(p)
        result = generalized_eigenvalues(pc, p, rng=np.random.default_rng(seed))
        assert result.infinite_count == (2 * n if kind in ("lagrange", "hermite") else 0)
        # the full pencil shift-inverted at the same shift, its thetas split by a
        # plain threshold: the finite and the infinite ones are orders apart here
        sigma = result.shift_used
        thetas = np.linalg.eigvals(np.linalg.solve(sigma * pc.c1 - pc.c0, pc.c1))
        reference = sigma - 1.0 / thetas[np.abs(thetas) > 1e-8 * np.abs(thetas).max()]
        assert len(result.finite) == len(reference)
        assert _nearest_distance([lam for lam, _ in result.finite], reference) <= 1e-10

    @pytest.mark.parametrize("kind", ["lagrange", "hermite"])
    @pytest.mark.parametrize("seed", range(10))
    def test_lifted_eigenvectors_are_backward_stable(self, kind, seed):
        n = 2
        pc = build(random_polynomial(kind, n, 18, np.random.default_rng(seed)))
        result = generalized_eigenvalues(pc, None, rng=np.random.default_rng(seed))
        assert len(result.finite) == pc.size - 2 * n
        # against the original C1 and C0, through the lifted eigenvectors
        assert max(res for _, res in result.finite) <= 1e-13

    def test_rank_deficient_samples_refuse_the_deflation(self, rng):
        p = random_polynomial("lagrange", 2, 4, rng)
        _finite_part(build(p))
        rows_equal = MatrixPolynomial(p.basis, [np.vstack([s[0], s[0]])
                                                for s in p.data])
        zero = MatrixPolynomial(p.basis, [np.zeros((2, 2))] * len(p.data))
        for singular in (rows_equal, zero):
            with pytest.raises(SingularPencilEverywhereError, match="pencil is singular"):
                _finite_part(build(singular))

    def test_deflated_pencil_has_the_finite_eigenvalues(self, rng):
        p = random_polynomial("hermite", 2, 7, rng)
        pc = build(p)
        e, f, _ = _finite_part(pc)
        assert e.shape == (pc.size - 4, pc.size - 4)
        ours = np.linalg.eigvals(np.linalg.solve(e, f))
        result = generalized_eigenvalues(pc, p)
        assert _nearest_distance(ours, [lam for lam, _ in result.finite]) <= 1e-10


def _with_zero_leading(p, zeros=1):
    """p with its top `zeros` coefficients replaced by zero blocks (same basis, same grade)."""
    data = list(p.data[:len(p.data) - zeros]) + [np.zeros((p.n, p.n))] * zeros
    return MatrixPolynomial.from_coefficients(p.basis, data)


def _lower_grade_reference(p, zeros):
    """Eigenvalues of p without its top `zeros` coefficients, from its nonsingular leading term."""
    pc = build(MatrixPolynomial.from_coefficients(p.basis, list(p.data[:len(p.data) - zeros])))
    return np.linalg.eigvals(np.linalg.solve(pc.c1, pc.c0))


class TestStaircase:
    """Infinite eigenvalues the certificate cannot rule out are deflated exactly."""

    def test_zero_leading_coefficient_matches_the_lower_grade_oracle(self):
        p = random_polynomial("chebyshev", 2, 5, np.random.default_rng(3))
        pc = build(_with_zero_leading(p))
        for poly in (_with_zero_leading(p), None):
            result = generalized_eigenvalues(pc, poly, rng=np.random.default_rng(8))
            assert result.infinite_count == 2 and len(result.finite) == 8
            assert all(res <= 1e-13 for _, res in result.finite)
            assert _nearest_distance([lam for lam, _ in result.finite],
                                     _lower_grade_reference(p, 1)) <= 1e-10

    def test_index_two_infinity_takes_two_steps(self):
        # two zero top coefficients: C1 loses rank n, yet 2n eigenvalues are
        # infinite, in Jordan chains of length 2 that one step cannot deflate
        n = 2
        p = random_polynomial("chebyshev", n, 3, np.random.default_rng(1))
        pc = build(_with_zero_leading(p, 2))
        singular = np.linalg.svd(pc.c1, compute_uv=False)
        assert np.count_nonzero(singular <= 1e-12 * singular[0]) == n
        e, f, q = _staircase(pc.c1, pc.c0, pc.size)
        assert e.shape == f.shape == (n, n) and q.shape == (pc.size, n)
        result = generalized_eigenvalues(pc, None)
        assert result.infinite_count == 2 * n and len(result.finite) == n
        assert all(res <= 1e-13 for _, res in result.finite)
        assert _nearest_distance([lam for lam, _ in result.finite],
                                 _lower_grade_reference(p, 2)) <= 1e-10

    @pytest.mark.parametrize("p", [
        # P(z) = [[1, z], [z, z^2]]: its samples have full row rank, so the
        # arrowhead deflates and the staircase finds the common left null vector
        MatrixPolynomial(Lagrange(nodes=[1, 0.5, -0.5, -1]),
                         [np.array([[1, t], [t, t * t]]) for t in [1, 0.5, -0.5, -1]]),
        MatrixPolynomial.from_coefficients(Monomial(), [np.array([[1, 0], [0, 0]]),
                                                        np.array([[0, 1], [1, 0]]),
                                                        np.array([[0, 0], [0, 1]])]),
    ], ids=["lagrange", "monomial"])
    def test_singular_pencil_raises(self, p):
        with pytest.raises(SingularPencilEverywhereError, match="pencil is singular"):
            generalized_eigenvalues(build(p), p)

    @pytest.mark.parametrize("seed", range(5))
    def test_lifted_eigenvectors_of_lower_degree_data(self, seed):
        # a cubic sampled at 19 nodes: the arrowhead deflates 2n infinities and
        # the staircase the 15n others; eigenvectors lift through both
        n, degree, nodes = 2, 3, [complex(np.cos(np.pi * k / 18)) for k in range(19)]
        rng = np.random.default_rng(seed)
        coeffs = [rand_matrix(rng, n) for _ in range(degree + 1)]
        pm = MatrixPolynomial.from_coefficients(Monomial(), coeffs)
        p = MatrixPolynomial(Lagrange(nodes=nodes), [evaluate(pm, t) for t in nodes])
        pc = build(p)
        result = generalized_eigenvalues(pc, None, rng=np.random.default_rng(seed))
        assert len(result.finite) == n * degree and result.infinite_count == pc.size - n * degree
        assert max(res for _, res in result.finite) <= 1e-13
        reference = np.linalg.eigvals(np.linalg.solve(build(pm).c1, build(pm).c0))
        assert _nearest_distance([lam for lam, _ in result.finite], reference) <= 1e-8


def _mandelbrot_pencil(depth, c):
    """Pencil of p_depth from p_1 = z + 1 and p_{k+1} = z p_k^2 + c."""
    one = np.eye(1, dtype=complex)
    triple = make_triple(build(MatrixPolynomial.from_coefficients(Monomial(), [one, one])))
    for _ in range(depth - 1):
        triple = build_algebraic(triple, triple, c * one)
    return triple.pencil


class TestReferenceSolver:
    """The LAPACK path against the self-contained Hessenberg + QR solver."""

    def test_same_finite_eigenvalues(self, rng):
        cases = [(build(p), p) for p in (random_polynomial("chebyshev", 2, 6, rng),
                                          random_polynomial("lagrange", 2, 5, rng),
                                          random_polynomial("hermite", 2, 5, rng))]
        cases.append((_mandelbrot_pencil(5, 1.0 + 0.05j), None))
        for pc, p in cases:
            result = generalized_eigenvalues(pc, p)
            sigma = result.shift_used
            a = np.linalg.solve(sigma * pc.c1 - pc.c0, pc.c1)
            thetas = qr_eigenvalues(hessenberg(a))
            # the finite and the infinite thetas are many orders apart here
            thetas = thetas[np.abs(thetas) > 1e-8 * np.linalg.norm(a)]
            reference = sigma - 1.0 / thetas
            ours = np.array([lam for lam, _ in result.finite])
            assert len(ours) == len(reference)
            dist = np.abs(ours[:, None] - reference[None, :]) / np.maximum(1.0, np.abs(ours))[:, None]
            assert dist.min(axis=1).max() <= 1e-8
            assert dist.min(axis=0).max() <= 1e-8


class TestIdentityLeadingTerm:
    """A pencil with C1 exactly I is solved as the standard problem for C0."""

    def test_mandelbrot_level_matches_eigvals_and_the_shift_path(self):
        pc = _mandelbrot_pencil(5, 1.0 + 0.05j)
        assert np.array_equal(pc.c1, np.eye(pc.size))
        result = generalized_eigenvalues(pc)
        assert result.shift_used == 0 and result.infinite_count == 0
        ours = np.array([lam for lam, _ in result.finite])
        assert len(ours) == pc.size == 31
        assert all(res <= 1e-13 for _, res in result.finite)
        reference = np.linalg.eigvals(pc.c0)
        dist = np.abs(ours[:, None] - reference[None, :]) / np.abs(reference)[None, :]
        assert dist.min(axis=1).max() <= 1e-12 and dist.min(axis=0).max() <= 1e-12
        # the same pencil scaled by 2 has C1 = 2I and takes the shift path
        scaled = dataclasses.replace(pc, c1=2.0 * pc.c1, c0=2.0 * pc.c0)
        shifted = generalized_eigenvalues(scaled)
        assert shifted.shift_used != 0
        theirs = np.array([lam for lam, _ in shifted.finite])
        assert len(theirs) == len(ours)
        dist = np.abs(ours[:, None] - theirs[None, :]) / np.maximum(1.0, np.abs(ours))[:, None]
        assert dist.min(axis=1).max() <= 1e-10 and dist.min(axis=0).max() <= 1e-10

    def test_monic_monomial_keeps_its_multiple_root_at_zero(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([0, 0, 1, 1]))  # z^2 + z^3
        pc = build(p)
        assert np.array_equal(pc.c1, np.eye(3))
        result = generalized_eigenvalues(pc, p)
        assert result.infinite_count == 0
        got = sorted_eigs([lam for lam, _ in result.finite])
        assert np.max(np.abs(got - [-1, 0, 0])) <= 1e-14


MACHINE_EPSILON = np.finfo(float).eps


def _refuse_eig(*args, **kwargs):
    raise AssertionError("numpy.linalg.eig called where Hyman's recurrence suffices")


def _standard_pencil(c0):
    """A pencil z I - C0 with no construction behind it."""
    size = c0.shape[0]
    return CompanionPencil(np.eye(size, dtype=complex), np.asarray(c0, dtype=complex), 1, size)


def _eig_path(pc):
    """What generalized_eigenvalues reports when numpy.linalg.eig gives values and vectors."""
    lams, vectors = np.linalg.eig(pc.c0)
    return eigen._pairs(lams, eigen._pencil_backward_errors(pc, lams, vectors))


class TestHymanRecurrence:
    """C1 = I without p: eigvals(C0), and eigenvectors by back substitution on a Hessenberg C0."""

    @pytest.mark.parametrize("depth", range(2, 9))
    @pytest.mark.parametrize("c", [1.0 + 0.05j, -1.0, -2.0, 0.3 - 0.5j])
    def test_mandelbrot_levels_report_eigvals_with_residuals_below_n_u(self, depth, c):
        pc = _mandelbrot_pencil(depth, c)
        result = generalized_eigenvalues(pc)
        assert result.infinite_count == 0 and result.shift_used == 0
        lams = np.linalg.eigvals(pc.c0)
        assert [lam for lam, _ in result.finite] == sorted(map(complex, lams),
                                                           key=lambda z: (z.real, z.imag))
        assert max(res for _, res in result.finite) <= pc.size * MACHINE_EPSILON

    @pytest.mark.parametrize("depth", [5, 6, 7])
    def test_benchmark_depths_never_call_eig(self, monkeypatch, depth):
        monkeypatch.setattr(np.linalg, "eig", _refuse_eig)
        for c in (1.0 + 0.05j, -1.0):
            result = generalized_eigenvalues(_mandelbrot_pencil(depth, c))
            assert len(result.finite) == 2 ** depth - 1

    def test_scalar_monic_companion_takes_the_recurrence(self, monkeypatch):
        rng = np.random.default_rng(5)
        coeffs = list(rng.standard_normal(12) + 1j * rng.standard_normal(12)) + [1.0]
        pc = build(MatrixPolynomial.from_coefficients(Monomial(), scalar(coeffs)))
        assert np.array_equal(pc.c1, np.eye(12))
        monkeypatch.setattr(np.linalg, "eig", _refuse_eig)
        result = generalized_eigenvalues(pc)
        assert max(res for _, res in result.finite) <= pc.size * MACHINE_EPSILON
        reference = np.roots(coeffs[::-1])
        assert _nearest_distance([lam for lam, _ in result.finite], reference) <= 1e-10

    def test_a_given_polynomial_needs_no_eigenvectors(self, monkeypatch):
        rng = np.random.default_rng(6)
        coeffs = [rand_matrix(rng, 2) for _ in range(3)] + [np.eye(2)]
        p = MatrixPolynomial.from_coefficients(Monomial(), coeffs)
        monkeypatch.setattr(np.linalg, "eig", _refuse_eig)
        result = generalized_eigenvalues(build(p), p)
        assert len(result.finite) == 6 and max(res for _, res in result.finite) <= 1e-13

    @pytest.mark.parametrize("size", [10, 30, 60])
    def test_random_hessenberg_falls_back_to_the_eig_path(self, size):
        rng = np.random.default_rng(size)
        c0 = np.triu(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)), -1)
        pc = _standard_pencil(c0)
        assert generalized_eigenvalues(pc).finite == _eig_path(pc)

    def test_reducible_dense_and_block_c0_take_eig(self, monkeypatch):
        rng = np.random.default_rng(8)
        reducible = np.triu(rng.standard_normal((8, 8)), -1)
        reducible[5, 4] = 0.0
        dense = rng.standard_normal((6, 6))
        block = build(MatrixPolynomial.from_coefficients(
            Monomial(), [rand_matrix(rng, 2), rand_matrix(rng, 2), np.eye(2)]))
        assert np.array_equal(block.c1, np.eye(4))
        calls = []
        eig_ = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a) or eig_(a))
        for pc in (_standard_pencil(reducible), _standard_pencil(dense), block):
            assert eigen._hessenberg_vectors(pc.c0, np.linalg.eigvals(pc.c0)) is None
            assert generalized_eigenvalues(pc).finite == _eig_path(pc)
        assert len(calls) == 6  # one each in generalized_eigenvalues and in _eig_path

    def test_graded_subdiagonal_is_rescaled_without_overflow(self, monkeypatch):
        # eigenvector entries span well past 1e308: unscaled, the recurrence
        # overflows for the 50 smallest eigenvalues
        size = 120
        c0 = np.diag(np.arange(size, dtype=complex)) + np.diag(np.full(size - 1, 1e-3), -1)
        monkeypatch.setattr(np.linalg, "eig", _refuse_eig)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = generalized_eigenvalues(_standard_pencil(c0))
        residuals = np.array([res for _, res in result.finite])
        assert np.isfinite(residuals).all() and residuals.max() <= size * MACHINE_EPSILON
        assert sorted(lam.real for lam, _ in result.finite) == list(range(size))
        # every column leaves with unit max-norm, so its 2-norm cannot overflow
        vectors = eigen._hessenberg_vectors(c0, np.linalg.eigvals(c0))
        assert np.array_equal(np.abs(vectors).max(axis=0), np.ones(size))
