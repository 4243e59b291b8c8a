"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they go by.
"""

import time
from contextlib import contextmanager

import numpy as np

import golden
from conftest import ALL_KINDS, hermite_polynomial, one_at_a_time, poly_nodes, random_polynomial
from polypencil import (
    Bernstein,
    ChebyshevT,
    Hermite,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Newton,
    build,
    build_algebraic,
    equivalence_degree_graded,
    equivalence_lagrange,
    evaluate,
    flip_triple,
    generalized_eigenvalues,
    make_triple,
    monomial_form,
    resolvent,
    sample_points,
    similarity_triple,
    verify_algebraic,
    verify_equivalence,
    verify_triple,
)
from polypencil.bases import barycentric_weights
from polypencil.linalg import det


def scalar(values):
    return [np.array([[v]], dtype=complex) for v in values]


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed > budget_seconds else "PASS"
        print(f"criterion {number}: {status} ({elapsed:.2f}s <= {budget_seconds}s) {description}")
    assert elapsed <= budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def newton_polynomial():
    return MatrixPolynomial.from_coefficients(Newton(nodes=golden.NEWTON_NODES),
                                              golden.NEWTON_COEFFS)


def hermite_constant_one():
    basis = Hermite(nodes=golden.HERMITE_SCALAR_NODES,
                    confluencies=golden.HERMITE_SCALAR_CONFL)
    groups = [scalar([1, 0]), scalar([1]), scalar([1]), scalar([1, 0, 0])]
    return hermite_polynomial(basis, groups)


def section_examples():
    yield "chebyshev", MatrixPolynomial.from_coefficients(ChebyshevT(),
                                                          golden.CHEBYSHEV_COEFFS)
    yield "newton", newton_polynomial()
    yield "bernstein monic", MatrixPolynomial.from_coefficients(
        Bernstein(), golden.BERNSTEIN_MONIC_COEFFS)
    yield "bernstein singular", MatrixPolynomial.from_coefficients(
        Bernstein(), golden.BERNSTEIN_SINGULAR_COEFFS)
    yield "lagrange", MatrixPolynomial(
        Lagrange(nodes=golden.LAGRANGE_NODES), [np.eye(2)] * 3)
    yield "hermite scalar", hermite_constant_one()
    basis = Hermite(nodes=golden.HERMITE_MATRIX_NODES,
                    confluencies=golden.HERMITE_MATRIX_CONFL)
    yield "hermite matrix", hermite_polynomial(
        basis, golden.HERMITE_MATRIX_RHO)


def test_criterion_1_newton_golden_pencil():
    with criterion(1, "Newton reference pencil blocks reproduced to 1e-12", 1.0):
        pc = build(newton_polynomial())
        assert np.max(np.abs(pc.c0[:2, :2] - golden.NEWTON_C0[:2, :2])) <= 1e-12
        assert np.max(np.abs(pc.c0[:2, 2:4] - golden.NEWTON_C0[:2, 2:4])) <= 1e-12
        assert np.max(np.abs(pc.c1[:2, :2] - golden.NEWTON_C1[:2, :2])) <= 1e-12
        assert np.max(np.abs(pc.c0 - golden.NEWTON_C0)) <= 1e-12
        assert np.max(np.abs(pc.c1 - golden.NEWTON_C1)) <= 1e-12


def test_criterion_2_bernstein_golden_pencils():
    with criterion(2, "Bernstein reference C1/X and singular-leading entry", 1.0):
        monic = MatrixPolynomial.from_coefficients(Bernstein(),
                                                   golden.BERNSTEIN_MONIC_COEFFS)
        pc = build(monic)
        assert np.max(np.abs(pc.c1 - golden.BERNSTEIN_MONIC_C1)) <= 1e-12
        assert np.max(np.abs(make_triple(pc).x - golden.BERNSTEIN_MONIC_X)) <= 1e-12
        singular = MatrixPolynomial.from_coefficients(Bernstein(),
                                                      golden.BERNSTEIN_SINGULAR_COEFFS)
        assert abs(build(singular).c1[1, 0] - 5099.0 / 5940.0) <= 1e-12


def test_criterion_3_resolvent_identity_suite():
    with criterion(3, "resolvent identity <= 1e-8 on every worked example", 5.0):
        rng = np.random.default_rng(3)
        for name, p in section_examples():
            pc = build(p)
            t = make_triple(pc)
            zs = one_at_a_time(pc, 10, rng, radius=1.5)
            residual = verify_triple(t, p, zs)
            assert residual <= 1e-8, (name, residual)


def test_criterion_4_determinant_identity_randomized():
    with criterion(4, "det(z C1 - C0) = det P(z) over 200 random cases", 30.0):
        rng = np.random.default_rng(4)
        cases = 0
        while cases < 200:
            kind = ALL_KINDS[cases % len(ALL_KINDS)]
            n = int(rng.integers(1, 4))
            ell = int(rng.integers(2, 7))
            p = random_polynomial(kind, n, ell, rng)
            pc = build(p)
            nodes = poly_nodes(p)
            checked = 0
            while checked < 5:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if any(abs(z - t) < 0.05 for t in nodes):
                    continue
                checked += 1
                lhs = det(pc.at(z))
                rhs = det(evaluate(p, z))
                assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-12), (kind, n, ell, z)
            cases += 1


def test_criterion_5_equivalence_goldens():
    with criterion(5, "strict-equivalence reference E/F and coefficient forms", 1.0):
        pb = MatrixPolynomial.from_coefficients(Bernstein(),
                                                scalar(golden.EQUIV_BERNSTEIN_A))
        pair = equivalence_degree_graded(pb)
        assert np.max(np.abs(pair.e - golden.EQUIV_BERNSTEIN_E)) <= 1e-12
        assert np.max(np.abs(pair.f - golden.EQUIV_BERNSTEIN_F)) <= 1e-12
        assert verify_equivalence(pair) <= 1e-12

        rng = np.random.default_rng(5)
        rho = rng.standard_normal(4)
        pl = MatrixPolynomial(Lagrange(nodes=golden.EQUIV_LAGRANGE_NODES),
                              scalar(rho))
        pairl = equivalence_lagrange(pl)
        assert np.max(np.abs(pairl.e - golden.EQUIV_LAGRANGE_E)) <= 1e-12
        assert np.max(np.abs(pairl.f - golden.EQUIV_LAGRANGE_F)) <= 1e-12
        assert verify_equivalence(pairl) <= 1e-12

        ascending = [-1.0, -0.5, 0.5, 1.0]
        rho = rng.standard_normal(4)
        pm = monomial_form(MatrixPolynomial(Lagrange(nodes=ascending),
                                            scalar(rho)))
        expected = golden.lagrange_monomial_coefficients([float(v) for v in rho])
        for k in range(4):
            assert abs(pm.data[k][0, 0] - float(expected[k])) <= 1e-12


def test_criterion_6_algebraic_linearization():
    with criterion(6, "determinant-ratio constancy of composed pencils", 2.0):
        zs = [0.3, 1.1, 2.7 - 1.0j, 0.8 + 0.5j, -1.4]
        pa = MatrixPolynomial.from_coefficients(Monomial(), scalar([1, 0, 1]))
        pb = MatrixPolynomial.from_coefficients(Monomial(), scalar([2, 0, 1]))
        ta, tb = make_triple(build(pa)), make_triple(build(pb))
        c = np.array([[3.0]])
        inner_triple = build_algebraic(ta, tb, c)
        assert verify_algebraic(inner_triple, lambda z: [[z * z + 1.0]],
                                lambda z: [[z * z + 2.0]], c, zs) <= 1e-7

        pmix_a = MatrixPolynomial.from_coefficients(ChebyshevT(), scalar([0.4, -0.7, 1.2]))
        pmix_b = MatrixPolynomial.from_coefficients(Bernstein(), scalar([0.9, 0.2, -1.1]))
        cm = np.array([[1.0]])
        t_mixed = build_algebraic(make_triple(build(pmix_a)), make_triple(build(pmix_b)), cm)
        assert verify_algebraic(t_mixed, pmix_a, pmix_b, cm, zs) <= 1e-7

        tb2 = make_triple(build(MatrixPolynomial.from_coefficients(Monomial(), scalar([1, 1]))))
        c2 = np.array([[5.0]])
        outer = build_algebraic(inner_triple, tb2, c2)
        h1 = lambda z: z * (z * z + 1.0) * (z * z + 2.0) + 3.0
        assert verify_algebraic(outer, lambda z: [[h1(z)]],
                                lambda z: [[z + 1.0]], c2, zs) <= 1e-7


def test_criterion_7_hermite_constant_one():
    with criterion(7, "confluent weights column and no small finite eigenvalues", 2.0):
        basis = Hermite(nodes=golden.HERMITE_SCALAR_NODES,
                        confluencies=golden.HERMITE_SCALAR_CONFL)
        weights = barycentric_weights(basis)
        assert np.max(np.abs(weights - golden.HERMITE_SCALAR_WEIGHTS)) <= 1e-12
        p = hermite_constant_one()
        pc = build(p)
        assert pc.size == 8
        result = generalized_eigenvalues(pc, p)
        assert all(abs(lam) >= 10.0 for lam, _ in result.finite)


def test_criterion_8_chebyshev_example_via_resolvent_only():
    with criterion(8, "Chebyshev worked example accepted through the resolvent", 1.0):
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), golden.CHEBYSHEV_COEFFS)
        pc = build(p)
        t = make_triple(pc)
        rng = np.random.default_rng(8)
        zs = one_at_a_time(pc, 10, rng, radius=1.5)
        assert verify_triple(t, p, zs) <= 1e-8


def test_criterion_9_similarity_and_flip_invariance():
    with criterion(9, "flip/similarity leave the resolvent unchanged", 5.0):
        rng = np.random.default_rng(9)
        for case in range(20):
            kind = ALL_KINDS[case % len(ALL_KINDS)]
            p = random_polynomial(kind, int(rng.integers(1, 3)), int(rng.integers(2, 5)), rng)
            pc = build(p)
            t = make_triple(pc)
            zs = sample_points(pc, 5, rng)
            flipped = flip_triple(t)
            s = np.eye(pc.size) + 0.2 * rng.standard_normal((pc.size, pc.size))
            moved = similarity_triple(t, s)
            for z in zs:
                base = resolvent(t, z)
                assert np.max(np.abs(resolvent(flipped, z) - base)) <= 1e-9
                assert np.max(np.abs(resolvent(moved, z) - base)) <= 1e-9
