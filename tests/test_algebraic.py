import dataclasses

import numpy as np
import pytest

from conftest import rand_matrix, random_polynomial
from polypencil import (
    Bernstein,
    ChebyshevT,
    DimensionMismatchError,
    MatrixPolynomial,
    Monomial,
    build,
    build_algebraic,
    generalized_eigenvalues,
    make_triple,
    resolvent,
    verify_algebraic,
)


def scalar(values):
    return [np.array([[v]], dtype=complex) for v in values]


def monomial_triple(coeffs):
    return make_triple(build(MatrixPolynomial.from_coefficients(Monomial(), scalar(coeffs))))


SAMPLES = [0.3, 1.1, 2.7 - 1.0j, 0.9 + 0.4j, -1.6 + 0.2j]


class TestScalarOracle:
    def test_ratio_constancy(self):
        ta = monomial_triple([1, 0, 1])   # z^2 + 1
        tb = monomial_triple([2, 0, 1])   # z^2 + 2
        c = np.array([[3.0]])
        t = build_algebraic(ta, tb, c)
        assert t.pencil.c1.shape == (5, 5)
        assert t.pencil.basis is None
        # direct expansion is the oracle
        h = lambda z: z * (z * z + 1.0) * (z * z + 2.0) + 3.0
        spread = verify_algebraic(t, lambda z: [[z * z + 1.0]], lambda z: [[z * z + 2.0]],
                                  c, SAMPLES)
        assert spread <= 1e-8
        for z in SAMPLES:
            from polypencil.linalg import det

            ratio = det(t.pencil.at(z)) / h(z)
            assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_decoupled_case_spectrum(self):
        ta = monomial_triple([1, 0, 1])
        tb = monomial_triple([2, 0, 1])
        t = build_algebraic(ta, tb, np.zeros((1, 1)))
        result = generalized_eigenvalues(t.pencil, rng=np.random.default_rng(5))
        got = sorted((l for l, _ in result.finite), key=lambda v: (round(v.real, 6), v.imag))
        expected = sorted([0.0, 1j, -1j, np.sqrt(2) * 1j, -np.sqrt(2) * 1j],
                          key=lambda v: (round(complex(v).real, 6), complex(v).imag))
        assert len(got) == 5
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-6


def test_mixed_bases(rng):
    pa = MatrixPolynomial.from_coefficients(ChebyshevT(), scalar([0.3, -0.2, 1.1]))
    pb = MatrixPolynomial.from_coefficients(Bernstein(grade=2), scalar([0.8, 0.1, -0.9]))
    c = np.array([[1.0]])
    t = build_algebraic(make_triple(build(pa)), make_triple(build(pb)), c)
    spread = verify_algebraic(t, pa, pb, c, SAMPLES)
    assert spread <= 1e-7


def test_corrupted_coupling_is_detected():
    ta = monomial_triple([1, 0, 1])
    tb = monomial_triple([2, 0, 1])
    c = np.array([[3.0]])
    t = build_algebraic(ta, tb, c)
    eh_bad = t.pencil.c0.copy()
    eh_bad[:2, 3:] *= 2.0  # double the coupling block only
    bad = dataclasses.replace(t, pencil=dataclasses.replace(t.pencil, c0=eh_bad))
    spread = verify_algebraic(bad, lambda z: [[z * z + 1.0]], lambda z: [[z * z + 2.0]],
                              c, SAMPLES)
    assert spread > 1e-3


def test_block_case(rng):
    pa = random_polynomial("monomial", 2, 2, rng)
    pb = random_polynomial("chebyshev", 2, 2, rng)
    c = rand_matrix(rng, 2)
    t = build_algebraic(make_triple(build(pa)), make_triple(build(pb)), c)
    spread = verify_algebraic(t, pa, pb, c, SAMPLES)
    assert spread <= 1e-7


def test_composed_triple_resolvent():
    ta = monomial_triple([1, 0, 1])
    tb = monomial_triple([2, 0, 1])
    c = np.array([[3.0]])
    th = build_algebraic(ta, tb, c)
    h = lambda z: z * (z * z + 1.0) * (z * z + 2.0) + 3.0
    for z in SAMPLES:
        assert resolvent(th, z)[0, 0] == pytest.approx(1.0 / h(z), rel=1e-10)


def test_recursive_composition():
    ta = monomial_triple([1, 0, 1])
    tb = monomial_triple([2, 0, 1])
    c1 = np.array([[3.0]])
    t_inner = build_algebraic(ta, tb, c1)
    tb2 = monomial_triple([1, 1])  # z + 1
    c2 = np.array([[5.0]])
    t_outer = build_algebraic(t_inner, tb2, c2)
    h1 = lambda z: z * (z * z + 1.0) * (z * z + 2.0) + 3.0
    h2 = lambda z: z * h1(z) * (z + 1.0) + 5.0
    spread = verify_algebraic(t_outer, lambda z: [[h1(z)]], lambda z: [[z + 1.0]], c2, SAMPLES)
    assert spread <= 1e-7
    for z in (0.45, 1.8 - 0.6j):
        assert resolvent(t_outer, z)[0, 0] == pytest.approx(1.0 / h2(z), rel=1e-9)


def test_dimension_mismatch():
    ta = monomial_triple([1, 0, 1])
    tb = monomial_triple([2, 0, 1])
    with pytest.raises(DimensionMismatchError):
        build_algebraic(ta, tb, np.zeros((2, 2)))
