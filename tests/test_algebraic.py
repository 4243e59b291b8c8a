import dataclasses
import warnings

import numpy as np
import pytest

from conftest import rand_matrix, random_polynomial
from polypencil import (
    Bernstein,
    ChebyshevT,
    DimensionMismatchError,
    MatrixPolynomial,
    Monomial,
    NonFiniteError,
    build,
    build_algebraic,
    generalized_eigenvalues,
    make_triple,
    resolvent,
    verify_algebraic,
)
from polypencil import eigen, linalg
from polypencil.algebraic import ratio_spread


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


def _block_case():
    rng = np.random.default_rng(3)
    pa = random_polynomial("monomial", 2, 2, rng)
    pb = random_polynomial("chebyshev", 2, 2, rng)
    c = rand_matrix(rng, 2)
    return build_algebraic(make_triple(build(pa)), make_triple(build(pb)), c), pa, pb, c


@pytest.mark.parametrize("field", ["x", "y"])
def test_perturbed_xh_or_yh_fails_where_the_determinant_ratio_passes(field):
    t, pa, pb, c = _block_case()
    assert verify_algebraic(t, pa, pb, c, SAMPLES) <= 1e-12
    m = getattr(t, field).copy()
    m[np.unravel_index(np.argmax(np.abs(m)), m.shape)] *= 1.0 + 1e-6
    bad = dataclasses.replace(t, **{field: m})
    assert verify_algebraic(bad, pa, pb, c, SAMPLES) > 1e-8
    # the old check reads the pencil alone, which the perturbation leaves intact
    ratios = np.array([np.linalg.det(bad.pencil.at(z))
                       / np.linalg.det(z * pa(z) @ pb(z) + c) for z in SAMPLES])
    assert np.max(np.abs(ratios - ratios.mean())) / abs(ratios.mean()) <= 1e-8
    assert ratio_spread(bad, pa, pb, c, SAMPLES) <= 1e-8


def test_ratio_spread_sees_a_wrong_coupling():
    t, pa, pb, c = _block_case()
    assert ratio_spread(t, pa, pb, c, SAMPLES) <= 1e-12
    assert ratio_spread(t, pa, pb, 2.0 * c, SAMPLES) > 1e-3


def _mandelbrot(depth, c):
    """The triple of p_depth (p_1 = z + 1, p_{k+1} = z p_k^2 + c) and p_{depth-1}."""
    one = np.eye(1, dtype=complex)
    triple = make_triple(build(MatrixPolynomial.from_coefficients(Monomial(), [one, one])))
    for _ in range(depth - 1):
        triple = build_algebraic(triple, triple, c * one)

    def inner(z):
        value = z + 1.0
        for _ in range(depth - 2):
            value = z * value * value + c
        return [[value]]

    return triple, inner


MANDELBROT_SAMPLES = [complex(x, y) for x, y in
                      np.random.default_rng(7).uniform(-1.5, 1.5, size=(8, 2))]


@pytest.mark.parametrize("depth", range(2, 9))
@pytest.mark.parametrize("c", [1.0 + 0.05j, -1.0])
def test_mandelbrot_levels_satisfy_the_identity(depth, c):
    triple, inner = _mandelbrot(depth, c)
    assert verify_algebraic(triple, inner, inner, [[c]], MANDELBROT_SAMPLES) <= 1e-12


def test_overflowing_h_raises_naming_the_point():
    ta = monomial_triple([1, 0, 1])
    t = build_algebraic(ta, ta, np.array([[1.0]]))
    huge = lambda z: [[1e200]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"z=\(0\.3\+0j\)") as info:
            verify_algebraic(t, huge, huge, [[1.0]], SAMPLES)
    assert info.value.z == SAMPLES[0]


def test_mandelbrot_path_runs_no_hand_written_lu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hand-written LU called on the Mandelbrot path")

    monkeypatch.setattr(eigen, "lu_factor", refuse)
    monkeypatch.setattr(linalg, "lu_factor", refuse)
    monkeypatch.setattr(linalg, "det", refuse)
    triple, inner = _mandelbrot(6, 1.0 + 0.05j)
    assert verify_algebraic(triple, inner, inner, [[1.0 + 0.05j]], MANDELBROT_SAMPLES) <= 1e-12
    result = generalized_eigenvalues(triple.pencil)
    assert len(result.finite) == 2 ** 6 - 1 and result.infinite_count == 0


@pytest.mark.parametrize("form", ["polynomial", "callable"])
def test_square_evaluates_its_component_once(monkeypatch, form):
    """z p p + c: one object as A and B is evaluated once, with the values of two evaluations."""
    from polypencil import algebraic

    p = random_polynomial("chebyshev", 2, 3, np.random.default_rng(8))
    calls = []
    real_evaluate = algebraic.evaluate

    def counted(poly, zs):
        calls.append(len(zs))
        return real_evaluate(poly, zs)

    def component():
        if form == "polynomial":
            return MatrixPolynomial.from_coefficients(p.basis, p.data)
        return lambda z: counted(p, np.array([z]))[0]

    monkeypatch.setattr(algebraic, "evaluate", counted)
    a, b = component(), component()
    c = rand_matrix(np.random.default_rng(9), 2)
    zs = np.array(SAMPLES, dtype=complex)
    once = algebraic._h_values(a, a, c, zs)
    assert sum(calls) == len(zs)
    assert np.array_equal(once, algebraic._h_values(a, b, c, zs))
    assert sum(calls) == 3 * len(zs)
