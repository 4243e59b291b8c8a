"""The whole-array paths equal their one-block-at-a-time references in reference.py, bit for bit.

Arrays are compared through an int64 view, so a -0.0 where the reference
has +0.0, or the reverse, fails like any other difference.
"""

import numpy as np
import pytest

import reference
from conftest import TEN_KINDS, random_polynomial
from polypencil import (
    Hermite,
    MatrixPolynomial,
    build,
    documents,
    equivalence_degree_graded,
    make_triple,
    one_coefficients,
)
from polypencil.bases import monomial_rows, null_vector_basis_matrix
from polypencil.documents import parse_document
from polypencil.linalg import kron_eye

THREE_TERM_KINDS = ("monomial", "shifted", "taylor", "newton", "chebyshev", "legendre", "custom")


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.int64)


def same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(bits(a), bits(b))


def with_signed_zeros(a, rng):
    """a with about a third of its real and imaginary parts set to +0.0 or -0.0."""
    parts = np.array(a, dtype=complex).view(np.float64)
    zeros = rng.random(parts.shape) < 1 / 3
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return parts.view(complex)


def assert_builds_the_reference(p):
    pc, ref = build(p), reference.build(p)
    assert same_bits(pc.c1, ref.c1) and same_bits(pc.c0, ref.c0)
    x = reference.kron_eye(one_coefficients(p.basis, pc.size // p.n - 2 * isinstance(
        p.basis, Hermite))[None], p.n)
    assert same_bits(make_triple(pc).x, x)


@pytest.mark.parametrize("grade", range(1, 7))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", TEN_KINDS)
def test_builders_place_the_reference_blocks(kind, n, grade):
    """All ten kinds, grades 1-6 (grade-1 Bernstein has no band row to place), n 1-3."""
    rng = np.random.default_rng(100 * n + grade)
    p = random_polynomial(kind, n, grade, rng)
    assert_builds_the_reference(p)
    assert_builds_the_reference(MatrixPolynomial(p.basis, with_signed_zeros(p.data, rng)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("confluencies", [(3,), (3, 1, 3), (1, 3), (2, 3, 1)])
def test_hermite_builder_with_confluency_three(confluencies, n):
    rng = np.random.default_rng(sum(confluencies) + n)
    nodes = [complex(t) for t in rng.standard_normal(len(confluencies))]
    basis = Hermite(nodes=nodes, confluencies=confluencies)
    data = rng.standard_normal((basis.grade + 1, n, n, 2)).view(complex)[..., 0]
    assert_builds_the_reference(MatrixPolynomial(basis, with_signed_zeros(data, rng)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (4, 4), (3, 7)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kron_eye_is_np_kron(shape, n):
    rng = np.random.default_rng(shape[0] * 10 + shape[1] + n)
    a = with_signed_zeros(rng.standard_normal(shape + (2,)).view(complex)[..., 0], rng)
    assert same_bits(kron_eye(a, n), np.kron(a, np.eye(n, dtype=complex)))


@pytest.mark.parametrize("kind", THREE_TERM_KINDS)
def test_monomial_rows_shift_as_np_roll_did(kind):
    for count in range(1, 9):
        p = random_polynomial(kind, 1, max(count - 1, 1), np.random.default_rng(count))
        rows = monomial_rows(p.basis, count)
        assert same_bits(rows, reference.monomial_rows(p.basis, count))


def payload(kind, n, mats):
    basis = {"lagrange": {"kind": "lagrange", "nodes": list(range(len(mats)))}}.get(
        kind, {"kind": kind})
    key = "samples" if kind == "lagrange" else "coefficients"
    return {"basis": basis, "n": n, key: mats}


READABLE = {
    "bare-floats": [[[0.5, -0.0], [2.5, 1e308]], [[-1.25, 0.0], [5e-324, 3.0]]],
    "ints": [[[1, -2], [0, 3]], [[2 ** 70 + 1, -(2 ** 60) - 1], [7, 0]]],
    "pairs": [[[[1, -0.0], [2.5, 3]], [[-0.0, 0.0], [5e-324, -1e308]]],
              [[[0.0, 1.0], [2, -2]], [[0.5, 0.25], [-0.0, -0.0]]]],
    "n1": [[[1.5]], [[-0.0]], [[[2, -0.0]]]],
    "n1-pairs": [[[[0.5, -1]]], [[[-0.0, 0.0]]]],
    "mixed-in-a-matrix": [[[0.5, [1.0, -0.0]], [[-0.0, 2], 3]], [[1, 0], [0, 1]]],
    "mixed-across-matrices": [[[1, 0.5], [2, -0.0]], [[[1, 2], [0, 0]], [[-0.0, 1], [0.5, 0]]]],
}
UNIFORM = ("bare-floats", "ints", "pairs", "n1-pairs")


@pytest.mark.parametrize("kind", ["chebyshev", "lagrange"])
@pytest.mark.parametrize("name", sorted(READABLE))
def test_reader_gives_the_per_matrix_arrays(name, kind, monkeypatch):
    mats = READABLE[name]
    n = len(mats[0])
    expected = np.array([reference.read_matrix(m, n) for m in mats])
    if name in UNIFORM:  # one array pass; parse_matrix is only the path of irregular payloads
        monkeypatch.setattr(documents, "parse_matrix", None)
    assert same_bits(parse_document(payload(kind, n, mats)).data, expected)


@pytest.mark.parametrize("kind", THREE_TERM_KINDS + ("bernstein",))
def test_equivalence_f_is_the_null_vector_matrix_tensored(kind):
    """F is kron(f, I) of the basis's own null-vector matrix f."""
    for grade in range(1, 7):
        p = random_polynomial(kind, 2, grade, np.random.default_rng(grade))
        f = reference.kron_eye(null_vector_basis_matrix(p.basis, grade), 2)
        assert same_bits(equivalence_degree_graded(p).f, f)
