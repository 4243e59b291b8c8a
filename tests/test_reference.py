"""The whole-array paths equal their one-block-at-a-time references in reference.py, bit for bit.

Arrays are compared through an int64 view, so a -0.0 where the reference
has +0.0, or the reverse, fails like any other difference.
"""

import numpy as np
import pytest

import polypencil
import reference
from conftest import TEN_KINDS, random_polynomial
from polypencil import (
    CompanionPencil,
    Hermite,
    MatrixPolynomial,
    Monomial,
    build,
    build_algebraic,
    cli,
    documents,
    equivalence_degree_graded,
    generalized_eigenvalues,
    linalg,
    make_triple,
    one_coefficients,
    pencils,
)
from polypencil.bases import monomial_rows, null_vector_basis_matrix
from polypencil.documents import parse_document
from polypencil.eigen import _balancing, _is_identity
from polypencil.linalg import PIVOT_GUARD, kron_eye

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
    x = reference.kron_eye(
        one_coefficients(p.basis, pc.size // p.n - p.basis.structural_blocks)[None], p.n)
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


@pytest.mark.parametrize("kind", TEN_KINDS)
def test_at_forms_the_reference_stack(kind):
    """A scalar, a 0-d array, a list and a 1-D array of z, on pencils with signed zeros."""
    rng = np.random.default_rng(len(kind))
    p = random_polynomial(kind, 2, 3, rng)
    pc = build(MatrixPolynomial(p.basis, with_signed_zeros(p.data, rng)))
    zs = with_signed_zeros(rng.standard_normal((6, 2)).view(complex)[:, 0], rng)
    for z in (complex(zs[0]), 2, -0.0, np.array(zs[1]), np.complex128(zs[2]), list(zs), zs, []):
        assert same_bits(pc.at(z), reference.at(pc, z))


def guard_decisions(m, b, monkeypatch):
    """guarded_solve's accept mask with its one-pass norms and with numpy's norms."""
    ok = linalg.guarded_solve(m, b)[1]
    with monkeypatch.context() as patch:
        reference.use_references(patch)
        return ok, linalg.guarded_solve(m, b)[1]


def random_stack(rng, count, size):
    return rng.standard_normal((count, size, size, 2)).view(complex)[..., 0]


@pytest.mark.parametrize("count, size, cols", [(1, 1, 1), (7, 12, 3), (20, 30, 30), (64, 9, 2)])
def test_guard_decides_as_with_numpys_norms(count, size, cols, monkeypatch):
    """Members with one column scaled by 1e-4 to 1e-16 fall on both sides of the bound."""
    rng = np.random.default_rng(count + size)
    m = random_stack(rng, count, size)
    m[:, :, 0] *= 10.0 ** -rng.uniform(4, 16, count)[:, None]
    b = np.eye(size, cols, dtype=complex)[None]
    ok, expected = guard_decisions(m, b, monkeypatch)
    assert np.array_equal(ok, expected)
    assert np.array_equal(guard_decisions(m[0], b[0], monkeypatch)[0], expected[0])


@pytest.mark.parametrize("singular", [False, True])
def test_guard_decides_as_with_numpys_norms_next_to_the_bound(singular, monkeypatch):
    """Each member's B is scaled to put its rcond within 1e-6 relative of PIVOT_GUARD;
    with an exactly singular member the stack takes the member-by-member fallback."""
    rng = np.random.default_rng(6)
    offsets = np.array([-1e-6, -1e-8, -1e-10, -1e-12, 1e-12, 1e-10, 1e-8, 1e-6])
    m = random_stack(rng, len(offsets), 6) + 4 * np.eye(6)
    b0 = np.eye(6, 2, dtype=complex)
    rcond = 1 / (reference.frobenius(m) * reference.frobenius(np.linalg.solve(m, b0[None])))
    b = (rcond / (PIVOT_GUARD * (1 + offsets)))[:, None, None] * b0
    kept = offsets > 0
    if singular:
        m[5, 2] = 0.0
        kept[5] = False
    solution, ok = linalg.guarded_solve(m, b)
    near = 1 / (reference.frobenius(m) * reference.frobenius(solution)) / PIVOT_GUARD - 1
    assert np.all(np.abs(np.delete(near, 5) if singular else near) <= 1e-6)
    assert np.array_equal(ok, kept)
    assert np.array_equal(*guard_decisions(m, b, monkeypatch))


def test_guard_accepts_nothing_of_an_empty_stack(monkeypatch):
    solution, ok = linalg.guarded_solve(np.zeros((0, 4, 4), dtype=complex),
                                        np.eye(4, 2, dtype=complex)[None])
    assert solution.shape == (0, 4, 2) and ok.shape == (0,)
    ok, expected = guard_decisions(np.zeros((0, 4, 4), dtype=complex),
                                   np.eye(4, 2, dtype=complex)[None], monkeypatch)
    assert ok.shape == expected.shape == (0,)


def identity_with(entries):
    a = np.eye(5, dtype=complex)
    for index, value in entries.items():
        a[index] = value
    return a


@pytest.mark.parametrize("c1, taken", [
    (identity_with({}), True),
    (identity_with({(0, 3): complex(-0.0, -0.0), (4, 1): -0.0, (2, 2): complex(1, -0.0)}), True),
    (identity_with({(1, 1): 1 - 0j, (3, 0): complex(0.0, -0.0)}).T, True),
    (identity_with({(0, 4): 1e-300}), False),
    (identity_with({(2, 0): 1e-300j}), False),
    (identity_with({(3, 3): 1 + 2.0 ** -52}), False),
    (identity_with({(3, 3): 1 + 1e-300j}), False),
    (identity_with({(4, 4): 0.0}), False),
])
def test_the_identity_branch_is_taken_as_before(c1, taken):
    """Signed zeros and a 1 - 0j diagonal still count as I; 1e-300 or 1 + 2^-52 does not,
    and generalized_eigenvalues takes the shift path (a nonzero shift) there."""
    assert _is_identity(c1) == reference.is_identity(c1) == taken
    c0 = np.diag(np.arange(1.0, 6.0)) + np.diag(np.ones(4), 1)
    result = generalized_eigenvalues(CompanionPencil(c1=c1, c0=c0.astype(complex), n=1))
    assert (result.shift_used == 0) == taken


@pytest.mark.parametrize("kind", TEN_KINDS)
def test_identity_decisions_on_every_kind(kind):
    rng = np.random.default_rng(len(kind) + 1)
    for p in (random_polynomial(kind, 2, 3, rng),
              MatrixPolynomial.from_coefficients(Monomial(), [rng.standard_normal((2, 2)),
                                                              np.eye(2)])):
        c1 = build(p).c1
        assert _is_identity(c1) == reference.is_identity(c1)


def graded_pencils(rng):
    """Monomial pencils with coefficients 2^(g k) P_k, and random pencils with rows and columns
    graded over 2^-g .. 2^g, for g = +-20, +-30."""
    for g in (20, -20, 30, -30):
        coeffs = [2.0 ** (g * k) * rng.standard_normal((2, 2)) for k in range(7)]
        pc = build(MatrixPolynomial.from_coefficients(Monomial(), coeffs))
        yield pc.c1, pc.c0
        rows, cols = 2.0 ** (g * np.linspace(-1, 1, 12)), 2.0 ** (-g * np.linspace(-1, 1, 12))
        c1, c0 = random_stack(rng, 2, 12) * rows[:, None] * cols
        yield c1, c0


def tiny_pencils(rng):
    """A row, a column, or both, of about 1e-160 of the rest: their sums lie near the
    smallest subnormal, so balancing them takes a power 4^k with k >= 512, beyond the
    float range, while every scaled entry of W stays finite."""
    for rows, cols in (([3], []), ([], [5]), ([0, 7], [2])):
        c1, c0 = random_stack(rng, 2, 10)
        for c in (c1, c0):
            c[rows] *= 1e-160
            c[:, cols] *= 1e-160
        yield c1, c0


def test_balancing_takes_every_step_of_the_ldexp_sweep():
    rng = np.random.default_rng(30)
    for c1, c0 in list(graded_pencils(rng)) + list(tiny_pencils(rng)):
        d_l, d_r = _balancing(c1, c0)
        ref_l, ref_r = reference.balancing(c1, c0)
        assert same_bits(d_l, ref_l) and same_bits(d_r, ref_r)
        assert np.isfinite(d_l).all() and np.isfinite(d_r).all()
    exponents = np.abs(np.frexp(np.concatenate([d_l, d_r]))[1])
    assert exponents.max() > 512  # its last pencil reaches a 4^k outside the float range


def mandelbrot_levels(c, depth):
    """Pencils of p_2 .. p_depth, from p_1 = z + 1 and p_{k+1} = z p_k^2 + c."""
    one = np.eye(1, dtype=complex)
    triple = make_triple(build(MatrixPolynomial.from_coefficients(Monomial(), [one, one])))
    for _ in range(depth - 1):
        triple = build_algebraic(triple, triple, c * one)
        yield triple.pencil


def result_bits(result):
    lams, residuals = zip(*result.finite) if result.finite else ((), ())
    return (bits(np.array(lams, dtype=complex)).tolist(),
            np.array(residuals, dtype=float).view(np.int64).tolist(),
            result.infinite_count, bits(np.array([result.shift_used])).tolist())


@pytest.mark.parametrize("c", [-1.0, 1.0 + 0.05j, 0.3 - 0.5j])
def test_mandelbrot_levels_solve_as_with_the_references(c, monkeypatch):
    """generalized_eigenvalues(level, None) on depths 2-7 (N up to 127), bit for bit."""
    levels = list(mandelbrot_levels(c, 7))
    production = [result_bits(generalized_eigenvalues(pc, None)) for pc in levels]
    reference.use_references(monkeypatch)
    assert [result_bits(generalized_eigenvalues(pc, None)) for pc in levels] == production


def test_use_references_rebinds_every_production_function(monkeypatch):
    reference.use_references(monkeypatch)
    assert all(getattr(owner, name) is ref for owner, name, ref in reference.REPLACEMENTS)
    # every name the package binds build to reaches the reference, and a family's methods
    # are rebound on its class, so every kind of the family reaches them
    assert polypencil.build is pencils.build is cli.build is reference.build
    for kind in THREE_TERM_KINDS:
        basis = random_polynomial(kind, 1, 2, np.random.default_rng(0)).basis
        assert type(basis).monomial_rows is reference.monomial_rows
