import copy
import warnings

import numpy as np
import pytest

import golden
from conftest import (
    ALL_KINDS,
    CHEBYSHEV_N2_G4,
    TEN_KINDS,
    hermite_polynomial,
    one_at_a_time,
    random_polynomial,
    refuse_inverse,
)
from polypencil import (
    Bernstein,
    ChebyshevT,
    CompanionPencil,
    DimensionMismatchError,
    GeneralizedStandardTriple,
    Hermite,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Newton,
    NonFiniteError,
    SingularMatrixError,
    SingularPencilError,
    build,
    build_algebraic,
    evaluate,
    flip_triple,
    make_triple,
    resolvent,
    sample_points,
    sample_resolvents,
    similarity_triple,
    transpose_triple,
    verify_triple,
)
from polypencil.triples import _CHUNK, _resolvents


def scalar(values):
    return [np.array([[v]], dtype=complex) for v in values]


class TestMakeTriple:
    def test_three_term_selectors(self, rng):
        p = random_polynomial("chebyshev", 2, 4, rng)
        t = make_triple(build(p))
        expected_x = np.zeros((2, 8))
        expected_x[:, 6:] = np.eye(2)
        expected_y = np.zeros((8, 2))
        expected_y[:2, :] = np.eye(2)
        assert np.array_equal(t.x, expected_x)
        assert np.array_equal(t.y, expected_y)

    def test_bernstein_reference_x(self):
        p = MatrixPolynomial.from_coefficients(Bernstein(),
                                               golden.BERNSTEIN_MONIC_COEFFS)
        t = make_triple(build(p))
        assert np.max(np.abs(t.x - golden.BERNSTEIN_MONIC_X)) <= 1e-15

    def test_hermite_reference_x(self):
        basis = Hermite(nodes=golden.HERMITE_SCALAR_NODES,
                        confluencies=golden.HERMITE_SCALAR_CONFL)
        groups = [scalar([1, 0]), scalar([1]), scalar([1]), scalar([1, 0, 0])]
        t = make_triple(build(hermite_polynomial(basis, groups)))
        assert np.array_equal(t.x, golden.HERMITE_SCALAR_X)


class TestResolvent:
    def test_lagrange_identity_polynomial(self):
        p = MatrixPolynomial(Lagrange(nodes=golden.LAGRANGE_NODES),
                             [np.eye(2)] * 3)
        t = make_triple(build(p))
        assert np.allclose(resolvent(t, 0.7), np.eye(2), atol=1e-12)

    def test_scalar_square(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([0, 0, 1]))
        t = make_triple(build(p))
        assert resolvent(t, 2.0)[0, 0] == pytest.approx(0.25)

    def test_hermite_matrix_closed_form(self):
        basis = Hermite(nodes=golden.HERMITE_MATRIX_NODES,
                        confluencies=golden.HERMITE_MATRIX_CONFL)
        p = hermite_polynomial(basis, golden.HERMITE_MATRIX_RHO)
        t = make_triple(build(p))
        for z in (0.4, 2.0 + 1.0j, -1.7, 3.3 - 0.2j):
            expected = golden.hermite_matrix_resolvent(z)
            assert np.max(np.abs(resolvent(t, z) - expected)) <= 1e-10

    @pytest.mark.parametrize("n,ell", [(2, 3), (3, 1)])
    def test_matches_explicit_inverse(self, rng, n, ell):
        # covers n < N and n == N, where a solve that took Y for a stack of
        # vectors would fail or return (M^-1 Y^T)^T
        size = n * ell
        c1, c0 = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
                  for _ in range(2))
        pc = CompanionPencil(c1=c1, c0=c0, n=n)
        t = GeneralizedStandardTriple(x=rng.standard_normal((n, size)) + 0j, pencil=pc,
                                      y=rng.standard_normal((size, n)) + 1j)
        z = 0.3 - 0.8j
        expected = t.x @ np.linalg.inv(pc.at(z)) @ t.y
        assert np.allclose(resolvent(t, z), expected, rtol=1e-12, atol=1e-12)

    def test_raises_on_spectrum(self):
        p = MatrixPolynomial.from_coefficients(Monomial(), scalar([-1, 0, 1]))
        t = make_triple(build(p))
        with pytest.raises(SingularPencilError):
            resolvent(t, 1.0)


def reference_examples(rng):
    yield MatrixPolynomial.from_coefficients(ChebyshevT(), golden.CHEBYSHEV_COEFFS)
    yield MatrixPolynomial.from_coefficients(Newton(nodes=golden.NEWTON_NODES),
                                             golden.NEWTON_COEFFS)
    yield MatrixPolynomial.from_coefficients(Bernstein(),
                                             golden.BERNSTEIN_MONIC_COEFFS)
    yield MatrixPolynomial.from_coefficients(Bernstein(),
                                             golden.BERNSTEIN_SINGULAR_COEFFS)
    yield MatrixPolynomial(Lagrange(nodes=golden.LAGRANGE_NODES),
                           [np.eye(2)] * 3)
    basis = Hermite(nodes=golden.HERMITE_SCALAR_NODES,
                    confluencies=golden.HERMITE_SCALAR_CONFL)
    yield hermite_polynomial(
        basis, [scalar([1, 0]), scalar([1]), scalar([1]), scalar([1, 0, 0])])
    basis = Hermite(nodes=golden.HERMITE_MATRIX_NODES,
                    confluencies=golden.HERMITE_MATRIX_CONFL)
    yield hermite_polynomial(basis, golden.HERMITE_MATRIX_RHO)


class TestVerifyTriple:
    def test_reference_examples_within_tolerance(self, rng):
        for p in reference_examples(rng):
            pc = build(p)
            t = make_triple(pc)
            zs = one_at_a_time(pc, 10, rng, radius=1.0)
            assert verify_triple(t, p, zs) <= 1e-9

    def test_hermite_clustered_nodes(self, rng):
        # nodes 0.03-0.04 apart away from the origin, where monomial expansions
        # of the node polynomial lose every digit of the weights
        nodes, confl = [0.72, 0.75, 0.79, 0.82, 0.86], [2, 3, 1, 3, 2]
        groups = [[rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(s)] for s in confl]
        p = hermite_polynomial(Hermite(nodes=nodes, confluencies=confl),
                               groups)
        zs = [0.788 + 0.1 * np.exp(2j * np.pi * k / 10) for k in range(10)]
        assert verify_triple(make_triple(build(p)), p, zs) <= 1e-8

    def test_zeroed_y_is_detected(self, rng):
        p = random_polynomial("legendre", 2, 3, rng)
        pc = build(p)
        t = make_triple(pc)
        broken = GeneralizedStandardTriple(x=t.x, pencil=pc, y=np.zeros_like(t.y))
        zs = sample_points(pc, 5, rng)
        residual = verify_triple(broken, p, zs)
        assert residual == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_similarity_leaves_residual(self, rng):
        p = random_polynomial("newton", 2, 3, rng)
        pc = build(p)
        t = make_triple(pc)
        zs = sample_points(pc, 5, rng)
        base = verify_triple(t, p, zs)
        s = np.eye(pc.size) + 0.2 * rng.standard_normal((pc.size, pc.size))
        moved = similarity_triple(t, s)
        assert abs(verify_triple(moved, p, zs) - base) <= 1e-9


@pytest.mark.parametrize("kind", TEN_KINDS)
def test_stacked_verify_matches_pointwise_resolvents(kind, rng):
    """The one stacked solve gives the residual of solving point by point."""
    p = random_polynomial(kind, 2, 4, rng)
    t = make_triple(build(p))
    zs = sample_points(t.pencil, 8, rng)
    eye = np.eye(p.n)
    pointwise = max(np.linalg.norm(resolvent(t, z) @ evaluate(p, z) - eye) for z in zs)
    assert verify_triple(t, p, zs) == pytest.approx(pointwise, rel=1e-12, abs=0.0)
    # P's values stacked over the samples are the same input as P itself
    assert verify_triple(t, evaluate(p, np.array(zs)), zs) == verify_triple(t, p, zs)


def test_large_sample_counts_use_bounded_stacks(rng, monkeypatch):
    """Sampling and verifying go _CHUNK points per LAPACK call, whatever the count."""
    p = random_polynomial("chebyshev", 2, 3, rng)
    t = make_triple(build(p))
    stacks = []

    def spy(a, *args, _real=np.linalg.solve, **kwargs):
        stacks.append(len(a))
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    monkeypatch.setattr(np.linalg, "inv", refuse_inverse)
    count = 3 * _CHUNK + 5
    zs = sample_points(t.pencil, count, rng)
    residual = verify_triple(t, p, zs)
    sampled, resolvents = sample_resolvents(t, count, copy.deepcopy(rng))
    monkeypatch.undo()
    assert len(zs) == count and max(stacks) == _CHUNK
    assert len(sampled) == len(resolvents) == count
    eye = np.eye(p.n)
    pointwise = max(np.linalg.norm(resolvent(t, z) @ evaluate(p, z) - eye) for z in zs)
    assert residual == pytest.approx(pointwise, rel=1e-12, abs=0.0)


def sampled_points(t, count, rng):
    """The points of sample_resolvents, after checking that each resolvent is X M^-1 Y there."""
    zs, resolvents = sample_resolvents(t, count, rng)
    assert resolvents.shape == (len(zs), t.pencil.n, t.pencil.n)
    for z, r in zip(zs, resolvents):
        assert np.array_equal(r, resolvent(t, z))
    return zs


@pytest.mark.parametrize("kind", TEN_KINDS + ("algebraic",))
def test_sampling_solves_what_verify_triple_solves_and_inverts_nothing(kind, rng, monkeypatch):
    """sample_resolvents gives verify_triple's own solves, bit for bit, for a
    triple of make_triple or build_algebraic and for its similarity and
    transposed triples, whose Y is no block of the identity."""
    if kind == "algebraic":
        ta, tb = (make_triple(build(random_polynomial(k, 2, 3, rng)))
                  for k in ("chebyshev", "hermite"))
        t = build_algebraic(ta, tb, np.array([[1.0, 0.5], [-0.25, 1.0]]))
    else:
        t = make_triple(build(random_polynomial(kind, 2, 4, rng)))
    s = np.eye(t.pencil.size) + 0.25 * rng.standard_normal((t.pencil.size, t.pencil.size))
    moved = (t, similarity_triple(t, s), transpose_triple(t))
    monkeypatch.setattr(np.linalg, "inv", refuse_inverse)
    for u in moved:
        zs, resolvents = sample_resolvents(u, 10, copy.deepcopy(rng))
        assert len(zs) == 10 and np.array_equal(resolvents, _resolvents(u, np.array(zs)))
    assert sample_points(t.pencil, 10, copy.deepcopy(rng)) == sample_resolvents(t, 10, rng)[0]


class TestSamplePoints:
    @pytest.mark.parametrize("sampler", ["points", "resolvents"])
    def test_drops_only_the_exactly_singular_candidate(self, rng, sampler):
        # z I - diag(z0, 1) is exactly singular at the first draw z0; the other
        # candidates tested in the same batch must survive
        twin = copy.deepcopy(rng)
        draws = [complex(twin.uniform(-2, 2), twin.uniform(-2, 2)) for _ in range(40)]
        disk = [z for z in draws if abs(z) <= 2.0]
        z0 = disk[0]
        pc = CompanionPencil(c1=np.eye(2, dtype=complex), c0=np.diag([z0, 1.0]), n=2)
        assert np.linalg.matrix_rank(pc.at(z0)) == 1
        with pytest.raises(np.linalg.LinAlgError):  # the stacked solve refuses the whole chunk
            np.linalg.solve(pc.at(disk[:4]), np.eye(2, dtype=complex)[None])
        if sampler == "points":
            zs = sample_points(pc, 3, rng)
        else:
            eye = np.eye(2, dtype=complex)
            zs = sampled_points(GeneralizedStandardTriple(x=eye, pencil=pc, y=eye), 3, rng)
        assert zs == disk[1:4]

    @pytest.mark.parametrize("kind", TEN_KINDS)
    def test_points_and_rng_state_are_those_of_one_draw_at_a_time(self, kind):
        p = random_polynomial(kind, 2, 5, np.random.default_rng(3))
        t = make_triple(build(p))
        rngs = [np.random.default_rng(17) for _ in range(3)]
        expected = one_at_a_time(t.pencil, 70, rngs[0])
        assert sample_points(t.pencil, 70, rngs[1]) == expected
        assert sampled_points(t, 70, rngs[2]) == expected
        states = [r.bit_generator.state for r in rngs]
        assert states[1] == states[0] and states[2] == states[0]

    def test_zero_samples_draw_nothing(self, rng):
        t = make_triple(build(random_polynomial("monomial", 2, 3, np.random.default_rng(1))))
        state = rng.bit_generator.state
        assert sample_points(t.pencil, 0, rng) == []
        zs, resolvents = sample_resolvents(t, 0, rng)
        assert zs == [] and resolvents.shape == (0, 2, 2) and resolvents.dtype == complex
        assert rng.bit_generator.state == state

    def test_refused_candidates_are_replaced_in_order(self):
        # M = diag(1, 1e-12 z) has rcond_F close to 1e-12 |z|: the guard refuses
        # every draw inside about |z| < 1, a quarter of the disk
        pc = CompanionPencil(c1=np.diag([0.0, 1e-12]).astype(complex),
                             c0=np.diag([-1.0, 0.0]).astype(complex), n=2)
        rngs = [np.random.default_rng(5) for _ in range(2)]
        zs = sample_points(pc, 90, rngs[0])
        assert zs == one_at_a_time(pc, 90, rngs[1])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert min(abs(z) for z in zs) > 0.9

    def test_guard_reads_only_the_columns_the_triple_uses(self):
        # M = diag(z + 3, 1e-13): M^-1 is near singular everywhere, but
        # M^-1 Y = e_1 / (z + 3) for Y = I_2[:, :1], and every draw is kept
        pc = CompanionPencil(c1=np.diag([1.0, 0.0]).astype(complex),
                             c0=np.diag([-3.0, -1e-13]).astype(complex), n=1)
        rngs = [np.random.default_rng(6) for _ in range(3)]
        zs = sample_points(pc, 5, rngs[0])
        assert zs == one_at_a_time(pc, 5, rngs[1])
        assert zs == [z for z in (complex(rngs[2].uniform(-2, 2), rngs[2].uniform(-2, 2))
                                  for _ in range(12)) if abs(z) <= 2.0][:5]

    def test_singular_everywhere_raises(self, rng):
        flat = np.diag([1.0, 0.0]).astype(complex)
        pc = CompanionPencil(c1=flat, c0=flat, n=2)
        with pytest.raises(SingularPencilError):
            sample_points(pc, 3, rng)

    def test_rejects_candidates_below_the_rcond_guard(self, rng):
        # scaling one row by 1e-14 puts rcond near 1e-14 < PIVOT_GUARD at every z
        c1 = np.diag([1.0, 1e-14]).astype(complex)
        pc = CompanionPencil(c1=c1, c0=c1 * 3.0, n=2)
        with pytest.raises(SingularPencilError):
            sample_points(pc, 2, rng)


@pytest.mark.parametrize("columns", [3, 5])
def test_similarity_with_non_square_transform_raises(columns, rng):
    t = make_triple(build(random_polynomial("chebyshev", 2, 2, rng)))
    assert t.pencil.size == 4
    with pytest.raises(DimensionMismatchError):
        similarity_triple(t, np.ones((4, columns)))


def test_similarity_with_singular_transform_raises(rng):
    t = make_triple(build(random_polynomial("chebyshev", 2, 3, rng)))
    s = np.eye(t.pencil.size, dtype=complex)
    s[:, 0] = 0.0
    with pytest.raises(SingularMatrixError):
        similarity_triple(t, s)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n,ell", [(1, 3), (2, 3), (3, 2), (1, 6), (2, 5)])
def test_defining_identity_random(kind, n, ell, rng):
    p = random_polynomial(kind, n, ell, rng)
    pc = build(p)
    t = make_triple(pc)
    zs = sample_points(pc, 10, rng)
    assert verify_triple(t, p, zs) <= 1e-8


@pytest.mark.parametrize("kind", ["newton", "lagrange", "hermite"])
@pytest.mark.parametrize("n,ell", [(1, 3), (2, 5), (3, 4)])
def test_defining_identity_at_and_near_the_nodes(kind, n, ell, rng):
    """The identity needs no distance from a node: evaluate divides by no z - tau."""
    p = random_polynomial(kind, n, ell, rng)
    t = make_triple(build(p))
    zs = [tau + offset for tau in p.basis.nodes for offset in (0, 1e-9, 1e-6j, 1e-4, 1e-3j)]
    assert verify_triple(t, p, zs) <= 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_similarity_invariance_of_resolvent(kind, rng):
    p = random_polynomial(kind, 2, 3, rng)
    pc = build(p)
    t = make_triple(pc)
    zs = sample_points(pc, 5, rng)
    for _ in range(5):
        s = np.eye(pc.size) + 0.25 * rng.standard_normal((pc.size, pc.size))
        moved = similarity_triple(t, s)
        for z in zs:
            assert np.max(np.abs(resolvent(moved, z) - resolvent(t, z))) <= 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_flip_consistency(kind, rng):
    p = random_polynomial(kind, 2, 3, rng)
    pc = build(p)
    t = make_triple(pc)
    flipped = flip_triple(t)
    zs = sample_points(pc, 5, rng)
    for z in zs:
        assert np.max(np.abs(resolvent(flipped, z) - resolvent(t, z))) <= 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_transpose_consistency(kind, rng):
    """(Y^T, z C1^T - C0^T, X^T) is a triple of P^T: its resolvent is R(z)^T."""
    p = random_polynomial(kind, 2, 3, rng)
    pc = build(p)
    t = make_triple(pc)
    moved = transpose_triple(t)
    zs = sample_points(pc, 5, rng)
    for z in zs:
        assert np.max(np.abs(resolvent(moved, z) - resolvent(t, z).T)) <= 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_transformed_pencils_reject_make_triple(kind, rng):
    t = make_triple(build(random_polynomial(kind, 2, 3, rng)))
    s = np.eye(t.pencil.size) + 0.25 * rng.standard_normal((t.pencil.size, t.pencil.size))
    for moved in (flip_triple(t), transpose_triple(t), similarity_triple(t, s),
                  build_algebraic(t, t, np.eye(2))):
        assert moved.pencil.basis is None
        with pytest.raises(ValueError):
            make_triple(moved.pencil)


@pytest.mark.parametrize("n,ell", [(1, 2), (2, 3), (3, 4)])
def test_monic_monomial_triple_is_the_classical_standard_triple(n, ell, rng):
    """For monic monomial P, C1 = I and (X, C0, Y) is the standard triple of
    Gohberg, Lancaster & Rodman: sum_k P_k X C0^k = 0 and X C0^k Y = delta_{k, ell-1} I."""
    coeffs = [rng.standard_normal((n, n)) for _ in range(ell)] + [np.eye(n)]
    p = MatrixPolynomial.from_coefficients(Monomial(), coeffs)
    t = make_triple(build(p))
    assert np.array_equal(t.pencil.c1, np.eye(n * ell))
    powers = [t.x]  # X C0^k for k = 0..ell
    for _ in range(ell):
        powers.append(powers[-1] @ t.pencil.c0)
    acc = sum(ck @ xk for ck, xk in zip(p.data, powers))
    assert np.max(np.abs(acc)) <= 1e-12 * max(np.max(np.abs(c)) for c in coeffs)
    for k in range(ell):
        expected = np.eye(n) if k == ell - 1 else np.zeros((n, n))
        assert np.max(np.abs(powers[k] @ t.y - expected)) <= 1e-12


class TestNonFiniteValues:
    """A NaN or an infinity in P's values raises, naming its point; it never reads as a pass."""

    def setup_method(self):
        self.p = MatrixPolynomial.from_coefficients(ChebyshevT(), CHEBYSHEV_N2_G4)
        self.t = make_triple(build(self.p))
        self.zs = [0.3 + 0.2j, -0.7 + 1.1j, 1.2 - 0.4j, -1.5j, 0.9]

    def test_all_nan_values_raise(self):
        values = np.full((5, 2, 2), np.nan, dtype=complex)
        with pytest.raises(NonFiniteError, match=r"P\(z\) overflows at sample z=\(0\.3\+0\.2j\)"):
            verify_triple(self.t, values, self.zs)

    def test_one_nan_member_of_five_raises_naming_its_point(self):
        values = evaluate(self.p, np.array(self.zs))
        assert 0.0 < verify_triple(self.t, values, self.zs) <= 1e-13
        values[3, 1, 0] = np.nan
        with pytest.raises(NonFiniteError) as info:
            verify_triple(self.t, values, self.zs)
        assert info.value.z == -1.5j

    def test_an_overflowing_polynomial_raises_without_a_warning(self):
        """Scaled by 2^1018 the polynomial overflows at z = 1.9, while its pencil stays finite."""
        p = MatrixPolynomial.from_coefficients(ChebyshevT(), CHEBYSHEV_N2_G4 * 2.0 ** 1018)
        t = make_triple(build(p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as info:
                verify_triple(t, p, [1.9, 0.3 + 0.2j])
        assert info.value.z == 1.9

    def test_a_non_finite_residual_is_returned_as_it_is(self):
        zs, resolvents = sample_resolvents(self.t, 5, np.random.default_rng(1))
        resolvents[2, 0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(verify_triple(self.t, self.p, zs, resolvents))
