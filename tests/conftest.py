import numpy as np
import pytest

from polypencil import (
    Bernstein,
    ChebyshevT,
    CustomThreeTerm,
    Hermite,
    Lagrange,
    LegendreP,
    MatrixPolynomial,
    Monomial,
    Newton,
    ShiftedMonomial,
    Taylor,
)
from polypencil.linalg import PIVOT_GUARD

COEFF_KINDS = ("monomial", "shifted", "taylor", "newton", "chebyshev", "legendre", "bernstein")
ALL_KINDS = COEFF_KINDS + ("lagrange", "hermite")
# every basis kind a document can name: ALL_KINDS plus a user-supplied recurrence
TEN_KINDS = ALL_KINDS + ("custom",)

# the coefficients of a Chebyshev n = 2, grade 4 polynomial, the one the scaling tests scale
_FIXTURE_RNG = np.random.default_rng(0)
CHEBYSHEV_N2_G4 = (_FIXTURE_RNG.standard_normal((5, 2, 2))
                   + 1j * _FIXTURE_RNG.standard_normal((5, 2, 2)))


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def spread_nodes(rng, count):
    """Distinct, well-separated nodes near the unit circle's real slice."""
    base = np.cos(np.pi * np.arange(count) / max(count - 1, 1))
    jitter = 0.05 * rng.standard_normal(count)
    nodes = base + jitter
    while len(set(nodes.tolist())) != count:  # pragma: no cover - vanishing chance
        nodes += 0.01 * rng.standard_normal(count)
    return [complex(t) for t in nodes]


def make_basis(kind, ell, rng):
    if kind == "monomial":
        return Monomial()
    if kind == "shifted":
        return ShiftedMonomial(shift=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    if kind == "taylor":
        return Taylor(shift=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    if kind == "newton":
        return Newton(nodes=spread_nodes(rng, ell))
    if kind == "chebyshev":
        return ChebyshevT()
    if kind == "legendre":
        return LegendreP()
    if kind == "bernstein":
        return Bernstein()
    if kind == "custom":
        return CustomThreeTerm(alpha=tuple(rng.uniform(0.5, 1.5, ell)),
                               beta=tuple(0.2 * rng.standard_normal(ell)),
                               gamma=tuple(0.2 * rng.standard_normal(ell)))
    if kind == "lagrange":
        return Lagrange(nodes=spread_nodes(rng, ell + 1))
    if kind == "hermite":
        remaining = ell + 1
        confl = []
        while remaining > 0:
            s = int(rng.integers(1, min(3, remaining) + 1))
            confl.append(s)
            remaining -= s
        nodes = spread_nodes(rng, len(confl))
        return Hermite(nodes=nodes, confluencies=confl)
    raise ValueError(kind)


def random_polynomial(kind, n, ell, rng):
    """Random test polynomial, normalized to unit max payload norm."""
    basis = make_basis(kind, ell, rng)
    if kind in COEFF_KINDS + ("custom",):
        coeffs = [rand_matrix(rng, n) for _ in range(ell + 1)]
        scale = max(np.linalg.norm(c) for c in coeffs)
        return MatrixPolynomial.from_coefficients(basis, [c / scale for c in coeffs])
    if kind == "lagrange":
        samples = [rand_matrix(rng, n) for _ in basis.nodes]
        scale = max(np.linalg.norm(s) for s in samples)
        return MatrixPolynomial(basis, [s / scale for s in samples])
    groups = [[rand_matrix(rng, n) for _ in range(s)] for s in basis.confluencies]
    scale = max(np.linalg.norm(m) for g in groups for m in g)
    return hermite_polynomial(basis, [[m / scale for m in g] for g in groups])


def hermite_polynomial(basis, groups):
    """The polynomial of Hermite data given per node, as a document's hermite_samples.

    Each group holds P(tau), P'(tau)/1!, P''(tau)/2!, ... of one node; the
    data array is the groups end to end.
    """
    return MatrixPolynomial(basis, [m for group in groups for m in group])


def one_at_a_time(pc, count, rng, radius=2.0):
    """The reference sampler: draw z on the disk |z| <= radius, keep it when
    1 / (||M||_F ||M^-1 Y||_F) >= PIVOT_GUARD for M = z C1 - C0 on its own,
    with M^-1 Y solved for Y = I_N[:, :n], and repeat."""
    y = np.eye(pc.size, pc.n)
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) > radius:
            continue
        m = pc.at(z)
        try:
            solved = np.linalg.solve(m, y)
        except np.linalg.LinAlgError:  # exactly singular
            continue
        if 1.0 / (np.linalg.norm(m) * np.linalg.norm(solved)) >= PIVOT_GUARD:
            out.append(z)
    return out


def refuse_inverse(*args, **kwargs):
    """Stands in for numpy.linalg.inv where a path must solve, not invert."""
    raise AssertionError("numpy.linalg.inv was called")


def poly_nodes(p):
    return getattr(p.basis, "nodes", ())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
