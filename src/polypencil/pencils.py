"""Companion pencil builders for every supported basis.

Each builder assembles the pair (C1, C0) so that det(z*C1 - C0) = det P(z)
for every z, which is the executable form of the linearization property and
is what the test suite checks.  A finite document whose arithmetic overflows
(a recurrence coefficient near the largest float, say) yields a non-finite
pencil; the builders run with numpy's overflow warnings off, and
CompanionPencil rejects such a pencil itself with NonFiniteError, the one
check every caller meets.  Sizes: N = n*ell for three-term and
Bernstein bases, N = n*(ell+2) for Lagrange and Hermite bases.  The latter
carry 2n eigenvalues at infinity by their structure alone; the builders
keep them, and ``eigen`` deflates them before it solves.  A builder fills
a (blocks, n, blocks, n) array: the first block row takes the data in one
slice, and each other kind of block (a scalar times I_n, stacked over the
block rows) goes in by one fancy-index assignment; a reshape gives N x N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    Basis,
    Bernstein,
    Hermite,
    Lagrange,
    ThreeTermBasis,
    barycentric_weights,
    recurrence_row,
)
from .errors import (
    DimensionMismatchError,
    GradeTooSmallError,
    NonFiniteError,
    UnsupportedBasisError,
)
from .matpoly import MatrixPolynomial

__all__ = [
    "CompanionPencil",
    "build",
    "build_three_term",
    "build_bernstein",
    "build_lagrange",
    "build_hermite",
]


@dataclass(frozen=True)
class CompanionPencil:
    """The pair (C1, C0) of N x N matrices with its construction metadata.

    ``basis`` is None for transformed and composed pencils, whose X and Y
    come with them in a triple.
    """

    c1: np.ndarray
    c0: np.ndarray
    n: int
    basis: Basis = None

    def __post_init__(self):
        shape = self.c1.shape
        if self.c0.shape != shape or shape[0] != shape[1] or shape[0] % self.n:
            raise DimensionMismatchError("C1 and C0 must be equal squares of whole n x n blocks")
        if not (np.isfinite(self.c1).all() and np.isfinite(self.c0).all()):
            raise NonFiniteError("pencil has non-finite entries: building it overflowed")

    @property
    def size(self) -> int:
        return self.c1.shape[0]

    def at(self, z) -> np.ndarray:
        """The pencil matrix z*C1 - C0; an array of z gives the stack of them, allocated once:
        C0 is subtracted in place (the same roundings), so no second stack's pages fault in."""
        m = np.asarray(z, dtype=complex)[..., None, None] * self.c1
        m -= self.c0
        return m


def build(p: MatrixPolynomial) -> CompanionPencil:
    """Dispatch to the builder matching the polynomial's basis."""
    if isinstance(p.basis, ThreeTermBasis):
        return build_three_term(p)
    if isinstance(p.basis, Bernstein):
        return build_bernstein(p)
    if isinstance(p.basis, Hermite):
        return build_hermite(p)
    raise UnsupportedBasisError(f"no pencil builder for {type(p.basis).__name__}")


# overflow in a builder surfaces as CompanionPencil's NonFiniteError instead
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def build_three_term(p: MatrixPolynomial) -> CompanionPencil:
    """Companion pencil for a coefficient polynomial in a three-term basis.

    C1 is block diagonal with P_ell/alpha_{ell-1} in the corner; C0 carries
    the negated coefficients across the first block row and the recurrence
    band below it.  Each band row is divided by its alpha_k, which leaves
    the resolvent triple untouched (the scaling never reaches the first
    block row) and makes det(z*C1 - C0) equal det P(z) exactly instead of
    up to the product of the alphas.  At grade 1 this is the single-block
    pencil (P_1/alpha_0, (beta_0/alpha_0) P_1 - P_0).
    """
    if not isinstance(p.basis, ThreeTermBasis):
        raise UnsupportedBasisError("build_three_term needs a three-term coefficient polynomial")
    ell, n = p.grade, p.n
    if ell < 1:
        raise GradeTooSmallError("three-term pencil needs grade >= 1")
    coeff = p.data
    N = ell * n
    eye = np.eye(n, dtype=complex)
    a_top, b_top, g_top = recurrence_row(p.basis, ell - 1)
    c1, c0 = np.zeros((2, ell, n, ell, n), dtype=complex)  # [block row, row, block col, col]
    c1[0, :, 0] = coeff[ell] / a_top
    c0[0] = -coeff[ell - 1::-1].transpose(1, 0, 2)
    c0[0, :, 0] = (b_top / a_top) * coeff[ell] - coeff[ell - 1]
    if ell > 1:
        c0[0, :, 1] = (g_top / a_top) * coeff[ell] - coeff[ell - 2]
        # alpha, beta/alpha, gamma/alpha of band rows i = 1 .. ell-1, divided as Python numbers
        band = np.array([(a, b / a, g / a) for a, b, g in (
            recurrence_row(p.basis, ell - 1 - i) for i in range(1, ell))], dtype=complex)
        a, b_a, g_a = band.T[..., None, None]
        i = np.arange(1, ell)
        c1[i, :, i] = eye / a
        c0[i, :, i - 1] = eye
        c0[i, :, i] = b_a * eye
        c0[i[:-1], :, i[:-1] + 1] = g_a[:-1] * eye
    return CompanionPencil(c1=c1.reshape(N, N), c0=c0.reshape(N, N), n=n, basis=p.basis)


@_quiet
def build_bernstein(p: MatrixPolynomial) -> CompanionPencil:
    """Companion pencil for a Bernstein-basis coefficient polynomial."""
    if not isinstance(p.basis, Bernstein):
        raise UnsupportedBasisError("build_bernstein needs a Bernstein coefficient polynomial")
    ell, n = p.grade, p.n
    if ell < 1:
        raise GradeTooSmallError("Bernstein pencil needs grade >= 1")
    coeff = p.data
    N = ell * n
    eye = np.eye(n, dtype=complex)
    i = np.arange(1, ell)
    c0 = np.zeros((ell, n, ell, n), dtype=complex)  # [block row, row, block col, col]
    c0[0] = -coeff[ell - 1::-1].transpose(1, 0, 2)
    c0[i, :, i - 1] = eye
    c1 = c0.copy()
    c1[0, :, 0] = coeff[ell] / ell - coeff[ell - 1]
    c1[i, :, i] = ((i + 1.0) / (ell - i))[:, None, None] * eye
    return CompanionPencil(c1=c1.reshape(N, N), c0=c0.reshape(N, N), n=n, basis=p.basis)


def build_lagrange(p: MatrixPolynomial) -> CompanionPencil:
    """build_hermite for Lagrange sample data, whose confluencies are all 1."""
    if not isinstance(p.basis, Lagrange):
        raise UnsupportedBasisError("build_lagrange needs a Lagrange sample polynomial")
    return build_hermite(p)


@_quiet
def build_hermite(p: MatrixPolynomial) -> CompanionPencil:
    """The arrowhead pencil of interpolation data; Lagrange data is confluency 1.

    The data row lists each node's scaled derivatives in descending order,
    the weight column carries the barycentric weights, and each node block
    is tau on the diagonal with identities below it (a transposed Jordan
    block of the node's confluency).  det(tau C1 - C0) = det P(tau) at every
    node; size is (ell+2) blocks.
    """
    if not isinstance(p.basis, Hermite):
        raise UnsupportedBasisError("build_hermite needs interpolation data")
    ell, n = p.grade, p.n
    if ell < 1:
        raise GradeTooSmallError("interpolation pencil needs grade >= 1")
    beta = barycentric_weights(p.basis)
    confl = p.basis.confluencies
    N = (ell + 2) * n
    eye = np.eye(n, dtype=complex)
    c1 = np.eye(N, dtype=complex)
    c1[:n, :n] = 0.0
    # block column c + 1 belongs to datum c, position j of a node whose s data start at
    # `start`; the data row lists each node's data in descending order
    s, start = np.repeat(confl, confl), np.repeat(np.cumsum(confl) - confl, confl)
    j = np.arange(ell + 1) - start
    col = np.arange(1, ell + 2)
    c0 = np.zeros((ell + 2, n, ell + 2, n), dtype=complex)
    c0[0, :, 1:] = -p.data[start + s - 1 - j].transpose(1, 0, 2)
    c0[col, :, 0] = beta[:, None, None] * eye
    c0[col, :, col] = np.repeat(np.array(p.basis.nodes), confl)[:, None, None] * eye
    c0[col[j > 0], :, col[j > 0] - 1] = eye
    return CompanionPencil(c1=c1, c0=c0.reshape(N, N), n=n, basis=p.basis)
