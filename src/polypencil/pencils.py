"""Companion pencils: the pair (C1, C0) a basis family lays out for a polynomial.

``build`` takes (C1, C0) from the polynomial's family (``Basis.pencil``, whose
block layouts ``bases`` tabulates), with det(z*C1 - C0) = det P(z) for every
z, the executable form of the linearization property.  A finite document
whose arithmetic overflows (a recurrence coefficient near the largest float,
say) yields a non-finite pencil, filled with numpy's overflow warnings off;
CompanionPencil rejects it with NonFiniteError, the one check every caller meets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import Basis
from .errors import DimensionMismatchError, NonFiniteError
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
    """The companion pencil of p: the (C1, C0) of its basis family, with p's n and basis."""
    c1, c0 = p.basis.pencil(p.data)
    return CompanionPencil(c1=c1, c0=c0, n=p.n, basis=p.basis)


# build under the names the benchmark's span tracer wraps; no caller in the package
def build_three_term(p: MatrixPolynomial) -> CompanionPencil:
    return build(p)


def build_bernstein(p: MatrixPolynomial) -> CompanionPencil:
    return build(p)


def build_lagrange(p: MatrixPolynomial) -> CompanionPencil:
    return build(p)


def build_hermite(p: MatrixPolynomial) -> CompanionPencil:
    return build(p)
