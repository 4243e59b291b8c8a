"""Companion pencils: the pair (C1, C0) a basis family lays out for a polynomial.

``build`` assembles every family's pencil, [data row; (z K1 - K0) (x) I_n]:
block row 0 from the family's ``data_row``, and each scalar of its
``skeleton`` times I_n below it, so det(z*C1 - C0) = det P(z) for every z.
A fill that overflows (a recurrence coefficient near the largest float, say)
runs with numpy's warnings off; CompanionPencil rejects the non-finite
pencil with NonFiniteError, the one check every caller meets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import Basis
from .errors import DimensionMismatchError, GradeTooSmallError, NonFiniteError
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
        C0 is subtracted in place (the same roundings), so no second stack's pages fault in.
        An entry that overflows is left infinite, unwarned, for the caller's guard to refuse."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.asarray(z, dtype=complex)[..., None, None] * self.c1
            m -= self.c0
        return m


def build(p: MatrixPolynomial) -> CompanionPencil:
    """The companion pencil of p: its family's data row over its skeleton tensored with I_n."""
    if p.grade < 1:
        raise GradeTooSmallError(f"{type(p.basis).__name__} pencil needs grade >= 1")
    n = p.n
    with np.errstate(over="ignore", invalid="ignore"):
        m, *skeleton = p.basis.skeleton(p.grade)
        c = np.zeros((2, m, n, m, n), dtype=complex)  # C1, C0 as [block row, row, block col, col]
        for pencil, row, (rows, cols, values) in zip(c, p.basis.data_row(p.data), skeleton):
            pencil[0] = row.transpose(1, 0, 2)
            if len(rows):
                pencil[rows, :, cols] = np.multiply.outer(values, np.eye(n, dtype=complex))
    c1, c0 = c.reshape(2, m * n, m * n)
    return CompanionPencil(c1=c1, c0=c0, n=n, basis=p.basis)


# build under the names the benchmark's span tracer wraps; no caller in the package
def build_three_term(p: MatrixPolynomial) -> CompanionPencil:
    return build(p)


def build_bernstein(p: MatrixPolynomial) -> CompanionPencil:
    return build(p)


def build_lagrange(p: MatrixPolynomial) -> CompanionPencil:
    return build(p)


def build_hermite(p: MatrixPolynomial) -> CompanionPencil:
    return build(p)
