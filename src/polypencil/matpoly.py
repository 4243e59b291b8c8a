"""Matrix polynomials P(z) = sum_k P_k phi_k(z): a basis and one stacked array.

The basis fixes what the matrices P_k mean; ``data`` holds them in the
column order of ``Basis.phi_rows``.  The grade is a declared upper bound on
the degree and is authoritative: leading zero coefficients are kept, because
they are what puts eigenvalues at infinity in the pencils built from the
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import Basis
from .errors import DimensionMismatchError, UnsupportedBasisError

__all__ = ["MatrixPolynomial", "evaluate"]


@dataclass(frozen=True)
class MatrixPolynomial:
    """An n x n matrix polynomial of declared grade in some basis.

    ``data`` is a read-only complex (grade + 1, n, n) array in phi_rows
    order: coefficients by ascending basis index (three-term and Bernstein
    bases), one value matrix per node (Lagrange), or per node the scaled
    derivative values P(tau), P'/1!, P''/2!, ... ascending (Hermite).
    """

    basis: Basis
    data: np.ndarray

    def __post_init__(self):
        try:
            data = np.array(self.data, dtype=complex)
        except ValueError as exc:  # matrices of different shapes stack to nothing
            raise DimensionMismatchError(
                "coefficient matrices must be square and share one size") from exc
        if data.ndim == 0 or data.shape[0] == 0:
            raise ValueError("empty payload")
        if data.ndim < 3:  # one scalar or one row per coefficient: square only as 1 x 1
            data = data.reshape(data.shape + (1,) * (3 - data.ndim))
        if data.ndim > 3:
            raise DimensionMismatchError(
                f"coefficient must be two-dimensional, got shape {data.shape[1:]}")
        if data.shape[1] != data.shape[2]:
            raise DimensionMismatchError("coefficient matrices must be square and share one size")
        if data.shape[1] == 0:
            raise DimensionMismatchError("coefficient must have at least one row and column")
        if not np.isfinite(data).all():
            raise ValueError("coefficient contains non-finite entries")
        self.basis.check_grade(len(data) - 1)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def grade(self) -> int:
        return self.data.shape[0] - 1

    @classmethod
    def from_coefficients(cls, basis, coefficients):
        if basis.structural_blocks:
            raise UnsupportedBasisError("coefficient payload needs a non-interpolation basis")
        return cls(basis, coefficients)

    def __call__(self, z):
        return evaluate(self, z)


def evaluate(p: MatrixPolynomial, z) -> np.ndarray:
    """P(z): the data summed against phi_rows; (n, n) for a scalar z, (k, n, n) for k of them.

    For interpolation data this is the product form of phi_rows, with no
    omega(z)/(z - tau) division; on (or numerically on top of) a node the
    stored value is returned exactly.  The sum is an einsum contraction, not
    BLAS, so each point's value is bitwise the same alone or in a batch.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    phi = p.basis.phi_rows(p.grade + 1, flat) * np.maximum(1.0, np.abs(flat))[:, None] ** p.grade
    out = np.einsum("kc,cij->kij", phi, p.data)
    p.basis.snap(flat, p.data, out)
    return out.reshape(zs.shape + out.shape[1:])

