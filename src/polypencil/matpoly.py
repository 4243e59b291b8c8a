"""Matrix polynomials P(z) = sum_k P_k phi_k(z): a basis and one stacked array.

The basis fixes what the matrices P_k mean; ``data`` holds them in the
column order of ``bases.phi_rows``.  The grade is a declared upper bound on
the degree and is authoritative: leading zero coefficients are kept, because
they are what puts eigenvalues at infinity in the pencils built from the
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import Basis, Bernstein, Hermite, Lagrange, ThreeTermBasis, phi_rows
from .errors import DimensionMismatchError, UnsupportedBasisError
from .linalg import as_cmatrix

__all__ = ["MatrixPolynomial", "evaluate", "degree_defect"]

# |z - tau| below this (relative) snaps evaluation to the stored node data,
# which the interpolation formula reproduces only to rounding.
NODE_SNAP = 1e-12


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
        mats = [as_cmatrix(m, name="coefficient") for m in self.data]
        if not mats:
            raise ValueError("empty payload")
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise DimensionMismatchError("coefficient matrices must be square and share one size")
        basis = self.basis
        if isinstance(basis, (Bernstein, Lagrange, Hermite)) and len(mats) != basis.grade + 1:
            raise ValueError(f"{len(mats)} matrices do not match the grade {basis.grade} "
                             f"of the {type(basis).__name__} basis")
        data = np.stack(mats)
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
        if not isinstance(basis, (ThreeTermBasis, Bernstein)):
            raise UnsupportedBasisError("coefficient payload needs a three-term or Bernstein basis")
        return cls(basis, coefficients)

    @classmethod
    def from_samples(cls, basis, samples):
        if not isinstance(basis, Lagrange):
            raise UnsupportedBasisError("sample payload needs a Lagrange basis")
        return cls(basis, samples)

    @classmethod
    def from_hermite_samples(cls, basis, samples_per_node):
        if not isinstance(basis, Hermite):
            raise UnsupportedBasisError("derivative payload needs a Hermite basis")
        if [len(group) for group in samples_per_node] != list(basis.confluencies):
            raise ValueError("need one sample group per node, its size the node confluency")
        return cls(basis, [m for group in samples_per_node for m in group])

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
    phi = phi_rows(p.basis, p.grade + 1, flat) * np.maximum(1.0, np.abs(flat))[:, None] ** p.grade
    out = np.einsum("kc,cij->kij", phi, p.data)
    if isinstance(p.basis, (Lagrange, Hermite)):
        nodes = np.asarray(p.basis.nodes)
        near = np.abs(flat[:, None] - nodes) < NODE_SNAP * (1.0 + np.abs(nodes))
        hit = near.any(axis=1)
        starts = np.cumsum(p.basis.confluencies) - p.basis.confluencies
        out[hit] = p.data[starts[near[hit].argmax(axis=1)]]
    return out.reshape(zs.shape + out.shape[1:])


def degree_defect(p: MatrixPolynomial) -> int:
    """Number of exactly zero leading coefficient matrices (grade excess)."""
    if not isinstance(p.basis, (ThreeTermBasis, Bernstein)):
        raise UnsupportedBasisError("degree defect is defined for coefficient payloads only")
    count = 0
    for ck in reversed(p.data):
        if np.count_nonzero(ck) == 0:
            count += 1
        else:
            break
    return count
