"""Matrix polynomials: square coefficient matrices (or interpolation data) in a basis.

The grade is a declared upper bound on the degree and is authoritative:
leading zero coefficients are kept, because they are what puts eigenvalues
at infinity in the pencils built from the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bases import (
    Basis,
    Bernstein,
    Hermite,
    Lagrange,
    ThreeTermBasis,
    barycentric_weights,
    node_polynomial,
    phi_rows,
)
from .errors import DimensionMismatchError, UnsupportedBasisError
from .linalg import as_cmatrix

__all__ = ["MatrixPolynomial", "evaluate", "degree_defect"]

# |z - tau| below this (relative) snaps evaluation to the stored node data;
# the barycentric formulas are singular at the nodes themselves.
NODE_SNAP = 1e-12


def _payload(matrices, n=None):
    out = []
    for m in matrices:
        mm = as_cmatrix(m, name="coefficient")
        if mm.shape[0] != mm.shape[1]:
            raise DimensionMismatchError("coefficient matrices must be square")
        if n is None:
            n = mm.shape[0]
        elif mm.shape[0] != n:
            raise DimensionMismatchError("all coefficient matrices must share one dimension")
        out.append(mm)
    if not out:
        raise ValueError("empty payload")
    return tuple(out), n


@dataclass(frozen=True)
class MatrixPolynomial:
    """An n x n matrix polynomial of declared grade in some basis.

    Exactly one payload is set: ``coefficients`` (three-term and Bernstein
    bases, ascending basis index), ``samples`` (Lagrange: one value matrix
    per node), or ``hermite_samples`` (per node, the scaled derivative
    values P(tau), P'/1!, P''/2!, ... ascending).
    """

    basis: Basis
    n: int
    grade: int
    coefficients: tuple = None
    samples: tuple = None
    hermite_samples: tuple = None

    @classmethod
    def from_coefficients(cls, basis, coefficients):
        if not isinstance(basis, (ThreeTermBasis, Bernstein)):
            raise UnsupportedBasisError("coefficient payload needs a three-term or Bernstein basis")
        coeffs, n = _payload(coefficients)
        grade = len(coeffs) - 1
        if isinstance(basis, Bernstein) and grade != basis.grade:
            raise ValueError(f"{len(coeffs)} coefficients do not match Bernstein grade {basis.grade}")
        return cls(basis=basis, n=n, grade=grade, coefficients=coeffs)

    @classmethod
    def from_samples(cls, basis, samples):
        if not isinstance(basis, Lagrange):
            raise UnsupportedBasisError("sample payload needs a Lagrange basis")
        vals, n = _payload(samples)
        if len(vals) != len(basis.nodes):
            raise ValueError("need exactly one sample matrix per node")
        return cls(basis=basis, n=n, grade=len(vals) - 1, samples=vals)

    @classmethod
    def from_hermite_samples(cls, basis, samples_per_node):
        if not isinstance(basis, Hermite):
            raise UnsupportedBasisError("derivative payload needs a Hermite basis")
        if len(samples_per_node) != len(basis.nodes):
            raise ValueError("need one sample group per node")
        groups = []
        n = None
        for s, group in zip(basis.confluencies, samples_per_node):
            vals, n = _payload(group, n)
            if len(vals) != s:
                raise ValueError("sample group size must equal the node confluency")
            groups.append(vals)
        return cls(basis=basis, n=n, grade=basis.grade, hermite_samples=tuple(groups))

    def __call__(self, z):
        return evaluate(self, z)

    @cached_property
    def payload(self) -> np.ndarray:
        """The payload matrices stacked as (count, n, n), in the column order of phi_rows."""
        if self.hermite_samples is not None:
            return np.stack([m for group in self.hermite_samples for m in group])
        return np.stack(self.coefficients or self.samples)


def _near(z, tau):
    return abs(z - tau) < NODE_SNAP * (1.0 + abs(tau))


def evaluate(p: MatrixPolynomial, z) -> np.ndarray:
    """P(z) as an n x n complex matrix.

    Coefficient payloads are summed against the basis values of phi_rows.
    Lagrange and Hermite evaluation keeps the first barycentric form, which
    returns the stored data exactly at (or numerically on top of) a node;
    the product form of phi_rows only agrees there to rounding.
    """
    z = complex(z)
    basis = p.basis
    if p.coefficients is not None:
        phi = phi_rows(basis, p.grade + 1, [z]) * max(1.0, abs(z)) ** p.grade
        return (phi @ p.payload.reshape(p.grade + 1, -1)).reshape(p.n, p.n)
    if p.samples is not None:
        nodes = basis.nodes
        for k, tau in enumerate(nodes):
            if _near(z, tau):
                return p.samples[k].copy()
        beta = barycentric_weights(basis)
        omega = np.polyval(node_polynomial(basis), z)
        out = np.zeros((p.n, p.n), dtype=complex)
        for k, tau in enumerate(nodes):
            out += (beta[k] / (z - tau)) * p.samples[k]
        return omega * out
    if p.hermite_samples is not None:
        nodes = basis.nodes
        confl = basis.confluencies
        for i, tau in enumerate(nodes):
            if _near(z, tau):
                return p.hermite_samples[i][0].copy()
        flat = barycentric_weights(basis)
        omega = np.polyval(node_polynomial(basis), z)
        out = np.zeros((p.n, p.n), dtype=complex)
        pos = 0
        for i, (tau, s) in enumerate(zip(nodes, confl)):
            rho = p.hermite_samples[i]
            for j in range(s):
                bij = flat[pos + s - 1 - j]  # flat stores j descending
                for k in range(j + 1):
                    out += bij * rho[k] * (z - tau) ** (k - j - 1)
            pos += s
        return omega * out
    raise ValueError("matrix polynomial has no payload")


def degree_defect(p: MatrixPolynomial) -> int:
    """Number of exactly zero leading coefficient matrices (grade excess)."""
    if p.coefficients is None:
        raise UnsupportedBasisError("degree defect is defined for coefficient payloads only")
    count = 0
    for ck in reversed(p.coefficients):
        if np.count_nonzero(ck) == 0:
            count += 1
        else:
            break
    return count
