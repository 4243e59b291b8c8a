"""Strict equivalence between basis pencils and the monomial companion pencil.

For degree-graded and Bernstein bases there are constant nonsingular E, F
with E * C_phi * F = C_monomial for both members of the pencil; the same
holds for the Lagrange pencil against the monomial pencil padded by two
grades (to absorb the eigenvalues at infinity).  F is the change-of-basis
matrix of the pencil's null-vector functions; E follows from the constant
terms.  Both defining equations are checked with the one (E, F) pair; a
failure of the second equation is reported as an error, never patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .bases import (
    Bernstein,
    Lagrange,
    Monomial,
    ThreeTermBasis,
    monomial_rows,
    null_vector_basis_matrix,
)
from .errors import (
    DimensionMismatchError,
    EquivalenceCheckError,
    SingularC0Error,
    UnsupportedBasisError,
)
from .matpoly import MatrixPolynomial
from .pencils import CompanionPencil, build_three_term

__all__ = [
    "TO_MONOMIAL",
    "EquivalencePair",
    "equivalence_degree_graded",
    "equivalence_lagrange",
    "verify_equivalence",
    "monomial_form",
]

TO_MONOMIAL = "to_monomial"  # every pair satisfies E @ C_phi @ F == C_monomial


@dataclass(frozen=True)
class EquivalencePair:
    e: np.ndarray
    f: np.ndarray


def _right_div(x, a):
    """x @ a^-1 via a transposed solve."""
    return np.linalg.solve(a.T, x.T).T


def monomial_form(p: MatrixPolynomial) -> MatrixPolynomial:
    """The same polynomial with monomial coefficients.

    Lagrange input is padded with two zero leading coefficients (grade
    ell + 2) so its companion pencil matches the Lagrange pencil size.
    """
    n = p.n
    if p.coefficients is not None and isinstance(p.basis, ThreeTermBasis):
        rows = monomial_rows(p.basis, p.grade + 1)  # rows phi_grade .. phi_0
        coeffs = [np.zeros((n, n), dtype=complex) for _ in range(p.grade + 1)]
        for k, ck in enumerate(p.coefficients):
            row = rows[p.grade - k]
            for j in range(p.grade + 1):  # row is descending: j=0 is z^grade
                if row[j] != 0:
                    coeffs[p.grade - j] = coeffs[p.grade - j] + row[j] * ck
        return MatrixPolynomial.from_coefficients(Monomial(), coeffs)
    if p.coefficients is not None and isinstance(p.basis, Bernstein):
        ell = p.grade
        coeffs = [np.zeros((n, n), dtype=complex) for _ in range(ell + 1)]
        for k, ck in enumerate(p.coefficients):
            for j in range(ell - k + 1):
                coeffs[k + j] = coeffs[k + j] + comb(ell, k) * comb(ell - k, j) * (-1.0) ** j * ck
        return MatrixPolynomial.from_coefficients(Monomial(), coeffs)
    if p.samples is not None:
        nodes = p.basis.nodes
        ell = len(nodes) - 1
        vand = np.array([[t**(ell - j) for j in range(ell + 1)] for t in nodes], dtype=complex)
        rhs = np.stack([s.reshape(-1) for s in p.samples])
        desc = np.linalg.solve(vand, rhs)
        coeffs = [desc[ell - k].reshape(n, n) for k in range(ell + 1)]
        coeffs += [np.zeros((n, n), dtype=complex)] * 2
        return MatrixPolynomial.from_coefficients(Monomial(), coeffs)
    raise UnsupportedBasisError("monomial form needs coefficient or Lagrange sample data")


def _check_pair(e, f, c1p, c0p, c1m, c0m, scale):
    second = float(np.max(np.abs(e @ c1p @ f - c1m)))
    if second > 1e-6 * max(scale, 1.0):
        raise EquivalenceCheckError(
            f"equivalence solved from the constant terms violates the C1 equation by {second:.3e}"
        )


def equivalence_degree_graded(p: MatrixPolynomial) -> EquivalencePair:
    """E, F with E C_phi F = C_monomial for a three-term or Bernstein polynomial.

    F is the null-vector change-of-basis matrix (tensored with the identity);
    E is solved from the constant-term equation and then checked against the
    leading-term equation.
    """
    if p.coefficients is None or not isinstance(p.basis, (ThreeTermBasis, Bernstein)):
        raise UnsupportedBasisError("degree-graded equivalence needs coefficient data")
    if p.grade < 2:
        raise ValueError("equivalence needs grade >= 2")
    from .pencils import build

    pc_phi = build(p)
    pc_m = build_three_term(monomial_form(p))
    f_small = null_vector_basis_matrix(p.basis, p.grade)
    f = np.kron(f_small, np.eye(p.n, dtype=complex))
    try:
        e = _right_div(_right_div(pc_m.c0, f), pc_phi.c0)
    except np.linalg.LinAlgError as exc:
        raise SingularC0Error("constant term of the basis pencil is singular") from exc
    scale = float(np.max(np.abs(pc_m.c1)))
    _check_pair(e, f, pc_phi.c1, pc_phi.c0, pc_m.c1, pc_m.c0, scale)
    return EquivalencePair(e=e, f=f)


def equivalence_lagrange(p: MatrixPolynomial) -> EquivalencePair:
    """E, F with E C_lagrange F = C_monomial (monomial pencil padded by two grades).

    E is block diagonal: a 1 up front, then the transposed-Vandermonde
    inverse of the node set; F stacks the node polynomial over the monomial
    expansions of the Lagrange basis polynomials.
    """
    if p.samples is None or not isinstance(p.basis, Lagrange):
        raise UnsupportedBasisError("Lagrange equivalence needs sample data")
    nodes = p.basis.nodes
    ell = len(nodes) - 1
    n = p.n
    size = ell + 2
    e_small = np.zeros((size, size), dtype=complex)
    e_small[0, 0] = 1.0
    for r in range(ell + 1):
        for k, tau in enumerate(nodes):
            e_small[1 + r, 1 + k] = tau ** (ell - r)
    f_small = null_vector_basis_matrix(p.basis, ell)
    e = np.kron(e_small, np.eye(n, dtype=complex))
    f = np.kron(f_small, np.eye(n, dtype=complex))
    from .pencils import build_lagrange

    pc_phi = build_lagrange(p)
    pc_m = build_three_term(monomial_form(p))
    scale = float(np.max(np.abs(pc_m.c0))) + 1.0
    _check_pair(e, f, pc_phi.c1, pc_phi.c0, pc_m.c1, pc_m.c0, scale)
    first = float(np.max(np.abs(e @ pc_phi.c0 @ f - pc_m.c0)))
    if first > 1e-6 * scale:
        raise EquivalenceCheckError(f"Lagrange equivalence violates the C0 equation by {first:.3e}")
    return EquivalencePair(e=e, f=f)


def verify_equivalence(pair: EquivalencePair, pencil_phi: CompanionPencil,
                       pencil_m: CompanionPencil) -> float:
    """Max entrywise deviation over E C_phi F = C_monomial for both members."""
    if pencil_phi.size != pair.e.shape[0] or pencil_m.size != pair.e.shape[0]:
        raise DimensionMismatchError("pencils do not match the equivalence pair size")
    d0 = np.max(np.abs(pair.e @ pencil_phi.c0 @ pair.f - pencil_m.c0))
    d1 = np.max(np.abs(pair.e @ pencil_phi.c1 @ pair.f - pencil_m.c1))
    return float(max(d0, d1))
