"""Strict equivalence between basis pencils and the monomial companion pencil.

For degree-graded and Bernstein bases there are constant nonsingular E, F
with E * C_phi * F = C_monomial for both members of the pencil; the same
holds for the Lagrange pencil against the monomial pencil padded by two
grades (to absorb the eigenvalues at infinity).  F is the change-of-basis
matrix of the pencil's null-vector functions; E follows from the constant
terms.  verify_equivalence checks both defining equations on the pencils
the pair carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    Bernstein,
    Lagrange,
    Monomial,
    ThreeTermBasis,
    monomial_rows,
    null_vector_basis_matrix,
)
from .errors import SingularC0Error, UnsupportedBasisError
from .matpoly import MatrixPolynomial
from .pencils import CompanionPencil, build, build_lagrange, build_three_term

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
    """E, F and the two pencils they relate: E @ phi @ F == monomial, member by member."""

    e: np.ndarray
    f: np.ndarray
    phi: CompanionPencil
    monomial: CompanionPencil


def _right_div(x, a):
    """x @ a^-1 via a transposed solve."""
    return np.linalg.solve(a.T, x.T).T


def monomial_form(p: MatrixPolynomial) -> MatrixPolynomial:
    """The same polynomial with monomial coefficients.

    The coefficients are the data contracted with ``bases.monomial_rows``.
    Lagrange input is padded with two zero leading coefficients (grade
    ell + 2) so its companion pencil matches the Lagrange pencil size.
    """
    rows = monomial_rows(p.basis, p.grade + 1)[::-1, ::-1]  # [k, m]: z^m in phi_k
    coeffs = np.einsum("km,kij->mij", rows, p.data)
    if isinstance(p.basis, Lagrange):
        coeffs = np.concatenate([coeffs, np.zeros((2, p.n, p.n), dtype=complex)])
    return MatrixPolynomial.from_coefficients(Monomial(), coeffs)


def equivalence_degree_graded(p: MatrixPolynomial) -> EquivalencePair:
    """E, F with E C_phi F = C_monomial for a three-term or Bernstein polynomial.

    F is the null-vector change-of-basis matrix (tensored with the identity);
    E is solved from the constant-term equation.  The leading-term equation
    is left to verify_equivalence, like every other check of the pair.
    """
    if not isinstance(p.basis, (ThreeTermBasis, Bernstein)):
        raise UnsupportedBasisError("degree-graded equivalence needs coefficient data")
    if p.grade < 2:
        raise ValueError("equivalence needs grade >= 2")
    pc_phi = build(p)
    pc_m = build_three_term(monomial_form(p))
    f_small = null_vector_basis_matrix(p.basis, p.grade)
    f = np.kron(f_small, np.eye(p.n, dtype=complex))
    try:
        e = _right_div(_right_div(pc_m.c0, f), pc_phi.c0)
    except np.linalg.LinAlgError as exc:
        raise SingularC0Error("constant term of the basis pencil is singular") from exc
    return EquivalencePair(e=e, f=f, phi=pc_phi, monomial=pc_m)


def equivalence_lagrange(p: MatrixPolynomial) -> EquivalencePair:
    """E, F with E C_lagrange F = C_monomial (monomial pencil padded by two grades).

    E is block diagonal: a 1 up front, then the transposed-Vandermonde
    inverse of the node set; F stacks the node polynomial over the monomial
    expansions of the Lagrange basis polynomials.
    """
    if not isinstance(p.basis, Lagrange):
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
    return EquivalencePair(e=e, f=f, phi=build_lagrange(p),
                           monomial=build_three_term(monomial_form(p)))


def verify_equivalence(pair: EquivalencePair) -> float:
    """Max entrywise deviation over E C_phi F = C_monomial for both members."""
    d0 = np.max(np.abs(pair.e @ pair.phi.c0 @ pair.f - pair.monomial.c0))
    d1 = np.max(np.abs(pair.e @ pair.phi.c1 @ pair.f - pair.monomial.c1))
    return float(max(d0, d1))
