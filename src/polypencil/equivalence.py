"""Strict equivalence between basis pencils and the monomial companion pencil.

For degree-graded and Bernstein bases there are constant nonsingular E, F
with E * C_phi * F = C_monomial for both members of the pencil; the same
holds for Lagrange and Hermite pencils against the monomial pencil padded
by two grades (to absorb the eigenvalues at infinity).  F is the
change-of-basis matrix of the pencil's null-vector functions.  For
coefficient bases E follows from the leading terms, E = C1_m F^-1 C1_phi^-1,
whenever rcond_F(C1_phi) = 1 / (||C1_phi||_F ||C1_phi^-1||_F) is at least
PIVOT_GUARD; for three-term bases C1 is block diagonal with identity
blocks, so E keeps the exact zeros of F^-1.  A numerically singular C1_phi
(a singular leading coefficient, a Bernstein degree drop) falls back to the
constant terms, E = C0_m F^-1 C0_phi^-1.  For interpolation bases E is the
transposed confluent Vandermonde matrix.  verify_equivalence checks both
defining equations on the pencils the pair carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .bases import Monomial, monomial_rows, null_vector_basis_matrix
from .errors import SingularC0Error, UnsupportedBasisError
from .linalg import guarded_solve, kron_eye
from .matpoly import MatrixPolynomial
from .pencils import CompanionPencil, build

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


def _times_inverse(x, a, a_inverse):
    """x a^-1 from a's inverse and one refinement step: a solve's accuracy, and exact zeros kept."""
    y = x @ a_inverse
    return y + (x - y @ a) @ a_inverse


def monomial_form(p: MatrixPolynomial) -> MatrixPolynomial:
    """The same polynomial with monomial coefficients.

    The coefficients are the data contracted with ``bases.monomial_rows``,
    padded with one zero leading coefficient per structural block of the
    basis (two for Lagrange and Hermite input, grade ell + 2), so its
    companion pencil matches the basis pencil's size.
    """
    rows = monomial_rows(p.basis, p.grade + 1)[::-1, ::-1]  # [k, m]: z^m in phi_k
    coeffs = np.einsum("km,kij->mij", rows, p.data)
    pad = np.zeros((p.basis.structural_blocks, p.n, p.n), dtype=complex)
    coeffs = np.concatenate([coeffs, pad])
    return MatrixPolynomial.from_coefficients(Monomial(), coeffs)


def equivalence_degree_graded(p: MatrixPolynomial) -> EquivalencePair:
    """E, F with E C_phi F = C_monomial for a three-term or Bernstein polynomial.

    F is the null-vector change-of-basis matrix (tensored with the identity).
    E is solved from the leading-term equation, E = C1_m F^-1 C1_phi^-1,
    when rcond_F(C1_phi) >= PIVOT_GUARD, and from the constant-term
    equation, E = C0_m F^-1 C0_phi^-1, otherwise.  F^-1 is the LAPACK
    inverse of the small change-of-basis matrix tensored with the identity,
    so E keeps the exact zeros of the inverse of a triangular F; C_m F^-1
    takes one refinement step against F.  The other equation is left to
    verify_equivalence, like every other check of the pair.
    SingularC0Error means both terms are singular.
    """
    if p.basis.structural_blocks:
        raise UnsupportedBasisError("degree-graded equivalence needs coefficient data")
    pc_phi = build(p)
    pc_m = build(monomial_form(p))
    f_small = null_vector_basis_matrix(p.basis, p.grade)
    f = kron_eye(f_small, p.n)
    f_inverse = kron_eye(np.linalg.inv(f_small), p.n)
    lead_inverse, ok = guarded_solve(pc_phi.c1, np.eye(pc_phi.size, dtype=complex))
    if ok:
        e = _times_inverse(pc_m.c1, f, f_inverse) @ lead_inverse
    else:
        x = _times_inverse(pc_m.c0, f, f_inverse)
        try:
            e = np.linalg.solve(pc_phi.c0.T, x.T).T  # x C0_phi^-1
        except np.linalg.LinAlgError as exc:
            raise SingularC0Error(
                "both the leading and the constant term of the basis pencil are singular") from exc
    return EquivalencePair(e=e, f=f, phi=pc_phi, monomial=pc_m)


def equivalence_lagrange(p: MatrixPolynomial) -> EquivalencePair:
    """E, F with E C_phi F = C_monomial (padded by two grades) for Lagrange or Hermite data.

    E is block diagonal: a 1 up front, then the transposed confluent
    Vandermonde matrix, C(ell - r, d) tau^(ell-r-d) for datum d at node tau
    in row r; F stacks the node polynomial over the monomial expansions of
    the basis polynomials.
    """
    if not p.basis.structural_blocks:
        raise UnsupportedBasisError("interpolation equivalence needs sample data")
    ell, n = p.grade, p.n
    e_small = np.zeros((ell + 2, ell + 2), dtype=complex)
    e_small[0, 0] = 1.0
    node, first, mirror = p.basis.layout  # block column c + 1 holds datum d of node tau
    for c, (tau, d) in enumerate(zip([p.basis.nodes[i] for i in node], (mirror - first).tolist())):
        for r in range(ell + 1 - d):
            power = tau ** (ell - r - d)
            # 1 * power would turn an imaginary -0.0 into +0.0
            e_small[1 + r, 1 + c] = comb(ell - r, d) * power if d else power
    f_small = null_vector_basis_matrix(p.basis, ell)
    e = kron_eye(e_small, n)
    f = kron_eye(f_small, n)
    return EquivalencePair(e=e, f=f, phi=build(p), monomial=build(monomial_form(p)))


def verify_equivalence(pair: EquivalencePair) -> float:
    """Max entrywise deviation over E C_phi F = C_monomial for both members."""
    d0 = np.max(np.abs(pair.e @ pair.phi.c0 @ pair.f - pair.monomial.c0))
    d1 = np.max(np.abs(pair.e @ pair.phi.c1 @ pair.f - pair.monomial.c1))
    return float(max(d0, d1))
