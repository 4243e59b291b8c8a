"""Strict equivalence between basis pencils and the monomial companion pencil.

For degree-graded and Bernstein bases there are constant nonsingular E, F
with E * C_phi * F = C_monomial for both members of the pencil; the same
holds for Lagrange and Hermite pencils against the monomial pencil padded
by two grades (to absorb the eigenvalues at infinity).  F is the
change-of-basis matrix of the pencil's null-vector functions; E follows
from the constant terms.  verify_equivalence checks both defining
equations on the pencils the pair carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .bases import (
    Bernstein,
    Hermite,
    Monomial,
    ThreeTermBasis,
    monomial_rows,
    null_vector_basis_matrix,
)
from .errors import SingularC0Error, UnsupportedBasisError
from .matpoly import MatrixPolynomial
from .pencils import CompanionPencil, build, build_hermite, build_three_term

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
    Lagrange and Hermite input is padded with two zero leading coefficients
    (grade ell + 2) so its companion pencil matches the arrowhead size.
    """
    rows = monomial_rows(p.basis, p.grade + 1)[::-1, ::-1]  # [k, m]: z^m in phi_k
    coeffs = np.einsum("km,kij->mij", rows, p.data)
    if isinstance(p.basis, Hermite):
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
    """E, F with E C_phi F = C_monomial (padded by two grades) for Lagrange or Hermite data.

    E is block diagonal: a 1 up front, then the transposed confluent
    Vandermonde matrix, C(ell - r, d) tau^(ell-r-d) for datum d at node tau
    in row r; F stacks the node polynomial over the monomial expansions of
    the basis polynomials.
    """
    if not isinstance(p.basis, Hermite):
        raise UnsupportedBasisError("interpolation equivalence needs sample data")
    ell, n = p.grade, p.n
    e_small = np.zeros((ell + 2, ell + 2), dtype=complex)
    e_small[0, 0] = 1.0
    # block column j of a node of confluency s holds datum d = s - 1 - j
    columns = [(tau, d) for tau, s in zip(p.basis.nodes, p.basis.confluencies)
               for d in range(s - 1, -1, -1)]
    for col, (tau, d) in enumerate(columns, 1):
        for r in range(ell + 1 - d):
            power = tau ** (ell - r - d)
            # 1 * power would turn an imaginary -0.0 into +0.0
            e_small[1 + r, col] = comb(ell - r, d) * power if d else power
    f_small = null_vector_basis_matrix(p.basis, ell)
    e = np.kron(e_small, np.eye(n, dtype=complex))
    f = np.kron(f_small, np.eye(n, dtype=complex))
    return EquivalencePair(e=e, f=f, phi=build_hermite(p),
                           monomial=build_three_term(monomial_form(p)))


def verify_equivalence(pair: EquivalencePair) -> float:
    """Max entrywise deviation over E C_phi F = C_monomial for both members."""
    d0 = np.max(np.abs(pair.e @ pair.phi.c0 @ pair.f - pair.monomial.c0))
    d1 = np.max(np.abs(pair.e @ pair.phi.c1 @ pair.f - pair.monomial.c1))
    return float(max(d0, d1))
