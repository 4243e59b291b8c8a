"""Generalized standard triples: X, z*C1 - C0, Y with X (z C1 - C0)^-1 Y = P^-1(z).

The left factor X is always the coefficient row of the constant 1 in the
pencil's working basis, tensored with the identity; Y selects the first
block column.  The identity holds off the spectrum of P and is the single
property everything downstream (algebraic linearizations in particular)
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bases import Monomial, one_coefficients
from .errors import (
    DimensionMismatchError,
    NotMonicError,
    SingularMatrixError,
    SingularPencilError,
)
from .linalg import as_cmatrix, lu_factor, lu_solve, pivot_ratio, sip
from .matpoly import MatrixPolynomial, evaluate
from .pencils import CompanionPencil, build_three_term

__all__ = [
    "GeneralizedStandardTriple",
    "StandardPair",
    "make_triple",
    "resolvent",
    "verify_triple",
    "flip_triple",
    "transpose_triple",
    "similarity_triple",
    "monomial_standard_pair",
    "sample_points",
]

# LU pivot ratio below which a sample point counts as (numerically) on the
# spectrum and gets resampled rather than reported as a failure.
PIVOT_GUARD = 1e-12


@dataclass(frozen=True)
class GeneralizedStandardTriple:
    x: np.ndarray
    pencil: CompanionPencil
    y: np.ndarray


def make_triple(pc: CompanionPencil) -> GeneralizedStandardTriple:
    """Attach the universal X and Y to a pencil as a builder returned it."""
    if pc.basis is None:
        raise ValueError("pencil carries no basis; transform or compose its triple instead")
    n = pc.n
    blocks = pc.size // n
    row = one_coefficients(pc.basis, pc.ell)
    if row.shape[0] != blocks:
        raise DimensionMismatchError("pencil size does not match its basis metadata")
    x = np.kron(row.reshape(1, -1), np.eye(n, dtype=complex))
    y = np.zeros((pc.size, n), dtype=complex)
    y[:n, :] = np.eye(n, dtype=complex)
    return GeneralizedStandardTriple(x=x, pencil=pc, y=y)


def resolvent(t: GeneralizedStandardTriple, z) -> np.ndarray:
    """X (z C1 - C0)^-1 Y; raises SingularPencilError on the spectrum."""
    z = complex(z)
    try:
        f = lu_factor(t.pencil.at(z))
    except SingularMatrixError as exc:
        raise SingularPencilError(f"pencil is singular at z={z}", z=z) from exc
    return t.x @ lu_solve(f, t.y)


def verify_triple(t: GeneralizedStandardTriple, p: MatrixPolynomial, zs) -> float:
    """max over the samples of ||resolvent(z) P(z) - I||_F."""
    n = t.pencil.n
    eye = np.eye(n, dtype=complex)
    worst = 0.0
    for z in zs:
        r = resolvent(t, z) @ evaluate(p, z) - eye
        worst = max(worst, float(np.linalg.norm(r)))
    return worst


def _transformed(t, x, c1, c0, y) -> GeneralizedStandardTriple:
    pencil = replace(t.pencil, c1=c1, c0=c0, basis=None)
    return GeneralizedStandardTriple(x=x, pencil=pencil, y=y)


def flip_triple(t: GeneralizedStandardTriple) -> GeneralizedStandardTriple:
    """Triple of the flipped pencil: (X J, J (z C1 - C0) J, J Y), J the anti-identity."""
    pc = t.pencil
    j = sip(pc.size)
    return _transformed(t, t.x @ j, j @ pc.c1 @ j, j @ pc.c0 @ j, j @ t.y)


def transpose_triple(t: GeneralizedStandardTriple) -> GeneralizedStandardTriple:
    """(Y^T, z C1^T - C0^T, X^T), a triple of P^T: its resolvent is the transpose."""
    pc = t.pencil
    return _transformed(t, t.y.T.copy(), pc.c1.T.copy(), pc.c0.T.copy(), t.x.T.copy())


def similarity_triple(t: GeneralizedStandardTriple, s) -> GeneralizedStandardTriple:
    """Triple sharing the same resolvent: (X S, S^-1 (z C1 - C0) S, S^-1 Y)."""
    s = as_cmatrix(s)
    pc = t.pencil
    if s.shape[0] != pc.size:
        raise DimensionMismatchError("similarity transform has the wrong size")
    f = lu_factor(s)
    return _transformed(t, t.x @ s, lu_solve(f, pc.c1 @ s), lu_solve(f, pc.c0 @ s),
                        lu_solve(f, t.y))


def sample_points(pc: CompanionPencil, count, rng, radius=2.0, avoid=()):
    """Random sample points for resolvent checks, guarded against the spectrum.

    Draws z uniformly on the disk |z| <= radius and discards any draw whose
    pencil LU looks singular (pivot ratio below PIVOT_GUARD) or that lands
    on an avoided point (interpolation nodes, typically).
    """
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise SingularPencilError("could not find enough well-conditioned sample points")
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) > radius:
            continue
        if any(abs(z - a) < 1e-3 for a in avoid):
            continue
        try:
            f = lu_factor(pc.at(z))
        except SingularMatrixError:
            continue
        if pivot_ratio(f) < PIVOT_GUARD:
            continue
        out.append(z)
    return out


@dataclass(frozen=True)
class StandardPair:
    """Classical monomial-basis standard pair/triple data (X, T, Q, Y)."""

    x: np.ndarray
    t: np.ndarray
    q: np.ndarray
    y: np.ndarray


def monomial_standard_pair(p: MatrixPolynomial) -> StandardPair:
    """Standard pair of a monic monomial polynomial, with Q and Y.

    T is the companion matrix (C1 is the identity for monic input),
    X = [0 ... 0 I], Q stacks X T^k for k < grade, and Y = Q^-1 [0 ... 0 I]^T.
    The construction checks sum_k P_k X T^k = 0 before returning.
    """
    if not isinstance(p.basis, Monomial) or p.coefficients is None:
        raise NotMonicError("standard pair needs a monomial coefficient polynomial")
    n, ell = p.n, p.grade
    eye = np.eye(n, dtype=complex)
    if not np.allclose(p.coefficients[ell], eye, rtol=0.0, atol=1e-12):
        raise NotMonicError("leading coefficient is not the identity")
    pc = build_three_term(p)
    t = pc.c0.copy()  # C1 == I for monic input
    x = np.zeros((n, n * ell), dtype=complex)
    x[:, (ell - 1) * n:] = eye
    q = np.zeros((n * ell, n * ell), dtype=complex)
    power = x.copy()
    for k in range(ell):
        q[k * n:(k + 1) * n, :] = power
        power = power @ t
    acc = np.zeros((n, n * ell), dtype=complex)
    power = x.copy()
    for ck in p.coefficients:
        acc = acc + ck @ power
        power = power @ t
    scale = max(float(np.linalg.norm(c)) for c in p.coefficients)
    if float(np.linalg.norm(acc)) > 1e-8 * max(scale, 1.0):
        raise ArithmeticError("standard pair identity sum P_k X T^k = 0 failed")
    rhs = np.zeros((n * ell, n), dtype=complex)
    rhs[(ell - 1) * n:, :] = eye
    y = lu_solve(lu_factor(q), rhs)
    return StandardPair(x=x, t=t, q=q, y=y)
