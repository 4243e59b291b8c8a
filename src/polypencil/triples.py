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
from .linalg import PIVOT_GUARD, as_cmatrix, sip
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


# sample points per stacked LAPACK call: bounds each stack at _CHUNK * N^2
# entries whatever the sample count
_CHUNK = 64


def _resolvents(t: GeneralizedStandardTriple, zs: np.ndarray) -> np.ndarray:
    """X (z C1 - C0)^-1 Y at every z of a 1-D array, from one stacked LAPACK solve.

    The right-hand side goes in as a (1, N, n) stack: NumPy < 2 reads a 2-D
    one against a 3-D matrix stack as a stack of vectors.
    """
    try:
        return t.x @ np.linalg.solve(t.pencil.at(zs), t.y[None])
    except np.linalg.LinAlgError as exc:
        z = complex(zs[0]) if len(zs) == 1 else None  # a stack does not say which member failed
        raise SingularPencilError(f"pencil is singular at z in {zs.tolist()}", z=z) from exc


def resolvent(t: GeneralizedStandardTriple, z) -> np.ndarray:
    """X (z C1 - C0)^-1 Y; raises SingularPencilError on the spectrum."""
    return _resolvents(t, np.array([complex(z)]))[0]


def verify_triple(t: GeneralizedStandardTriple, p: MatrixPolynomial, zs) -> float:
    """max over the samples of ||resolvent(z) P(z) - I||_F.

    The resolvents come from one stacked solve and P from one evaluate call
    per chunk of _CHUNK points.
    """
    zs = np.array([complex(z) for z in zs], dtype=complex)
    eye = np.eye(t.pencil.n, dtype=complex)
    worst = 0.0
    for i in range(0, len(zs), _CHUNK):
        chunk = zs[i:i + _CHUNK]
        residuals = _resolvents(t, chunk) @ evaluate(p, chunk) - eye
        worst = max(worst, float(np.linalg.norm(residuals, axis=(1, 2)).max()))
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
    size = pc.size
    try:
        moved = np.linalg.solve(s, np.hstack([pc.c1 @ s, pc.c0 @ s, t.y]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("similarity transform is singular") from exc
    return _transformed(t, t.x @ s, moved[:, :size], moved[:, size:2 * size],
                        moved[:, 2 * size:])


def sample_points(pc: CompanionPencil, count, rng, radius=2.0, avoid=()):
    """Random sample points for resolvent checks, guarded against the spectrum.

    Draws z uniformly on the disk |z| <= radius, discarding draws that land
    on an avoided point (interpolation nodes, typically), and candidates
    where rcond = 1 / (||M||_F ||M^-1||_F) of M = z C1 - C0 is below
    PIVOT_GUARD.  Each round draws just enough candidates to complete the
    count, at most _CHUNK, and tests them with one batched inverse; rejected
    ones are replaced in the next round, so the accepted points and the RNG
    state are those of testing every draw as it comes.  At most 200 * count
    draws are made.
    """
    out = []
    budget = 200 * count
    while len(out) < count:
        if budget == 0:
            raise SingularPencilError("could not find enough well-conditioned sample points")
        pending = []
        while budget and len(out) + len(pending) < count and len(pending) < _CHUNK:
            budget -= 1
            z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            if abs(z) <= radius and not any(abs(z - a) < 1e-3 for a in avoid):
                pending.append(z)
        # cond maps an exactly singular member to inf, so only that one is dropped
        rcond = 1.0 / np.linalg.cond(pc.at(pending), "fro")
        out.extend(z for z, ok in zip(pending, rcond >= PIVOT_GUARD) if ok)
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
    if not isinstance(p.basis, Monomial):
        raise NotMonicError("standard pair needs a monomial coefficient polynomial")
    n, ell = p.n, p.grade
    eye = np.eye(n, dtype=complex)
    if not np.allclose(p.data[ell], eye, rtol=0.0, atol=1e-12):
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
    for ck in p.data:
        acc = acc + ck @ power
        power = power @ t
    scale = max(float(np.linalg.norm(c)) for c in p.data)
    if float(np.linalg.norm(acc)) > 1e-8 * max(scale, 1.0):
        raise ArithmeticError("standard pair identity sum P_k X T^k = 0 failed")
    rhs = np.zeros((n * ell, n), dtype=complex)
    rhs[(ell - 1) * n:, :] = eye
    y = np.linalg.solve(q, rhs)
    return StandardPair(x=x, t=t, q=q, y=y)
