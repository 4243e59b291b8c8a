"""Generalized eigenvalues of companion pencils, with normwise backward errors.

Eigenvalues of z*C1 - C0 come from shift-and-invert: with M = sigma*C1 - C0
nonsingular, the eigenvalues theta of A = M^-1 C1 map to pencil eigenvalues
lambda = sigma - 1/theta, and theta near zero means an eigenvalue at
infinity.  One LAPACK call through ``numpy.linalg.eig`` returns theta and the
right eigenvectors V of A, which are eigenvectors of the pencil as well.

A theta is classed infinite when zero lies within its first-order error
bound, |theta| <= kappa(theta) * N * u * ||A||_F, where kappa(theta) is the
norm of row i of V^-1 times the norm of column i of V and u is machine
epsilon.  A theta repeated to working precision has parallel eigenvectors,
so kappa bounds nothing there and the bound is N * u * ||A||_F alone.
Those infinite values with |theta| > N * u * ||A||_F are perturbed
infinities (interpolation pencils surface their structural infinities this
way); they are returned apart, as ``spurious``, and counted as infinite.
This rule, which reads the pencil alone, is the whole classification: the
triples make det(z C1 - C0) = det P(z), so being finite is a property of
the pencil, and the polynomial only chooses which backward error is
reported.

Every residual is a normwise backward error, computed for all eigenvalues at
once with no factorization per eigenvalue:

* from the pencil, ||(lambda C1 - C0) x|| / ((|lambda| ||C1||_F + ||C0||_F) ||x||),
  x the eigenvector;
* from the polynomial P = sum_k P_k phi_k (Tisseur, LAA 2000),
  eta = sigma_min(P(lambda)) / sum_k |phi_k(lambda)| ||P_k||_2, which is
  the reported residual.

Householder reduction to Hessenberg form followed by single-shift
(Wilkinson) QR, complex throughout, is kept as the self-contained reference
eigensolver ``eig``; the tests check the LAPACK path against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import phi_rows
from .errors import (
    NoConvergenceError,
    SingularMatrixError,
    SingularPencilEverywhereError,
)
from .linalg import PIVOT_GUARD, as_cmatrix, lu_factor, lu_solve, pivot_ratio
from .matpoly import MatrixPolynomial
from .pencils import CompanionPencil

__all__ = [
    "EigenResult",
    "hessenberg",
    "qr_eigenvalues",
    "eig",
    "generalized_eigenvalues",
    "eigen_residual",
]

SHIFT_RADIUS = 1.37
MAX_SHIFT_TRIES = 8
MACHINE_EPSILON = np.finfo(float).eps


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues as (lambda, backward error) pairs, plus the count classed infinite.

    ``spurious`` holds the perturbed infinities only; ``infinite_count``
    includes them.  ``finite`` and ``spurious`` are sorted by real, then
    imaginary part.
    """

    finite: tuple
    infinite_count: int
    shift_used: complex
    spurious: tuple = ()


def hessenberg(a) -> np.ndarray:
    """Reduce to upper Hessenberg form by unitary (Householder) similarity."""
    h = as_cmatrix(a).copy()
    n = h.shape[0]
    if n != h.shape[1]:
        raise ValueError("hessenberg needs a square matrix")
    for k in range(n - 2):
        x = h[k + 1:, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        v = x.copy()
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v[0] += phase * norm_x
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h


def _wilkinson(a, b, c, d):
    """Eigenvalue of [[a, b], [c, d]] closer to d."""
    disc = np.sqrt((a - d) * (a - d) + 4.0 * b * c)
    l1 = 0.5 * (a + d + disc)
    l2 = 0.5 * (a + d - disc)
    return l1 if abs(l1 - d) <= abs(l2 - d) else l2


def qr_eigenvalues(h, budget_factor: int = 100) -> np.ndarray:
    """All eigenvalues of an upper Hessenberg matrix by shifted QR.

    Single complex Wilkinson shift with Givens rotations and bottom-up
    deflation; an occasional ad hoc shift breaks symmetry stalls.  Raises
    NoConvergenceError once budget_factor * N sweeps are spent.
    """
    h = as_cmatrix(h).copy()
    n = h.shape[0]
    if n == 1:
        return h[0, :1].copy()
    eps = np.finfo(float).eps
    anorm = max(float(np.linalg.norm(h)), np.finfo(float).tiny)
    eigs = np.zeros(n, dtype=complex)
    budget = budget_factor * n
    sweeps = 0
    stall = 0
    m = n
    while m > 0:
        if m == 1:
            eigs[0] = h[0, 0]
            break
        small = eps * (abs(h[m - 2, m - 2]) + abs(h[m - 1, m - 1]))
        if small == 0.0:
            small = eps * anorm
        if abs(h[m - 1, m - 2]) <= small:
            eigs[m - 1] = h[m - 1, m - 1]
            m -= 1
            stall = 0
            continue
        lo = m - 1
        while lo > 0:
            small = eps * (abs(h[lo - 1, lo - 1]) + abs(h[lo, lo]))
            if small == 0.0:
                small = eps * anorm
            if abs(h[lo, lo - 1]) <= small:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        sweeps += 1
        stall += 1
        if sweeps > budget:
            raise NoConvergenceError(f"QR iteration spent {sweeps} sweeps without deflating")
        if stall % 12 == 0:
            sigma = h[m - 1, m - 1] + 0.75 * abs(h[m - 1, m - 2])
        else:
            sigma = _wilkinson(h[m - 2, m - 2], h[m - 2, m - 1],
                               h[m - 1, m - 2], h[m - 1, m - 1])
        for i in range(lo, m):
            h[i, i] -= sigma
        rotations = []
        for i in range(lo, m - 1):
            aa, bb = h[i, i], h[i + 1, i]
            r = np.hypot(abs(aa), abs(bb))
            if r == 0.0:
                c, s = 1.0 + 0.0j, 0.0 + 0.0j
            else:
                c, s = aa / r, bb / r
            rotations.append((c, s))
            top = h[i, i:m].copy()
            bot = h[i + 1, i:m].copy()
            h[i, i:m] = np.conj(c) * top + np.conj(s) * bot
            h[i + 1, i:m] = -s * top + c * bot
        for idx, (c, s) in enumerate(rotations):
            i = lo + idx
            hi = min(i + 2, m - 1)
            left = h[lo:hi + 1, i].copy()
            right = h[lo:hi + 1, i + 1].copy()
            h[lo:hi + 1, i] = left * c + right * s
            h[lo:hi + 1, i + 1] = -left * np.conj(s) + right * np.conj(c)
        for i in range(lo, m):
            h[i, i] += sigma
    return eigs


def eig(a) -> np.ndarray:
    """Eigenvalues of a dense complex matrix."""
    return qr_eigenvalues(hessenberg(a))


def _polynomial_backward_errors(p: MatrixPolynomial, lams) -> np.ndarray:
    """eta for every lambda, from one batched SVD over the stacked P(lambda).

    The basis values come from a single phi_rows pass, whose per-point
    scaling cancels in the quotient.
    """
    data = p.data
    phi = phi_rows(p.basis, data.shape[0], lams)
    smallest = np.linalg.svd(np.tensordot(phi, data, axes=1), compute_uv=False)[:, -1]
    scale = np.abs(phi) @ np.linalg.svd(data, compute_uv=False)[:, 0]
    # a zero denominator means P(lambda) = 0, which is exactly singular
    return np.divide(smallest, scale, out=np.zeros_like(smallest), where=scale > 0)


def eigen_residual(p: MatrixPolynomial, lam) -> float:
    """Normwise backward error of lambda as an eigenvalue of P (Tisseur, LAA 2000)."""
    return float(_polynomial_backward_errors(p, [lam])[0])


def _pencil_backward_errors(pc: CompanionPencil, lams, vectors) -> np.ndarray:
    residual = np.linalg.norm(pc.c1 @ vectors * lams - pc.c0 @ vectors, axis=0)
    scale = np.abs(lams) * np.linalg.norm(pc.c1) + np.linalg.norm(pc.c0)
    return residual / (scale * np.linalg.norm(vectors, axis=0))


def _accepted_shift(pc: CompanionPencil, rng):
    """(sigma, (sigma C1 - C0)^-1 C1) for the first shift with a healthy pivot ratio."""
    for _ in range(MAX_SHIFT_TRIES):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        candidate = SHIFT_RADIUS * complex(np.cos(angle), np.sin(angle))
        try:
            f = lu_factor(candidate * pc.c1 - pc.c0)
        except SingularMatrixError:
            continue
        if pivot_ratio(f) >= PIVOT_GUARD:
            return candidate, lu_solve(f, pc.c1)
    raise SingularPencilEverywhereError(
        f"no acceptable shift among {MAX_SHIFT_TRIES} tries; pencil may be singular"
    )


def _pairs(lams, residuals):
    out = [(complex(lam), float(res)) for lam, res in zip(lams, residuals)]
    return tuple(sorted(out, key=lambda pair: (pair[0].real, pair[0].imag)))


def generalized_eigenvalues(pc: CompanionPencil, p: MatrixPolynomial = None,
                            rng=None) -> EigenResult:
    """Eigenvalues of the pencil z*C1 - C0 by shift-and-invert.

    Shifts are drawn on the circle |sigma| = 1.37 until sigma*C1 - C0
    factors with a healthy pivot ratio (at most 8 tries).  theta and the
    eigenvectors of A = (sigma C1 - C0)^-1 C1 come from numpy.linalg.eig, and
    theta is classed infinite, perturbed infinite or finite by its error
    bound (module docstring), which reads the pencil alone: the split is the
    same with or without p.  Backward errors are taken against the
    polynomial when it is supplied, and against the pencil otherwise.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    sigma, a = _accepted_shift(pc, rng)
    try:
        thetas, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver did not converge: {exc}") from exc
    try:
        left = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        # exactly parallel eigenvectors, from an exactly repeated defective theta
        left = np.linalg.pinv(vectors)
    with np.errstate(over="ignore"):  # an infinite kappa is a defective theta
        kappa = np.linalg.norm(left, axis=1) * np.linalg.norm(vectors, axis=0)
    tol = a.shape[0] * MACHINE_EPSILON * np.linalg.norm(a)
    modulus = np.abs(thetas)
    # a theta repeated to working precision is an unperturbed multiple
    # eigenvalue (a root of z^2 at 0, say); its computed eigenvectors are
    # parallel, so kappa bounds nothing and it is infinite only if |theta| <= tol
    gaps = np.abs(thetas[:, None] - thetas[None, :]) + np.diag(np.full(thetas.size, np.inf))
    repeated = gaps.min(axis=1, initial=np.inf) <= tol
    infinite = modulus <= np.where(repeated, 1.0, kappa) * tol
    shown = ~infinite | (modulus > tol)
    lams = sigma - 1.0 / thetas[shown]
    finite = ~infinite[shown]
    residuals = (_pencil_backward_errors(pc, lams, vectors[:, shown]) if p is None
                 else _polynomial_backward_errors(p, lams))
    return EigenResult(finite=_pairs(lams[finite], residuals[finite]),
                       infinite_count=int(infinite.sum()), shift_used=complex(sigma),
                       spurious=_pairs(lams[~finite], residuals[~finite]))
