"""Generalized eigenvalues of companion pencils, with normwise backward errors.

When C1 is exactly the identity, the eigenvalues of z*C1 - C0 are those of
C0, all finite, and one LAPACK call through ``numpy.linalg.eigvals`` on C0
returns them; nothing is inverted or deflated.  The pencil residuals need
eigenvectors.  When C0 is unreduced upper Hessenberg (zero below the
subdiagonal, no zero on it), as every Mandelbrot level and every scalar
monic companion is, the null vector of C0 - lambda I follows from lambda by
back substitution from x_N = 1 (Hyman's method; Wilkinson, The Algebraic
Eigenvalue Problem, 1965): O(N^2) per eigenvalue, all of them in one
vectorised pass, with no further LAPACK call.  The recurrence is unstable
on general Hessenberg matrices, so its vectors are kept only when every
backward error they give is at most N u (u machine epsilon), the tolerance
of the certificate and the staircase below.  Otherwise, and for any other
C0, ``numpy.linalg.eig`` returns values and vectors both.  With a
polynomial given, no eigenvector is computed.

Every other pencil is first reduced to its finite part.  The arrowhead
pencil of Lagrange and Hermite data has 2n eigenvalues at infinity by its
structure alone; two complete QR factorizations split them off by a unitary
equivalence, leaving a pencil of size N - 2n (Van Beeumen, Michiels &
Meerbergen, IMA J. Numer. Anal. 2015).  A coefficient pencil is its own
finite part.  The finite part is balanced by power-of-two row and column
scalings, D_l (z C1 - C0) D_r, and then goes through shift-and-invert: with
M = D_l (sigma C1 - C0) D_r nonsingular, the eigenvalues theta of
A = M^-1 D_l C1 D_r map to pencil eigenvalues lambda = sigma - 1/theta, and
theta near zero means an eigenvalue at infinity.  The shift is accepted on
the reciprocal condition number rcond_F of M, read from its LAPACK inverse.

With tol = N * u * ||A||_F (u machine epsilon), 1/||A^-1||_F > tol proves
sigma_min(A) > tol: no matrix within tol of A is singular, so no theta is
zero within its backward error and every value is finite.  Then one LAPACK
call returns theta alone (``numpy.linalg.eigvals``), or theta and the
eigenvectors when no polynomial is given.

When that certificate fails, or no shift is found, the finite part still
has infinite eigenvalues, and a staircase on the left null space of C1
deflates them exactly (Van Dooren, LAA 1979; Demmel & Kagstrom, ACM TOMS
1993).  Each step takes U2, the left singular vectors of C1 whose singular
values are at most tol = N u ||[C1 C0]||_F; within that backward error the
k rows U2^* (z C1 - C0) = -R are constant.  With [Q1 Q2] a complete QR of
R^*, the unitary equivalence [U1 U2]^* (z C1 - C0) [Q2 Q1] is block upper
triangular with diagonal blocks z A - B and the constant -R Q1, so k
eigenvalues are infinite and the step repeats on A = U1^* C1 Q2,
B = U1^* C0 Q2.  When sigma_min(R) <= tol, R has a left null vector that
makes det(z C1 - C0) vanish for every z, and the pencil is singular.  The
deflated pencil takes the same shift search and LAPACK call; its
eigenvectors lift through the Q2 with no solve.  The certificate and the
staircase read the pencil alone: the triples make
det(z C1 - C0) = det P(z), so being finite is a property of the pencil,
and the polynomial only chooses which backward error is reported.

Every residual is a normwise backward error, computed for all eigenvalues at
once with no factorization per eigenvalue:

* from the pencil, ||(lambda C1 - C0) x|| / ((|lambda| ||C1||_F + ||C0||_F) ||x||),
  x the eigenvector;
* from the polynomial P = sum_k P_k phi_k (Tisseur, LAA 2000),
  eta = sigma_min(P(lambda)) / sum_k |phi_k(lambda)| ||P_k||_2, which is
  the reported residual.

Both weights allow no change to a zero coefficient.  A pencil with C0 = 0
has the exact eigenvalue 0; computed as about 1e-16 it can report a pencil
residual of order one, because |lambda| ||C1||_F + ||C0||_F vanishes with
lambda, as eta can at the root 0 of a polynomial with P_0 = 0.

Householder reduction to Hessenberg form followed by single-shift
(Wilkinson) QR, complex throughout, is kept as the self-contained reference
eigensolver ``eig``; the tests check the LAPACK path against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, SingularPencilEverywhereError
from .linalg import as_cmatrix, guarded_solve
# Unused here: bench/test_bench.py::test_patch_replaces_every_binding_and_restores_it
# checks that the span tracer rebinds this name; it goes with the benchmark
# refresh (ROADMAP item 1).
from .linalg import lu_factor  # noqa: F401
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
MAX_BALANCE_SWEEPS = 20
MACHINE_EPSILON = np.finfo(float).eps
HESSENBERG_GROWTH = 2.0 ** 1000
SINGULAR = "pencil is singular: det(z*C1 - C0) vanishes for every z to working precision"


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues as (lambda, backward error) pairs, plus the count of infinite ones.

    ``infinite_count`` counts every eigenvalue deflated exactly: the 2n
    structural infinities of an interpolation pencil and those the staircase
    splits off.  ``finite`` is sorted by real, then imaginary part.
    """

    finite: tuple
    infinite_count: int
    shift_used: complex


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
    phi = p.basis.phi_rows(data.shape[0], lams)
    smallest = np.linalg.svd(np.tensordot(phi, data, axes=1), compute_uv=False)[:, -1]
    scale = np.abs(phi) @ np.linalg.svd(data, compute_uv=False)[:, 0]
    # a zero denominator means P(lambda) = 0, which is exactly singular
    return np.divide(smallest, scale, out=np.zeros_like(smallest), where=scale > 0)


def eigen_residual(p: MatrixPolynomial, lam) -> float:
    """Normwise backward error of lambda as an eigenvalue of P (Tisseur, LAA 2000)."""
    return float(_polynomial_backward_errors(p, [lam])[0])


def _pencil_backward_errors(pc: CompanionPencil, lams, vectors, c1_vectors=None) -> np.ndarray:
    """||C1 v lambda - C0 v|| / ((|lambda| ||C1|| + ||C0||) ||v||) per column v of vectors.

    c1_vectors is C1 @ vectors when the caller has it (vectors itself when C1 = I).
    """
    if c1_vectors is None:
        c1_vectors = pc.c1 @ vectors
    residual = np.linalg.norm(c1_vectors * lams - pc.c0 @ vectors, axis=0)
    scale = np.abs(lams) * np.linalg.norm(pc.c1) + np.linalg.norm(pc.c0)
    return residual / (scale * np.linalg.norm(vectors, axis=0))


def _hessenberg_vectors(h, lams):
    """Null vectors of h - lambda I, one column per lambda; None unless h is unreduced Hessenberg.

    Hyman's method (Wilkinson, The Algebraic Eigenvalue Problem, 1965): with
    x_N = 1, rows N-1, ..., 1 of (h - lambda I) x = 0 give
    x_{i-1} = (lambda x_i - h[i, i:] x[i:]) / h[i, i-1], all lambdas at once
    as the columns of one array.  Row 0 is left as the residual.  Each step
    grows a column by at most g_i = (max|lambda| + ||h[i, i:]||_1)
    max(1, 1/|h[i, i-1]|), so the columns are rescaled to unit max-norm
    whenever the product of those bounds would pass HESSENBERG_GROWTH, and
    nothing overflows.  The recurrence is unstable on general Hessenberg
    matrices; its vectors are only worth their measured residual.
    """
    sub = np.diagonal(h, -1)
    if np.tril(h, -2).any() or not sub.all():
        return None
    with np.errstate(all="ignore"):  # non-finite vectors fail their residual
        growth = ((np.abs(lams).max() + np.abs(np.triu(h)).sum(axis=1)[1:])
                  * np.maximum(1.0, 1.0 / np.abs(sub)))
        x = np.zeros((h.shape[0], len(lams)), dtype=complex)
        x[-1] = 1.0
        bound = 1.0
        for i, g in zip(range(h.shape[0] - 1, 0, -1), growth[::-1].tolist()):
            if bound * g > HESSENBERG_GROWTH:
                x[i:] /= np.abs(x[i:]).max(axis=0)
                bound = 1.0
            x[i - 1] = (lams * x[i] - h[i, i:] @ x[i:]) / sub[i - 1]
            bound *= g
        x /= np.abs(x).max(axis=0)
    return x


def _standard(pc: CompanionPencil, p: MatrixPolynomial):
    """(lambda, backward errors) of a pencil with C1 = I: the eigenvalues of C0, all finite.

    The values come from numpy.linalg.eigvals(C0).  Without p, the pencil
    residuals take the eigenvectors of Hyman's recurrence when C0 is
    unreduced upper Hessenberg (every Mandelbrot level and every scalar
    monic companion is) and every residual is at most N u; otherwise, or
    for any other C0, values and vectors both come from numpy.linalg.eig.
    """
    lams = _lapack(np.linalg.eigvals, pc.c0)
    if p is not None:
        return lams, _polynomial_backward_errors(p, lams)
    vectors = _hessenberg_vectors(pc.c0, lams)
    if vectors is not None:
        residuals = _pencil_backward_errors(pc, lams, vectors, vectors)
        if np.all(residuals <= pc.size * MACHINE_EPSILON):
            return lams, residuals
    lams, vectors = _lapack(np.linalg.eig, pc.c0)
    return lams, _pencil_backward_errors(pc, lams, vectors, vectors)


def _lapack(solver, a):
    """solver(a), a numpy.linalg eigensolver; a LinAlgError raises NoConvergenceError."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver did not converge: {exc}") from exc


def _balancing(c1, c0):
    """Power-of-two scalings (d_l, d_r) that equalise the rows and columns of the pencil.

    Each sweep scales every row, then every column, of W = |C1|^2 + |C0|^2
    by the power of four nearest to the reciprocal of its sum, so the rows
    of [C1 C0] and the columns of [C1; C0] tend to unit 2-norm (Ward, SIAM
    J. Sci. Stat. Comput. 1981; Lemonnier & Van Dooren, SIMAX 2006).
    Sweeps stop when no factor changes, after at most MAX_BALANCE_SWEEPS.
    Powers of two scale without rounding, so D_l (z C1 - C0) D_r is an
    exactly equivalent pencil.
    """
    top = max(np.abs(c1).max(), np.abs(c0).max())
    left = np.zeros(c1.shape[0], dtype=int)
    right = np.zeros(c1.shape[1], dtype=int)
    if top > 0:
        unit = np.ldexp(1.0, -np.frexp(top)[1])  # every |entry| * unit < 1: W cannot overflow
        w = np.abs(c1 * unit) ** 2 + np.abs(c0 * unit) ** 2
        for _ in range(MAX_BALANCE_SWEEPS):
            step_l = _quarter_step(np.ldexp(w, 2 * right).sum(axis=1), left)
            left += step_l
            step_r = _quarter_step(np.ldexp(w, 2 * left[:, None]).sum(axis=0), right)
            right += step_r
            if not (step_l.any() or step_r.any()):
                break
    return np.ldexp(1.0, left), np.ldexp(1.0, right)


def _quarter_step(sums, exponents):
    """Change of exponents k making 4^k * sums nearest 1; 0 where a sum is zero or overflowed."""
    ok = np.isfinite(sums) & (sums > 0)
    target = -np.round(0.5 * np.log2(np.where(ok, sums, 1.0))).astype(int)
    return np.where(ok, target - exponents, 0)


def _accepted_shift(c1, c0, rng):
    """(sigma, A, d_r, M, B) for the first shift whose balanced pencil matrix is well conditioned.

    With B = D_l C1 D_r, M = sigma B - D_l C0 D_r is inverted by one LAPACK
    solve against I (built once for all tries), and sigma is accepted when
    rcond_F(M) >= PIVOT_GUARD; then A = M^-1 B, whose eigenvectors V give
    the pencil's as D_r V.  A singular M moves on to the next candidate.
    """
    d_l, d_r = _balancing(c1, c0)
    c1 = d_l[:, None] * c1 * d_r
    # D_l C0 D_r is formed at each try and not kept, so I costs no memory at the peak
    eye = np.eye(len(c1), dtype=complex)
    for _ in range(MAX_SHIFT_TRIES):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        candidate = SHIFT_RADIUS * complex(np.cos(angle), np.sin(angle))
        m = candidate * c1 - d_l[:, None] * c0 * d_r
        inverse, ok = guarded_solve(m, eye)
        if ok:
            return candidate, inverse @ c1, d_r, m, c1
    raise SingularPencilEverywhereError(
        f"no acceptable shift among {MAX_SHIFT_TRIES} tries; pencil may be singular"
    )


def _finite_part(pc: CompanionPencil):
    """(E, F, lift): z E - F carries the eigenvalues of pc less its structural infinities.

    An interpolation pencil is the arrowhead C1 = diag(0, I),
    C0 = [[0, D], [B, T]] with D of size n x m.  With Q_2 the last m - n
    columns of a complete QR of D^* (they span null D) and [W_1 W_2] the
    complete QR of B = W_1 R_B, the unitary equivalence diag(I, W^*) and
    diag(I, Q) splits it, det(z C1 - C0) = det(-D Q_1) det(-R_B)
    det(z W_2^* Q_2 - W_2^* T Q_2), so E = W_2^* Q_2, F = W_2^* T Q_2 and
    the other 2n eigenvalues are infinite.  An eigenvector y of z E - F lifts
    to x_1 = Q_2 y, x_0 = R_B^-1 W_1^* (lambda I - T) x_1.  The split needs D
    of full numerical row rank, sigma_min(D) > N u sigma_max(D); otherwise
    det(z C1 - C0) vanishes identically to working precision and
    SingularPencilEverywhereError is raised.  A coefficient pencil is its
    own finite part.  The staircase alone would also deflate these 2n
    infinities, but on the Lagrange and Hermite documents of the eig_dense
    benchmark it took 2.2 times as long and raised the worst eta from 1.6e-5
    to 0.2.
    """
    if pc.basis is None or not pc.basis.structural_blocks:
        return pc.c1, pc.c0, lambda lams, y: y
    n = pc.n
    d, b, t = pc.c0[:n, n:], pc.c0[n:, :n], pc.c0[n:, n:]
    singular = np.linalg.svd(d, compute_uv=False)
    if not singular[-1] > pc.size * MACHINE_EPSILON * singular[0]:
        raise SingularPencilEverywhereError(SINGULAR)
    q = np.linalg.qr(d.conj().T, mode="complete")[0][:, n:]
    w, r_b = np.linalg.qr(b, mode="complete")
    w_range, w_perp = w[:, :n].conj().T, w[:, n:].conj().T

    def lift(lams, y):
        x1 = q @ y
        return np.vstack([np.linalg.solve(r_b[:n], w_range @ (x1 * lams - t @ x1)), x1])

    return w_perp @ q, w_perp @ t @ q, lift


def _staircase(c1, c0, size):
    """(A, B, Q): z A - B has exactly the finite eigenvalues of z c1 - c0, Q y lifts its vectors.

    One step per rank drop of the leading matrix (module docstring); every
    rank decision is the backward error tol = size u ||[c1 c0]||_F.
    Raises SingularPencilEverywhereError when a step exposes a left null
    vector of the whole pencil.
    """
    tol = size * MACHINE_EPSILON * np.hypot(np.linalg.norm(c1), np.linalg.norm(c0))
    q = np.eye(c1.shape[1], dtype=complex)
    while c1.size:
        u, singular, _ = np.linalg.svd(c1)
        k = int(np.count_nonzero(singular <= tol))
        if k == 0:
            break
        r = u[:, -k:].conj().T @ c0
        if np.linalg.svd(r, compute_uv=False)[-1] <= tol:
            raise SingularPencilEverywhereError(SINGULAR)
        q2 = np.linalg.qr(r.conj().T, mode="complete")[0][:, k:]
        u1 = u[:, :-k].conj().T
        c1, c0, q = u1 @ c1 @ q2, u1 @ c0 @ q2, q @ q2
    return c1, c0, q


def _shift_inverted(pc: CompanionPencil, rng):
    """(sigma, A, d_r, lift) for the finite eigenvalues of pc; None when it has none.

    The thetas of A give lambda = sigma - 1/theta, and an eigenvector V of A
    lifts to lift(lambda, d_r V).  With tol = N u ||A||_F, 1/||A^-1||_F > tol
    gives sigma_min(A) > tol, so no theta of the finite part can be zero
    within its backward error (Eckart-Young); A^-1 = B^-1 M takes one solve.
    Without that certificate the staircase deflates the remaining
    infinities, and the deflated pencil takes the next shifts of rng.
    """
    c1, c0, lift = _finite_part(pc)
    try:
        sigma, a, d_r, m, b = _accepted_shift(c1, c0, rng)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            smallest = 1.0 / np.linalg.norm(np.linalg.solve(b, m))
        if smallest > pc.size * MACHINE_EPSILON * np.linalg.norm(a):
            return sigma, a, d_r, lift
    except (SingularPencilEverywhereError, np.linalg.LinAlgError):
        pass
    c1, c0, q = _staircase(c1, c0, pc.size)
    if not c1.size:
        return None
    sigma, a, d_r, _, _ = _accepted_shift(c1, c0, rng)
    return sigma, a, d_r, lambda lams, y: lift(lams, q @ y)


def _is_identity(a):
    """a == I without building I: a unit diagonal and no other nonzero entry."""
    return bool((np.diagonal(a) == 1).all()) and np.count_nonzero(a) == len(a)


def _pairs(lams, residuals):
    out = [(complex(lam), float(res)) for lam, res in zip(lams, residuals)]
    return tuple(sorted(out, key=lambda pair: (pair[0].real, pair[0].imag)))


def generalized_eigenvalues(pc: CompanionPencil, p: MatrixPolynomial = None,
                            rng=None) -> EigenResult:
    """Eigenvalues of the pencil z*C1 - C0, with a backward error each.

    A pencil whose C1 is exactly the identity (every monic monomial pencil
    and every Mandelbrot level) is the standard problem for C0: its values
    come from numpy.linalg.eigvals(C0), all finite, with no shift
    (``shift_used`` is 0, and with sigma = 0, lambda = sigma - 1/theta for
    the thetas of A = (sigma C1 - C0)^-1 C1 still holds).  Without p, the
    pencil residuals take Hyman's eigenvectors of a Hessenberg C0 when
    every residual is at most N u, and numpy.linalg.eig(C0) supplies values
    and vectors otherwise (module docstring).

    Any other pencil first loses the structural infinities of an
    interpolation pencil (its finite part), which is then balanced and
    shift-inverted: shifts are drawn on the circle |sigma| = 1.37 until the
    balanced sigma*C1 - C0 has rcond_F >= PIVOT_GUARD (at most 8 tries).
    When sigma_min(A) does not certify every theta finite, the staircase
    deflates the remaining infinities exactly and the deflated pencil takes
    the next shifts; if nothing is left, every eigenvalue is infinite and
    ``shift_used`` is 0.  The values come from numpy.linalg.eigvals
    (numpy.linalg.eig without p, for the eigenvectors), and
    ``infinite_count`` is N less their number.  The split reads the pencil
    alone, so it is the same with or without p.  A singular pencil raises
    SingularPencilEverywhereError.  Backward errors are taken against the
    polynomial when it is supplied, and against the pencil otherwise; at an
    exact zero eigenvalue of a pencil with C0 = 0 the pencil residual can
    be of order one (module docstring).
    """
    if _is_identity(pc.c1):
        # kept apart, chosen by the input's structure: with one BLAS thread a
        # Mandelbrot level at c = -1 takes 1.3 / 4.5 / 37 ms here at depths
        # 5 / 6 / 7 against 1.9 / 7.4 / 38 ms for the shift path (the level
        # scaled by 2); from depth 8 the shift path is faster
        lams, residuals = _standard(pc, p)
        return EigenResult(finite=_pairs(lams, residuals), infinite_count=0, shift_used=0j)
    solved = _shift_inverted(pc, np.random.default_rng(0) if rng is None else rng)
    if solved is None:
        return EigenResult(finite=(), infinite_count=pc.size, shift_used=0j)
    sigma, a, d_r, lift = solved
    if p is None:
        thetas, vectors = _lapack(np.linalg.eig, a)
        lams = sigma - 1.0 / thetas
        residuals = _pencil_backward_errors(pc, lams, lift(lams, d_r[:, None] * vectors))
    else:
        lams = sigma - 1.0 / _lapack(np.linalg.eigvals, a)
        residuals = _polynomial_backward_errors(p, lams)
    return EigenResult(finite=_pairs(lams, residuals), infinite_count=pc.size - len(lams),
                       shift_used=complex(sigma))
