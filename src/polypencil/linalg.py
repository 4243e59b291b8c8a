"""Dense complex matrix kernels: LU with partial pivoting, solves, determinants.

Everything operates on plain ``numpy.ndarray`` values with dtype complex128.
Every factorization the package runs calls LAPACK through ``numpy.linalg``,
stacked over sample points where there are several, and the hand-written
elimination here has no runtime caller: ``guarded_solve`` is the LAPACK
solve with its rcond test, on which ``eigen`` accepts a shift and
``equivalence`` solves E from the leading term (both pass B = I and take
the inverse), and ``triples`` keeps sample points with M^-1 Y, the same
solve ``verify_triple`` runs; ``algebraic.verify_algebraic`` checks the
resolvent identity with LAPACK instead of a determinant ratio.  The guard
reads ||M||_F and ||M^-1 B||_F of each member in one pass, allocating no
stack-sized temporary, whose fresh pages would each cost a page fault.

``LUFactors``, ``lu_factor``, ``lu_solve`` and ``det`` stay only because
the benchmark names them:
``bench/spans.TRACED`` wraps them (``tests/test_traced_names.py`` checks
that they exist) and ``bench/test_bench.py`` patches them.  They go with
the benchmark refresh (ROADMAP item 1).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError

__all__ = [
    "as_cmatrix",
    "sip",
    "kron_eye",
    "LUFactors",
    "lu_factor",
    "lu_solve",
    "det",
    "PIVOT_GUARD",
    "guarded_solve",
]


def as_cmatrix(a, name="matrix"):
    """Coerce ``a`` to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be two-dimensional, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatchError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def sip(n: int) -> np.ndarray:
    """Anti-identity J (ones on the anti-diagonal); J @ J == I."""
    return np.eye(n, dtype=complex)[::-1].copy()


def kron_eye(a, n: int) -> np.ndarray:
    """np.kron(a, I_n) of a 2-D complex a as one broadcast product: the same bits, -0.0 too."""
    eye = np.eye(n, dtype=complex)
    return (a[:, None, :, None] * eye[None, :, None, :]).reshape(a.shape[0] * n, a.shape[1] * n)


@dataclass(frozen=True)
class LUFactors:
    """Packed L\\U factors of a square matrix with partial (row) pivoting.

    ``lu`` stores U on and above the diagonal and the unit-lower-triangular
    multipliers strictly below it.  ``row_swaps[k]`` is the row exchanged
    with row k at elimination step k; ``parity`` is the sign of the
    accumulated permutation.
    """

    lu: np.ndarray
    row_swaps: np.ndarray
    parity: int

    @property
    def n(self) -> int:
        return self.lu.shape[0]


def lu_factor(a) -> LUFactors:
    """PA = LU with partial pivoting.

    Raises SingularMatrixError as soon as a pivot column is exactly zero from
    the diagonal down; near-singular input is the caller's concern.
    """
    lu = as_cmatrix(a).copy()
    n, m = lu.shape
    if n != m:
        raise DimensionMismatchError(f"lu_factor needs a square matrix, got {n}x{m}")
    swaps = np.arange(n)
    parity = 1
    for k in range(n):
        col = np.abs(lu[k:, k])
        pick = int(np.argmax(col))
        if col[pick] == 0.0:
            raise SingularMatrixError(f"exactly zero pivot column at elimination step {k}")
        if pick != 0:
            lu[[k, k + pick]] = lu[[k + pick, k]]
            parity = -parity
        swaps[k] = k + pick
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return LUFactors(lu=lu, row_swaps=swaps, parity=parity)


def lu_solve(f: LUFactors, b) -> np.ndarray:
    """Solve A x = b given the factors of A.  b may have several columns."""
    rhs = as_cmatrix(b).copy()
    n = f.n
    if rhs.shape[0] != n:
        raise DimensionMismatchError(f"rhs has {rhs.shape[0]} rows, expected {n}")
    for k, r in enumerate(f.row_swaps):
        if r != k:
            rhs[[k, r]] = rhs[[r, k]]
    lu = f.lu
    for k in range(1, n):  # forward substitution, unit lower triangle
        rhs[k] -= lu[k, :k] @ rhs[:k]
    for k in range(n - 1, -1, -1):  # back substitution
        if k + 1 < n:
            rhs[k] -= lu[k, k + 1:] @ rhs[k + 1:]
        rhs[k] /= lu[k, k]
    return rhs


def det(a) -> complex:
    """parity * prod(diag U) of a square matrix; exact pivot breakdown means zero."""
    try:
        f = lu_factor(a)
    except SingularMatrixError:
        return 0.0 + 0.0j
    return complex(f.parity * np.prod(np.diag(f.lu)))


# Below this rcond_F = 1 / (||M||_F ||M^-1 B||_F) a pencil matrix M counts as
# numerically singular: its shift or sample point is redrawn, and a leading
# term C1 sends the strict equivalence to its constant term.
PIVOT_GUARD = 1e-12


def guarded_solve(m, b):
    """(M^-1 B, ok) for a matrix or a stack: ok where 1 / (||M||_F ||M^-1 B||_F) >= PIVOT_GUARD.

    B = I gives LAPACK's M^-1 bit for bit, and the rcond_F of M.  A stack
    takes a (1, N, k) B: NumPy < 2 reads a 2-D one as a stack of vectors.
    One LAPACK call solves the stack; when an exactly singular member makes
    it raise, the members are solved one by one, and that one alone is left
    NaN and refused.
    """
    m = np.asarray(m)
    try:
        solution = np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        b = np.broadcast_to(b, m.shape[:-1] + np.shape(b)[-1:])
        solution = np.full(b.shape, np.nan, dtype=complex)
        for k in np.ndindex(m.shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                solution[k] = np.linalg.solve(m[k], b[k])
    with np.errstate(all="ignore"):  # an overflowing M or M^-1 B is refused, not warned about
        rcond = 1.0 / (_frobenius(m) * _frobenius(solution))
    return solution, rcond >= PIVOT_GUARD


def _frobenius(m):
    """||M||_F of a matrix or of each member of a stack: one pass, no stack-sized temporary."""
    parts = np.ascontiguousarray(m, dtype=complex).view(np.float64)  # |z|^2 = re^2 + im^2
    return np.sqrt(np.einsum("...ij,...ij->...", parts, parts))
