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

from .bases import one_coefficients
from .errors import DimensionMismatchError, SingularMatrixError, SingularPencilError
from .linalg import as_cmatrix, guarded_solve, kron_eye, sip
from .matpoly import MatrixPolynomial, evaluate
from .pencils import CompanionPencil

__all__ = [
    "GeneralizedStandardTriple",
    "make_triple",
    "resolvent",
    "verify_triple",
    "flip_triple",
    "transpose_triple",
    "similarity_triple",
    "sample_points",
    "sample_resolvents",
]

@dataclass(frozen=True)
class GeneralizedStandardTriple:
    x: np.ndarray
    pencil: CompanionPencil
    y: np.ndarray


def make_triple(pc: CompanionPencil) -> GeneralizedStandardTriple:
    """Attach the universal X and Y to a pencil as a builder returned it.

    Its grade is the block count, less the structural blocks of its basis family.
    """
    if pc.basis is None:
        raise ValueError("pencil carries no basis; transform or compose its triple instead")
    n, blocks = pc.n, pc.size // pc.n
    row = one_coefficients(pc.basis, blocks - pc.basis.structural_blocks)
    x = kron_eye(row[None], n)
    y = np.zeros((pc.size, n), dtype=complex)
    y[:n, :] = np.eye(n, dtype=complex)
    return GeneralizedStandardTriple(x=x, pencil=pc, y=y)


# sample points per stacked LAPACK call: bounds each stack at _CHUNK * N^2
# entries whatever the sample count
_CHUNK = 64
_RADIUS = 2.0


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


def verify_triple(t: GeneralizedStandardTriple, p, zs, resolvents=None) -> float:
    """max over the samples of ||resolvent(z) P(z) - I||_F.

    ``p`` is a MatrixPolynomial, evaluated at all the samples in one call,
    or P's values already stacked over the samples, one (n, n) matrix per
    point (verify_algebraic passes H(z) so).  The resolvents are the stack
    sample_resolvents returned with ``zs``, or else come from one stacked
    solve per chunk of _CHUNK points.
    """
    zs = np.array([complex(z) for z in zs], dtype=complex)
    values = evaluate(p, zs) if isinstance(p, MatrixPolynomial) else np.asarray(p)
    eye = np.eye(t.pencil.n, dtype=complex)
    worst = 0.0
    for i in range(0, len(zs), _CHUNK):
        at = slice(i, i + _CHUNK)
        chunk = _resolvents(t, zs[at]) if resolvents is None else resolvents[at]
        residuals = chunk @ values[at] - eye
        worst = max(worst, float(np.linalg.norm(residuals, axis=(1, 2)).max()))
    return worst


def _transformed(t, x, c1, c0, y) -> GeneralizedStandardTriple:
    pencil = replace(t.pencil, c1=c1, c0=c0, basis=None)
    return GeneralizedStandardTriple(x=x, pencil=pencil, y=y)


def flip_triple(t: GeneralizedStandardTriple) -> GeneralizedStandardTriple:
    """(X J, J (z C1 - C0) J, J Y): the similarity by the anti-identity J = J^-1."""
    return similarity_triple(t, sip(t.pencil.size))


def transpose_triple(t: GeneralizedStandardTriple) -> GeneralizedStandardTriple:
    """(Y^T, z C1^T - C0^T, X^T), a triple of P^T: its resolvent is the transpose."""
    pc = t.pencil
    return _transformed(t, t.y.T.copy(), pc.c1.T.copy(), pc.c0.T.copy(), t.x.T.copy())


def similarity_triple(t: GeneralizedStandardTriple, s) -> GeneralizedStandardTriple:
    """Triple sharing the same resolvent: (X S, S^-1 (z C1 - C0) S, S^-1 Y)."""
    s = as_cmatrix(s)
    pc = t.pencil
    size = pc.size
    if s.shape != (size, size):
        raise DimensionMismatchError(f"similarity transform is {s.shape}, not {size} x {size}")
    try:
        moved = np.linalg.solve(s, np.hstack([pc.c1 @ s, pc.c0 @ s, t.y]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("similarity transform is singular") from exc
    return _transformed(t, t.x @ s, moved[:, :size], moved[:, size:2 * size],
                        moved[:, 2 * size:])


def _accepted(pc: CompanionPencil, y, count, rng):
    """The rounds of sampling: per round, the points kept and M^-1 Y, M = z C1 - C0, at each."""
    found = 0
    budget = 200 * count
    while found < count:
        if budget == 0:
            raise SingularPencilError("could not find enough well-conditioned sample points")
        pending = []
        while budget and found + len(pending) < count and len(pending) < _CHUNK:
            budget -= 1
            z = complex(rng.uniform(-_RADIUS, _RADIUS), rng.uniform(-_RADIUS, _RADIUS))
            if abs(z) <= _RADIUS:
                pending.append(z)
        solutions, ok = guarded_solve(pc.at(pending), y[None])
        found += int(ok.sum())
        yield [z for z, keep in zip(pending, ok) if keep], solutions[ok]


def sample_points(pc: CompanionPencil, count, rng):
    """Random sample points for resolvent checks, guarded against the spectrum.

    Draws z uniformly on the disk |z| <= 2, discarding candidates where
    1 / (||M||_F ||M^-1 Y||_F) of M = z C1 - C0 is below PIVOT_GUARD, with
    Y = I_N[:, :n], the Y of every make_triple and build_algebraic triple.
    Each round draws just enough candidates to complete the count, at most
    _CHUNK, and tests them with one batched solve (linalg.guarded_solve);
    rejected ones are replaced in the next round, so the accepted points and
    the RNG state are those of testing every draw as it comes.  At most
    200 * count draws are made.
    """
    y = np.eye(pc.size, pc.n, dtype=complex)
    return [z for points, _ in _accepted(pc, y, count, rng) for z in points]


def sample_resolvents(t: GeneralizedStandardTriple, count, rng):
    """sample_points on t's pencil, with X (z C1 - C0)^-1 Y at each point.

    Returns (points, resolvents), the resolvents stacked one (n, n) matrix
    per point.  The guard reads t's own Y, and each resolvent is X (M^-1 Y)
    from the M^-1 Y it solved for, the same solve verify_triple runs, so no
    sample matrix is factored twice; verify_triple takes them in place of
    its own solves, and they equal those to the bit.
    """
    n = t.pencil.n
    zs, resolvents = [], [np.empty((0, n, n), dtype=complex)]
    for points, solutions in _accepted(t.pencil, t.y, count, rng):
        zs += points
        resolvents.append(t.x @ solutions)
    return zs, np.concatenate(resolvents)
