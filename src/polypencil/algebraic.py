"""Recursive algebraic linearization of H(z) = z A(z) B(z) + C.

Given generalized standard triples for A and B (in any bases, possibly
different) and a constant coupling matrix C, build_algebraic returns a triple
of H whose pencil z*DH - EH linearizes H.  The composition only touches the
triples' X/Y/C1/C0 blocks, so its output can be fed back in as a component,
one level after another.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SingularPencilError
from .linalg import as_cmatrix, det
from .matpoly import MatrixPolynomial, evaluate
from .pencils import CompanionPencil
from .triples import GeneralizedStandardTriple

__all__ = ["build_algebraic", "composed_triple", "verify_algebraic"]


def build_algebraic(ta: GeneralizedStandardTriple, tb: GeneralizedStandardTriple,
                    c) -> GeneralizedStandardTriple:
    """The triple (XH, z DH - EH, YH) of H(z) = z A(z) B(z) + C.

    DH = diag(DA, I, DB).  EH couples the two component pencils through
    -YA C XB in the upper right corner, -XA and -YB on the inner borders,
    and the components' constant terms EA and EB on the diagonal corners.
    With XH = [0 0 XB] and YH = [YA; 0; 0], XH (z DH - EH)^-1 YH = H^-1(z),
    so the result plugs straight back in as a component of the next level.
    """
    c = as_cmatrix(c)
    n = c.shape[0]
    if c.shape[1] != n:
        raise DimensionMismatchError("coupling matrix must be square")
    if ta.pencil.n != n or tb.pencil.n != n:
        raise DimensionMismatchError("component triples must share the block dimension of C")
    na, nb = ta.pencil.size, tb.pencil.size
    N = na + n + nb
    dh = np.zeros((N, N), dtype=complex)
    dh[:na, :na] = ta.pencil.c1
    dh[na:na + n, na:na + n] = np.eye(n, dtype=complex)
    dh[na + n:, na + n:] = tb.pencil.c1
    eh = np.zeros((N, N), dtype=complex)
    eh[:na, :na] = ta.pencil.c0
    eh[:na, na + n:] = -ta.y @ c @ tb.x
    eh[na:na + n, :na] = -ta.x
    eh[na + n:, na:na + n] = -tb.y
    eh[na + n:, na + n:] = tb.pencil.c0
    xh = np.zeros((n, N), dtype=complex)
    xh[:, na + n:] = tb.x
    yh = np.zeros((N, n), dtype=complex)
    yh[:na, :] = ta.y
    pc = CompanionPencil(c1=dh, c0=eh, n=n, ell=None)
    return GeneralizedStandardTriple(x=xh, pencil=pc, y=yh)


def composed_triple(t: GeneralizedStandardTriple, ta=None, tb=None) -> GeneralizedStandardTriple:
    """Return ``t``: build_algebraic already returns the composed triple.

    Only the benchmark still calls this, so that its recursion keeps
    running against the older two-step API; delete it with those calls.
    """
    return t


def _values(poly, zs):
    """poly at every z of zs, one matrix per point: a single batched evaluate for a
    MatrixPolynomial, one call per point for a plain callable."""
    if isinstance(poly, MatrixPolynomial):
        return evaluate(poly, zs)
    return [np.atleast_2d(np.asarray(poly(z), dtype=complex)) for z in zs]


def verify_algebraic(t: GeneralizedStandardTriple, a, b, c, zs) -> float:
    """Relative spread of det(z DH - EH) / det(z A(z) B(z) + C) over the samples.

    ``t`` is the triple build_algebraic returned for A, B and C; ``a`` and
    ``b`` are MatrixPolynomials or plain callables z -> matrix.
    The ratio should be a z-independent constant (reported implicitly via the
    spread; the constant itself depends on the component pencils' leading
    structure and is not normalized away).
    """
    c = as_cmatrix(c)
    zs = [complex(z) for z in zs]
    ratios = []
    for z, az, bz in zip(zs, _values(a, zs), _values(b, zs)):
        hz = z * (az @ bz) + c
        dh = det(hz)
        if dh == 0:
            raise SingularPencilError(f"H(z) is singular at sample z={z}", z=z)
        ratios.append(det(t.pencil.at(z)) / dh)
    ratios = np.asarray(ratios)
    mean = ratios.mean()
    if mean == 0:
        raise SingularPencilError("composed pencil vanished at every sample")
    return float(np.max(np.abs(ratios - mean)) / abs(mean))
