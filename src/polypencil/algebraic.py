"""Recursive algebraic linearization of H(z) = z A(z) B(z) + C.

Given generalized standard triples for A and B (in any bases, possibly
different) and a constant coupling matrix C, build_algebraic returns a triple
of H whose pencil z*DH - EH linearizes H.  The composition only touches the
triples' X/Y/C1/C0 blocks, so its output can be fed back in as a component,
one level after another.  verify_algebraic checks the identity that makes
this work, XH (z DH - EH)^-1 YH = H^-1(z), on LAPACK alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .linalg import as_cmatrix
from .matpoly import MatrixPolynomial, evaluate
from .pencils import CompanionPencil
from .triples import GeneralizedStandardTriple, verify_triple

__all__ = ["build_algebraic", "composed_triple", "h_values", "verify_algebraic", "ratio_spread"]


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
    pc = CompanionPencil(c1=dh, c0=eh, n=n)
    return GeneralizedStandardTriple(x=xh, pencil=pc, y=yh)


def composed_triple(t: GeneralizedStandardTriple, ta=None, tb=None) -> GeneralizedStandardTriple:
    """Return ``t``: build_algebraic already returns the composed triple.

    Only the benchmark still calls this, so that its recursion keeps
    running against the older two-step API; delete it with those calls.
    """
    return t


def _values(poly, zs):
    """poly at every z of zs, stacked: a single batched evaluate for a
    MatrixPolynomial, one call per point for a plain callable."""
    if isinstance(poly, MatrixPolynomial):
        return evaluate(poly, zs)
    return np.array([np.atleast_2d(np.asarray(poly(z), dtype=complex)) for z in zs])


def h_values(a, b, c, zs):
    """H(z) = z A(z) B(z) + C at every z of the sequence zs, stacked.

    An overflow anywhere in A, B or H raises NonFiniteError naming the first
    point it hit, with numpy's warnings off: a non-finite H(z) would make
    every check downstream read NaN.
    """
    zs = np.asarray(zs, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        a_values = _values(a, zs)
        b_values = a_values if b is a else _values(b, zs)  # a square z p_k p_k + c: p_k once
        h = zs[:, None, None] * (a_values @ b_values) + as_cmatrix(c)
    finite = np.isfinite(h).all(axis=(1, 2))
    if not finite.all():
        z = complex(zs[np.argmin(finite)])
        raise NonFiniteError(f"H(z) overflows at sample z={z}", z=z)
    return h


def verify_algebraic(t: GeneralizedStandardTriple, a, b, c, zs) -> float:
    """max over the samples of ||XH (z DH - EH)^-1 YH H(z) - I||_F.

    ``t`` is the triple build_algebraic returned for A, B and C; ``a`` and
    ``b`` are MatrixPolynomials or plain callables z -> matrix.  This is the
    identity XH (z DH - EH)^-1 YH = H^-1(z) that lets ``t`` be a component of
    the next level, and verify_triple checks it as it checks any triple:
    H(z) = z A(z) B(z) + C comes from one evaluation of A and of B at all the
    samples (one in all when ``b is a``, a Mandelbrot square), and the
    resolvents from one stacked LAPACK solve.  Unlike the
    ratio det(z DH - EH) / det H(z), it sees a wrong XH or YH.
    """
    return verify_triple(t, h_values(a, b, c, zs), zs)


def ratio_spread(t: GeneralizedStandardTriple, h, zs) -> float:
    """Relative spread of det(z DH - EH) / det H(z) over the samples.

    ``h`` holds H's values at ``zs``, as h_values returns them.  Both
    determinants come from one batched ``np.linalg.slogdet`` each.  This is
    the check verify_algebraic replaced; ``alglin`` still reports it under
    ``ratio_spread`` beside the new ``residual``, until the benchmark's alglin
    check reads ``residual``.
    """
    sign_t, log_t = np.linalg.slogdet(t.pencil.at(zs))
    sign_h, log_h = np.linalg.slogdet(h)
    ratios = sign_t * sign_h.conj() * np.exp(log_t - log_h)  # a sign has modulus 1
    mean = ratios.mean()
    return float(np.max(np.abs(ratios - mean)) / abs(mean))
