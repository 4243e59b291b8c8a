"""Reference implementations of the whole-array paths, written one block or one matrix at a time.

Each function here computes what a production function computes, the slow
and obvious way: the families' pencils place one n x n block per slice
assignment, the Kronecker product is numpy's own, the monomial rows shift
by np.roll, a payload is read one matrix at a time, and a matrix is
written by json.dumps of its list form.  The sample matrices z*C1 - C0 are
formed with a temporary per operation, the guard's Frobenius norms are
numpy's own, C1 = I is tested against a built identity, and the balancing
sweep sums ldexp-scaled copies of W.  The tests compare the two
bit for bit (the guard by its decisions, since its sums round in another
order), and ``REPLACEMENTS`` lets a test run the CLI on these instead.
"""

import json
import sys

import numpy as np

from polypencil import documents, eigen, linalg
from polypencil.bases import Bernstein, Hermite, ThreeTermBasis, barycentric_weights
from polypencil.eigen import MAX_BALANCE_SWEEPS, _quarter_step
from polypencil.pencils import CompanionPencil


def _blk(i, n):
    return slice(i * n, (i + 1) * n)


def three_term_pencil(basis, coeff):
    """ThreeTermBasis.pencil: (C1, C0) of the coefficients."""
    ell, n = len(coeff) - 1, coeff.shape[1]
    N = ell * n
    eye = np.eye(n, dtype=complex)
    a_top, b_top, g_top = basis.recurrence_row(ell - 1)
    c1 = np.zeros((N, N), dtype=complex)
    c1[_blk(0, n), _blk(0, n)] = coeff[ell] / a_top
    c0 = np.zeros((N, N), dtype=complex)
    c0[_blk(0, n), _blk(0, n)] = (b_top / a_top) * coeff[ell] - coeff[ell - 1]
    if ell > 1:
        c0[_blk(0, n), _blk(1, n)] = (g_top / a_top) * coeff[ell] - coeff[ell - 2]
    for j in range(2, ell):
        c0[_blk(0, n), _blk(j, n)] = -coeff[ell - 1 - j]
    for i in range(1, ell):
        a, b, g = basis.recurrence_row(ell - 1 - i)
        c1[_blk(i, n), _blk(i, n)] = eye / a
        c0[_blk(i, n), _blk(i - 1, n)] = eye
        c0[_blk(i, n), _blk(i, n)] = (b / a) * eye
        if i + 1 < ell:
            c0[_blk(i, n), _blk(i + 1, n)] = (g / a) * eye
    return c1, c0


def bernstein_pencil(basis, coeff):
    """Bernstein.pencil: (C1, C0) of the coefficients."""
    ell, n = len(coeff) - 1, coeff.shape[1]
    N = ell * n
    eye = np.eye(n, dtype=complex)
    c0 = np.zeros((N, N), dtype=complex)
    for j in range(ell):
        c0[_blk(0, n), _blk(j, n)] = -coeff[ell - 1 - j]
    for i in range(1, ell):
        c0[_blk(i, n), _blk(i - 1, n)] = eye
    c1 = c0.copy()
    c1[_blk(0, n), _blk(0, n)] = coeff[ell] / ell - coeff[ell - 1]
    for i in range(1, ell):
        c1[_blk(i, n), _blk(i, n)] = ((i + 1.0) / (ell - i)) * eye
    return c1, c0


def hermite_pencil(basis, data):
    """Hermite.pencil: (C1, C0) of the interpolation data."""
    ell, n = len(data) - 1, data.shape[1]
    beta = barycentric_weights(basis)
    N = (ell + 2) * n
    eye = np.eye(n, dtype=complex)
    c1 = np.eye(N, dtype=complex)
    c1[_blk(0, n), _blk(0, n)] = 0.0
    c0 = np.zeros((N, N), dtype=complex)
    start = 0  # the node's payload offset; its block columns are start+1 .. start+s
    for tau, s in zip(basis.nodes, basis.confluencies):
        for j in range(s):
            col = start + 1 + j
            c0[_blk(0, n), _blk(col, n)] = -data[start + s - 1 - j]
            c0[_blk(col, n), _blk(0, n)] = beta[start + j] * eye
            c0[_blk(col, n), _blk(col, n)] = tau * eye
            if j > 0:
                c0[_blk(col, n), _blk(col - 1, n)] = eye
        start += s
    return c1, c0


def build(p):
    """pencils.build on the reference pencils, each family chosen by its class."""
    if isinstance(p.basis, ThreeTermBasis):
        c1, c0 = three_term_pencil(p.basis, p.data)
    elif isinstance(p.basis, Hermite):
        c1, c0 = hermite_pencil(p.basis, p.data)
    else:
        c1, c0 = bernstein_pencil(p.basis, p.data)
    return CompanionPencil(c1=c1, c0=c0, n=p.n, basis=p.basis)


def kron_eye(a, n):
    return np.kron(a, np.eye(n, dtype=complex))


def monomial_rows(basis, count):
    """ThreeTermBasis.monomial_rows with the shift by z made by np.roll."""
    rows = np.zeros((count, count), dtype=complex)
    prev = np.zeros(count, dtype=complex)
    cur = np.zeros(count, dtype=complex)
    cur[-1] = 1.0
    rows[count - 1] = cur
    for k in range(count - 1):
        a, b, g = basis.recurrence_row(k)
        shifted = np.roll(cur, -1)
        shifted[-1] = 0.0
        nxt = (shifted - b * cur - g * prev) / a
        prev, cur = cur, nxt
        rows[count - 2 - k] = cur
    return rows


def numeric_matrix(rows, n):
    """One matrix as a complex array when its entries are finite numbers, all bare or all pairs."""
    if not (type(rows) is list and len(rows) == n
            and all(type(row) is list and len(row) == n for row in rows)):
        return None
    kinds = {type(x) for row in rows for v in row for x in (v if type(v) is list else (v,))}
    if not kinds <= {float, int}:
        return None
    try:
        a = np.array(rows, dtype=float)
    except (ValueError, OverflowError):  # mixed bare and paired entries, an integer beyond float
        return None
    if not np.isfinite(a).all():
        return None
    if a.shape == (n, n):
        return a.astype(complex)
    if a.shape == (n, n, 2):
        return a.view(complex)[..., 0]
    return None


def numeric_by_matrix(mats, n):
    """documents._numeric one matrix at a time."""
    out = [numeric_matrix(rows, n) for rows in mats]
    return None if any(m is None for m in out) else np.array(out)


def read_matrix(rows, n):
    """A well-formed matrix read one matrix at a time, entry by entry where it is not uniform."""
    out = numeric_matrix(rows, n)
    if out is None:
        out = np.array([[documents.parse_scalar(v) for v in row] for row in rows], dtype=complex)
    return out


def matrix_to_json(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return json.dumps(np.stack([m.real, m.imag], -1).tolist(), allow_nan=False)


def at(pc, z):
    """CompanionPencil.at with the product and the difference each allocated."""
    return np.asarray(z, dtype=complex)[..., None, None] * pc.c1 - pc.c0


def frobenius(m):
    return np.linalg.norm(m, "fro", axis=(-2, -1))


def is_identity(a):
    return np.array_equal(a, np.eye(len(a)))


def balancing(c1, c0):
    """The ldexp sweep of eigen._balancing, the oracle for any faster form of its sums.

    ldexp scales each entry by its own power of four, which stays exact where
    the power itself is outside the float range.
    """
    top = max(np.abs(c1).max(), np.abs(c0).max())
    left = np.zeros(c1.shape[0], dtype=int)
    right = np.zeros(c1.shape[1], dtype=int)
    if top > 0:
        unit = np.ldexp(1.0, -np.frexp(top)[1])
        w = np.abs(c1 * unit) ** 2 + np.abs(c0 * unit) ** 2
        for _ in range(MAX_BALANCE_SWEEPS):
            step_l = _quarter_step(np.ldexp(w, 2 * right).sum(axis=1), left)
            left += step_l
            step_r = _quarter_step(np.ldexp(w, 2 * left[:, None]).sum(axis=0), right)
            right += step_r
            if not (step_l.any() or step_r.any()):
                break
    return np.ldexp(1.0, left), np.ldexp(1.0, right)


# (module or class, name, reference) for every production function this file restates;
# a family method is rebound on its class, so every subclass of the family takes it
REPLACEMENTS = [
    (ThreeTermBasis, "pencil", three_term_pencil),
    (Bernstein, "pencil", bernstein_pencil),
    (Hermite, "pencil", hermite_pencil),
    (linalg, "kron_eye", kron_eye),
    (ThreeTermBasis, "monomial_rows", monomial_rows),
    (documents, "_numeric", numeric_by_matrix),
    (documents, "matrix_to_json", matrix_to_json),
    (CompanionPencil, "at", at),
    (linalg, "_frobenius", frobenius),
    (eigen, "_is_identity", is_identity),
    (eigen, "_balancing", balancing),
]
PRODUCTION = {(owner, name): getattr(owner, name) for owner, name, _ in REPLACEMENTS}


def use_references(monkeypatch):
    """Bind every reference wherever its production function is bound in the package."""
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "polypencil"]
    namespaces += list(dict.fromkeys(owner for owner, _, _ in REPLACEMENTS
                                     if isinstance(owner, type)))
    for owner, name, reference in REPLACEMENTS:
        production = PRODUCTION[owner, name]
        assert getattr(owner, name) is production, "already replaced"
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is production:
                    monkeypatch.setattr(namespace, attr, reference)
