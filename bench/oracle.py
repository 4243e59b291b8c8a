"""Bench-only oracles: reference eigenvalues, eigenvalue matching, and an
independent evaluation of every document kind.

None of this imports polypencil.  scipy is used here and nowhere in the
package, which stays numpy-only at run time.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg
from numpy.polynomial import chebyshev, legendre
from scipy.optimize import linear_sum_assignment

# |alpha| > INF_RATIO * |beta| classifies a QZ eigenvalue alpha/beta as
# infinite.  Interpolation pencils put their structural infinities at
# |lambda| ~ 1e299 here, genuine eigenvalues of the workloads stay below 1e3.
INF_RATIO = 1e10
# A reported eigenvalue matches an oracle eigenvalue mu when its distance is
# at most max(EIG_MATCH_TOL, AGREE_FACTOR * d) * max(1, |mu|), d being the
# relative distance between the two oracles' values for mu.  The second term
# admits ill-conditioned eigenvalues (random Hermite data with nearly
# coincident nodes reaches d ~ 0.4), which no backward-stable solver can pin
# down more tightly.
EIG_MATCH_TOL = 1e-6
AGREE_FACTOR = 100.0
# Errors are floored here before taking -log10, so a digit count stays finite.
ERROR_FLOOR = 1e-16
ORACLE_SHIFT = 0.61 + 1.13j
# Inverse-iteration steps behind each backward error.
INVERSE_STEPS = 2


class OracleError(RuntimeError):
    """The reference computation itself is unreliable for this input."""


def rel_distance(lam, mu):
    return np.abs(lam - mu) / np.maximum(1.0, np.abs(mu))


def match(reported, oracle, tol=EIG_MATCH_TOL):
    """Pair reported with oracle eigenvalues by minimum-cost assignment.

    ``tol`` is a relative distance, one per oracle value or shared.  Returns
    (distances of matched pairs, oracle values left unmatched, reported
    values left unmatched).
    """
    reported = np.asarray(reported, dtype=complex).ravel()
    oracle = np.asarray(oracle, dtype=complex).ravel()
    if reported.size == 0 or oracle.size == 0:
        return np.zeros(0), oracle, reported
    cost = rel_distance(reported[:, None], oracle[None, :])
    rows, cols = linear_sum_assignment(cost)
    ok = cost[rows, cols] <= np.broadcast_to(tol, oracle.shape)[cols]
    matched_r, matched_o = set(rows[ok].tolist()), set(cols[ok].tolist())
    missing = oracle[[j for j in range(oracle.size) if j not in matched_o]]
    extra = reported[[i for i in range(reported.size) if i not in matched_r]]
    return cost[rows[ok], cols[ok]], missing, extra


def pencil_eigenvalues(c1, c0):
    """Finite eigenvalues of z*C1 - C0 and the matching tolerance of each.

    The reference is scipy's QZ.  The cross-check runs numpy.linalg.eigvals
    on (s*C1 - C0)^-1 C1 for a fixed shift s and maps theta to s - 1/theta.
    Raises OracleError when the two disagree on the number of finite
    eigenvalues.
    """
    alpha, beta = scipy.linalg.eigvals(c0, c1, homogeneous_eigvals=True)
    finite = np.abs(alpha) <= INF_RATIO * np.abs(beta)
    ref = alpha[finite] / beta[finite]
    theta = np.linalg.eigvals(np.linalg.solve(ORACLE_SHIFT * c1 - c0, c1))
    theta = theta[np.abs(theta) * INF_RATIO >= 1.0]
    cross = ORACLE_SHIFT - 1.0 / theta
    cross = cross[np.abs(cross) <= INF_RATIO]
    if cross.size != ref.size:
        raise OracleError(f"scipy finds {ref.size} finite eigenvalues, numpy {cross.size}")
    cost = rel_distance(cross[:, None], ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    agree = np.empty(ref.size)
    agree[cols] = cost[rows, cols]
    return ref, np.maximum(EIG_MATCH_TOL, AGREE_FACTOR * agree)


def backward_errors(c1, c0, lams):
    """Normwise backward error of each lambda as an eigenvalue of z*C1 - C0.

    ||(lam C1 - C0) v|| / ((|lam| ||C1|| + ||C0||) ||v||) for the vector v
    that INVERSE_STEPS inverse-iteration steps return; this bounds the smallest
    singular value, so the result is an attainable backward error.
    """
    n1, n0 = np.linalg.norm(c1, 2), np.linalg.norm(c0, 2)
    v0 = np.exp(1j * np.arange(c1.shape[0]))  # fixed start, no rng
    v0 /= np.linalg.norm(v0)
    out = []
    for lam in lams:
        m = lam * c1 - c0
        v = v0
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(m, check_finite=False)
            for _ in range(INVERSE_STEPS):
                w = scipy.linalg.lu_solve(lu, v, check_finite=False)
                norm = np.linalg.norm(w)
                if not np.isfinite(norm) or norm == 0.0:
                    v = None  # exactly singular at lam
                    break
                v = w / norm
        out.append(0.0 if v is None else float(np.linalg.norm(m @ v) / (abs(lam) * n1 + n0)))
    return np.array(out)


def mandelbrot(z, depth, c):
    """p_depth(z) and its derivative, with p_1 = z + 1 and p_{k+1} = z p_k^2 + c.

    Works elementwise on arrays; p_depth has degree 2**depth - 1.
    """
    p, dp = z + 1.0, np.ones_like(z)
    for _ in range(depth - 1):
        p, dp = z * p * p + c, p * p + 2.0 * z * p * dp
    return p, dp


# ---------------------------------------------------------------- documents

def parse_scalar(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def parse_matrix(rows):
    return np.array([[parse_scalar(v) for v in row] for row in rows], dtype=complex)


def pencil_size(doc):
    n, ell = doc["n"], doc["grade"]
    return n * (ell + 2) if doc["basis"]["kind"] in ("lagrange", "hermite") else n * ell


def evaluate(doc, z):
    """P(z) for a document, by formulas independent of the package's code.

    Chebyshev and Legendre use numpy's Clenshaw; Lagrange uses the product
    form; Hermite uses confluent divided differences.
    """
    z = complex(z)
    basis, kind = doc["basis"], doc["basis"]["kind"]
    if kind == "lagrange":
        nodes = [parse_scalar(t) for t in basis["nodes"]]
        out = 0
        for k, (tk, sk) in enumerate(zip(nodes, doc["samples"])):
            w = np.prod([(z - tj) / (tk - tj) for j, tj in enumerate(nodes) if j != k])
            out = out + w * parse_matrix(sk)
        return out
    if kind == "hermite":
        return _hermite_eval(basis, doc["hermite_samples"], z)
    coeffs = np.array([parse_matrix(c) for c in doc["coefficients"]])
    ell = len(coeffs) - 1
    if kind == "chebyshev":
        return chebyshev.chebval(z, coeffs)
    if kind == "legendre":
        return legendre.legval(z, coeffs)
    if kind == "bernstein":
        return sum(math.comb(ell, k) * z**k * (1 - z) ** (ell - k) * c
                   for k, c in enumerate(coeffs))
    if kind in ("monomial", "shifted", "taylor"):
        w = z - parse_scalar(basis["shift"]) if kind != "monomial" else z
        fact = (lambda k: math.factorial(k)) if kind == "taylor" else (lambda k: 1)
        return sum(c * w**k / fact(k) for k, c in enumerate(coeffs))
    if kind == "newton":
        nodes = [parse_scalar(t) for t in basis["nodes"]]
        return sum(c * np.prod([z - t for t in nodes[:k]]) for k, c in enumerate(coeffs))
    if kind == "custom":
        rec = basis["recurrence"]
        alpha, beta, gamma = ([parse_scalar(v) for v in rec[key]]
                              for key in ("alpha", "beta", "gamma"))
        prev, cur, out = 0.0, 1.0, coeffs[0].copy()
        for k in range(ell):
            prev, cur = cur, ((z - beta[k]) * cur - gamma[k] * prev) / alpha[k]
            out = out + coeffs[k + 1] * cur
        return out
    raise ValueError(f"unknown basis kind {kind!r}")


def _hermite_eval(basis, groups, z):
    """Newton form over the nodes repeated by confluency (divided differences)."""
    xs, group_of, table = [], [], []
    for g, (t, group) in enumerate(zip(basis["nodes"], groups)):
        table.append([parse_matrix(m) for m in group])  # P(tau), P'(tau)/1!, ...
        xs += [parse_scalar(t)] * len(group)
        group_of += [g] * len(group)
    prev = [table[g][0] for g in group_of]
    diag = [prev[0]]
    for k in range(1, len(xs)):
        cur = [None] * len(xs)
        for i in range(k, len(xs)):
            if group_of[i] == group_of[i - k]:
                cur[i] = table[group_of[i]][k]
            else:
                cur[i] = (prev[i] - prev[i - 1]) / (xs[i] - xs[i - k])
        diag.append(cur[k])
        prev = cur
    out, prod = 0, 1.0
    for k, d in enumerate(diag):
        out = out + d * prod
        prod = prod * (z - xs[k])
    return out
