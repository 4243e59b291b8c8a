"""Correctness checks for one output of one operation.

An operation *fails* when it raises, prints a traceback, exits with 2, 3
or 4, prints something that is not JSON, or, for eigenvalues, when a finite
oracle eigenvalue is missing from ``finite`` or a reported value matches no
oracle eigenvalue.  A *wrong* answer (which also fails) is a value the
oracle contradicts: an eigenvalue that does not exist, a pencil that breaks
the resolvent identity, barycentric weights that do not decompose
1/omega(z), an alglin pencil whose determinant is not a constant multiple
of det H(z), or a verdict that contradicts the residual printed next to it.
Exit code 5 is a verdict, not a failure.

A failure outside the defect classes that ``known_defect`` lists is
*unexpected*.  When unexpected failures exceed UNEXPECTED_MAX_SHARE of the
operations, the run's ``correct`` turns false, so a change that makes the
program fail in a new way (exceptions, a basis kind that stops working, a
lost Mandelbrot level) fails the run instead of only lowering ``ok_share``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import oracle

# Off-node points on |z| = 0.6 used for the independent identity checks.
CHECK_POINTS = (0.6 * np.exp(0.7j), 0.6 * np.exp(2.3j))
# Resolvent identity: with R = X (zC1 - C0)^-1 Y, the check is
# ||R P(z) - I||_F <= IDENTITY_TOL * cond(zC1 - C0) * max(1, ||R|| ||P(z)||),
# the size of the rounding error of a backward-stable solve.
IDENTITY_TOL = 1e-11
# Relative agreement required of alglin determinant ratios, and of the
# barycentric partial-fraction sum relative to the sum of its term sizes.
CHECK_TOL = 1e-6
# A partial-fraction sum off by more than CHECK_TOL but at most BARY_LOOSE_TOL
# is an inaccurate answer (a failure), beyond it a wrong one.  On Hermite
# nodes 1.5e-3 apart the weights come out with relative errors near 3e-6
# against a 50-digit computation.
BARY_LOOSE_TOL = 1e-3
# A reported eigenvalue farther from the oracle than its matching tolerance
# is still right when its backward error is at most STABLE_BACKWARD_ERROR:
# it is then an exact eigenvalue of a nearby pencil, and the distance is the
# eigenvalue's conditioning.  It must lie within LOOSE_MATCH_TOL (relative) of
# an oracle eigenvalue that nothing else matched.
STABLE_BACKWARD_ERROR = 1e-12
LOOSE_MATCH_TOL = 1e-3
# Mandelbrot roots: a reported lambda passes when the Newton step |p/p'| of
# the scalar recursion is at most ROOT_TOL * max(1, |lambda|).  For c near 1
# the roots at depths 5-7 lie at least 1e-3 apart and QZ puts its values
# within 1e-14 of them, so two values closer than ROOT_SEP are one root
# reported twice.
ROOT_TOL = 1e-6
ROOT_SEP = 1e-5
# Unexpected failures tolerated in a run: about two documents of a pass.
# Random inputs now and then hit a rare defect no class names (one Lagrange
# document in about a hundred seeds made QR give up with exit 4); a basis kind
# or a Mandelbrot depth that breaks costs 4 % of the operations or more.
UNEXPECTED_MAX_SHARE = 0.02
OK_CODES = {"eig": (0,), "eig_lib": (0,), "pencil": (0,), "bary": (0,),
            "verify": (0, 5), "equiv": (0, 5), "alglin": (0, 5), "verify_algebraic": (0,)}


@dataclass
class Result:
    failed: bool = False
    wrong: bool = False
    unexpected: bool = False  # failed outside the known-defect classes
    note: str = ""
    error: float = None    # accuracy contribution, when the answer is accepted
    forward: float = None  # eigenvalues: worst relative distance from the oracle
    verdict: bool = None   # pass/fail of a --tol check
    cause: str = ""        # "misclassified" or "missing" eigenvalues, "inaccurate" weights
    spurious: int = 0      # values moved to the spurious list
    reported: int = 0      # finite + spurious values reported


def check(op, code, out, err, prob, ctx):
    res = _check(op, code, out, err, prob, ctx)
    if res.failed and not res.wrong and not known_defect(op, prob, code, res):
        res.unexpected = True
        res.note = f"unexpected failure: {res.note}"
    return res


def known_defect(op, prob, code, res):
    """True for a failure of a class this version of polypencil is known to have.

    * ``eig`` classes genuine eigenvalues as spurious or infinite: the
      missing oracle eigenvalues are no more than the values listed as
      ``spurious`` plus the excess of ``infinite_count`` over the oracle's
      (absolute thresholds, ROADMAP item 3).  The rescaled monomial
      documents lose half their eigenvalues this way, other documents one or
      two now and then;
    * on a Hermite document with nearly coincident nodes, ``eig`` can find no
      acceptable shift and ``verify`` too few well-conditioned sample points
      (exit 3);
    * on a Lagrange or Hermite document, ``eig`` can exit 4 when QR fails to
      deflate;
    * ``bary`` on a Hermite document with nearly coincident nodes can
      return inaccurate weights;
    * ``equiv`` on a Lagrange document of grade 20 or more can exit 3.
    """
    kind = prob["label"].split("/", 1)[0]
    if op == "eig" and res.cause == "misclassified":
        return True
    if op == "eig" and kind in ("lagrange", "hermite") and code == 4 \
            and "without deflating" in res.note:
        return True
    if op == "bary" and kind == "hermite" and res.cause == "inaccurate":
        return True
    if kind == "hermite" and code == 3:
        return (op == "eig" and "no acceptable shift" in res.note) or \
            (op == "verify" and "well-conditioned sample points" in res.note)
    return op == "equiv" and kind == "lagrange" and prob["docs"][0]["grade"] >= 20 \
        and code == 3


def _check(op, code, out, err, prob, ctx):
    if not isinstance(code, int) or code not in OK_CODES.get(op, ()):
        return Result(failed=True, note=f"exit {code}: {err.strip()[-200:]}")
    if "Traceback" in err:
        return Result(failed=True, note="traceback on stderr")
    try:
        payload = json.loads(out)
    except (TypeError, ValueError):
        return Result(failed=True, note="stdout is not JSON")
    try:
        return CHECKS[op](payload, code, prob, ctx)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Result(failed=True, wrong=True, note=f"malformed output: {exc!r}")


def _wrong(note):
    return Result(failed=True, wrong=True, note=note)


def _eigen(payload, code, prob, ctx):
    ref, tol = prob["oracle"]
    finite = [oracle.parse_scalar(v) for v in payload["finite"]]
    spurious = [oracle.parse_scalar(e["value"]) for e in payload["spurious"]]
    distances, missing, extra = oracle.match(finite, ref, tol)
    if extra.size:
        stable = oracle.backward_errors(*prob["pencil"], extra) <= STABLE_BACKWARD_ERROR
        more, missing, unstable = oracle.match(extra[stable], missing, LOOSE_MATCH_TOL)
        distances = np.concatenate([distances, more])
        extra = np.concatenate([extra[~stable], unstable])
    res = Result(spurious=len(spurious), reported=len(finite) + len(spurious),
                 forward=float(distances.max(initial=0.0)))
    if extra.size:
        res.failed = res.wrong = True
        res.note = f"{extra.size} reported values match no oracle eigenvalue"
        return res
    if "depth" in prob:
        note = _mandelbrot_roots(prob, ref, finite)
        if note:
            return _wrong(note)
    if missing.size:
        # cli eig counts its spurious values in infinite_count as well
        size = prob["pencil"][0].shape[0]
        infinite = max(0, int(payload["infinite_count"]) - len(spurious) - (size - len(ref)))
        res.failed = True
        res.cause = "misclassified" if missing.size <= len(spurious) + infinite else "missing"
        res.note = (f"{missing.size} of {len(ref)} oracle eigenvalues missing from finite"
                    f" ({len(spurious)} values listed as spurious, {infinite} more infinite"
                    f" than the oracle finds)")
    if finite:
        res.error = float(oracle.backward_errors(*prob["pencil"], finite).max())
    return res


def _mandelbrot_roots(prob, ref, finite):
    """Check the oracle count and each reported value against p_depth itself.

    The oracle's QZ runs on the program's own pencil, so this is the check
    that the pencil linearizes p_depth.  Returns a note on failure.
    """
    degree = 2 ** prob["depth"] - 1
    if ref.size != degree:
        return f"pencil has {ref.size} finite eigenvalues, p_depth has degree {degree}"
    lam = np.asarray(finite, dtype=complex)
    p, dp = oracle.mandelbrot(lam, prob["depth"], prob["c"])
    off = np.abs(p) > ROOT_TOL * np.maximum(1.0, np.abs(lam)) * np.abs(dp)
    if off.any():
        return f"{int(off.sum())} reported values are not roots of p_depth"
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(lam.size, np.inf))
    if lam.size > 1 and gaps.min() <= ROOT_SEP:
        return "a root of p_depth is reported twice"
    return None


def _verdict(payload, code, key, tol):
    value = float(payload[key])
    verdict = bool(payload.get("pass", value <= tol))
    if verdict != (value <= tol) or (code == 0) != verdict:
        return _wrong(f"verdict {verdict} / exit {code} contradicts {key}={value:.3e}")
    return Result(verdict=verdict, error=value if verdict else None,
                  note="" if verdict else f"{key}={value:.3e} above tol")


def _verify(payload, code, prob, ctx):
    return _verdict(payload, code, "max_residual", ctx["tol"])


def _equiv(payload, code, prob, ctx):
    size = oracle.pencil_size(prob["docs"][0])
    e, f = (oracle.parse_matrix(payload[k]) for k in ("E", "F"))
    if e.shape != (size, size) or f.shape != (size, size):
        return _wrong(f"E/F shapes {e.shape}/{f.shape} for pencil size {size}")
    return _verdict(payload, code, "deviation", ctx["tol"])


def _pencil(payload, code, prob, ctx):
    doc = prob["docs"][0]
    n, size = doc["n"], oracle.pencil_size(doc)
    c1, c0, x, y = (oracle.parse_matrix(payload[k]) for k in ("C1", "C0", "X", "Y"))
    if payload["N"] != size or c1.shape != (size, size) or c0.shape != (size, size) \
            or x.shape != (n, size) or y.shape != (size, n):
        return _wrong(f"pencil shapes do not match N={size}")
    for z, p in _identity_points(doc):
        m = z * c1 - c0
        r = x @ np.linalg.solve(m, y)
        resid = np.linalg.norm(r @ p - np.eye(n))
        if resid > IDENTITY_TOL * np.linalg.cond(m) * max(1.0, np.linalg.norm(r) * np.linalg.norm(p)):
            return _wrong(f"resolvent identity off by {resid:.3e} at z={z:.3f}")
    return Result()


def _identity_points(doc):
    """(z, P(z)) pairs where P(z) is known accurately.

    Coefficient bases: CHECK_POINTS, with P from the independent evaluator.
    Interpolation bases: the data at two nodes, where the document holds P
    itself, plus one point 0.05i off the most isolated node.  Farther out,
    jittered nodes that nearly coincide make any interpolation formula lose
    most of its digits.
    """
    kind = doc["basis"]["kind"]
    if kind not in ("lagrange", "hermite"):
        return [(z, oracle.evaluate(doc, z)) for z in CHECK_POINTS]
    values = doc["samples"] if kind == "lagrange" else [g[0] for g in doc["hermite_samples"]]
    nodes = [oracle.parse_scalar(t) for t in doc["basis"]["nodes"]]
    gap = [min(abs(t - u) for j, u in enumerate(nodes) if j != i) for i, t in enumerate(nodes)]
    lone = int(np.argmax(gap))
    z = nodes[lone] + 0.05j
    return [(nodes[i], oracle.parse_matrix(values[i])) for i in (lone, len(nodes) // 2)] + \
        [(z, oracle.evaluate(doc, z))]


def _bary(payload, code, prob, ctx):
    basis = prob["docs"][0]["basis"]
    nodes = [oracle.parse_scalar(t) for t in basis["nodes"]]
    confl = basis.get("confluencies", [1] * len(nodes))
    weights = [oracle.parse_scalar(w) for w in payload["weights"]]
    omega = np.poly(np.repeat(nodes, confl))
    got = np.array([oracle.parse_scalar(c) for c in payload["node_polynomial"]])
    if got.shape != omega.shape or np.max(np.abs(got - omega)) > CHECK_TOL * np.max(np.abs(omega)):
        return _wrong("node polynomial differs from prod (z - tau_i)^s_i")
    for z in CHECK_POINTS:
        terms, pos = [], 0
        for tau, s in zip(nodes, confl):  # weights of one node: pole order s..1
            terms += [weights[pos + j] / (z - tau) ** (s - j) for j in range(s)]
            pos += s
        target = 1.0 / np.polyval(omega, z)
        off = abs(sum(terms) - target) / max(abs(target), sum(map(abs, terms)))
        if off > BARY_LOOSE_TOL:
            return _wrong(f"weights do not decompose 1/omega at z={z:.3f}")
        if off > CHECK_TOL:
            return Result(failed=True, cause="inaccurate",
                          note=f"weights decompose 1/omega only to {off:.1e} at z={z:.3f}")
    return Result()


def _alglin(payload, code, prob, ctx):
    da, db, cm = prob["docs"]
    c = oracle.parse_matrix(cm)
    size = oracle.pencil_size(da) + da["n"] + oracle.pencil_size(db)
    dh, eh = oracle.parse_matrix(payload["DH"]), oracle.parse_matrix(payload["EH"])
    if payload["N"] != size or dh.shape != (size, size) or eh.shape != (size, size):
        return _wrong(f"alglin pencil is not {size} x {size}")
    ratios = []
    for z in CHECK_POINTS + (0.3 - 0.2j,):
        h = z * oracle.evaluate(da, z) @ oracle.evaluate(db, z) + c
        ratios.append(np.linalg.det(z * dh - eh) / np.linalg.det(h))
    ratios = np.array(ratios)
    if np.max(np.abs(ratios - ratios[0])) > CHECK_TOL * abs(ratios[0]):
        return _wrong("det(z DH - EH) / det H(z) is not constant")
    return _verdict(payload, code, "ratio_spread", ctx["tol"])


def _verify_algebraic(payload, code, prob, ctx):
    """A verdict only: eig_lib checks the same levels against p_depth."""
    value = float(payload["ratio_spread"])
    verdict = value <= ctx["tol"]
    return Result(verdict=verdict, error=value if verdict else None)


CHECKS = {"eig": _eigen, "eig_lib": _eigen, "verify": _verify, "equiv": _equiv,
          "pencil": _pencil, "bary": _bary, "alglin": _alglin,
          "verify_algebraic": _verify_algebraic}
