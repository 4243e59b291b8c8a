"""JSON polynomial documents: the one on-disk format the CLI reads and writes.

A document is an object with a ``basis`` description, the block dimension
``n``, the ``grade``, and exactly one payload key: ``coefficients`` (list of
n x n matrices, ascending basis index), ``samples`` (one matrix per node), or
``hermite_samples`` (per node, a list of matrices: value, then scaled
derivatives ascending).  Complex scalars are two-element [re, im] arrays;
bare numbers are accepted on input and normalized to pairs on output.
Output matrices are written as JSON text by matrix_to_json, one format call
per row, and spliced into the CLI's payload: the bytes are those json.dumps
writes for the nested lists of pairs.
"""

from __future__ import annotations

import cmath

import numpy as np

from .bases import (
    Bernstein,
    ChebyshevT,
    CustomThreeTerm,
    Hermite,
    Lagrange,
    LegendreP,
    Monomial,
    Newton,
    ShiftedMonomial,
    Taylor,
    is_integer,
)
from .errors import BadConfluencyError, DocumentError
from .matpoly import MatrixPolynomial

__all__ = [
    "parse_scalar",
    "parse_matrix",
    "scalar_to_json",
    "matrix_to_json",
    "parse_basis",
    "parse_header",
    "parse_document",
]

_JSON_KINDS = {dict: "an object", str: "a string", bool: "a boolean", type(None): "null"}
BASIS_KINDS = (
    "monomial", "shifted", "taylor", "newton", "chebyshev", "legendre",
    "custom", "bernstein", "lagrange", "hermite",
)


def parse_scalar(v) -> complex:
    """A complex number from a JSON number or an [re, im] pair.

    Booleans, NaN, +-Inf and integers beyond the float range are schema errors.
    """
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v,)
    if not all(is_integer(x) or isinstance(x, float) for x in parts):
        raise DocumentError(f"expected a number or [re, im] pair, got {v!r}")
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        z = complex("inf")
    if not cmath.isfinite(z):
        raise DocumentError(f"expected a finite number, got {v!r}")
    return z


def parse_matrix(rows, n) -> np.ndarray:
    """An n x n complex matrix from rows of JSON numbers and [re, im] pairs.

    A matrix of finite floats and integers, all bare or all paired, goes to
    numpy in one pass.  Any other matrix is read entry by entry by
    parse_scalar, which raises the schema error of its first faulty row or
    entry.
    """
    if not isinstance(rows, list) or len(rows) != n:
        # "an" where n is read with a vowel first: eight, eleven, eighteen, eighty, ...
        digits = str(n)
        a = "an" if digits[0] == "8" or digits[:2] in ("11", "18") and len(digits) % 3 == 2 else "a"
        got = f"a list of length {len(rows)}" if isinstance(rows, list) else _JSON_KINDS.get(
            type(rows), "a number")
        raise DocumentError(f"expected {a} {n}x{n} matrix, got {got}")
    out = _numeric_matrix(rows, n)
    if out is not None:
        return out
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"matrix row {i} must have {n} entries")
        for j, v in enumerate(row):
            out[i, j] = parse_scalar(v)
    return out


def _numeric_matrix(rows, n):
    """rows as a complex array when every entry is a finite float or int, or a pair of them."""
    if not all(type(row) is list and len(row) == n for row in rows):
        return None
    kinds = {type(x) for row in rows for v in row for x in (v if type(v) is list else (v,))}
    if not kinds <= {float, int}:  # bool, None, str, dict and nested lists are refused
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


def scalar_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> str:
    """The JSON text of m as rows of [re, im] pairs, byte for byte what json.dumps writes.

    Each row is one ``%`` call on a format string of ``[%r, %r]`` pairs built
    once per matrix; ``%r`` is float.__repr__, the json module's float writer,
    and the per-row float lists are not GC-tracked, unlike one list per entry.
    A NaN or an infinity raises ValueError, as json.dumps(allow_nan=False) does.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if not np.isfinite(m).all():
        raise ValueError("Out of range float values are not JSON compliant")
    rows, cols = m.shape
    row = "[" + ", ".join(["[%r, %r]"] * cols) + "]"
    values = np.stack([m.real, m.imag], -1).reshape(rows, 2 * cols).tolist()
    return "[" + ", ".join([row % tuple(r) for r in values]) + "]"


def parse_basis(desc, grade):
    """The basis a description names; grade is the document's, None when it gives none.

    Every fault of the description, and every grade the basis contradicts,
    raises DocumentError; only duplicate nodes raise DuplicateNodesError.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise DocumentError('basis must be an object with a "kind" key')
    kind = desc["kind"]
    if kind not in BASIS_KINDS:
        raise DocumentError(f"unknown basis kind {kind!r}; expected one of {', '.join(BASIS_KINDS)}")
    try:
        basis = _basis(kind, desc, grade)
    except (ValueError, BadConfluencyError) as exc:  # a constructor refused the description
        raise DocumentError(str(exc)) from exc
    if isinstance(basis, Hermite) and grade is not None and grade != basis.grade:
        raise DocumentError(
            f"grade {grade} does not match the basis, whose grade is {basis.grade}")
    return basis


def _basis(kind, desc, grade):
    """The basis of a known kind; a constructor's ValueError or BadConfluencyError propagates."""
    if kind == "monomial":
        return Monomial()
    if kind == "shifted":
        return ShiftedMonomial(shift=parse_scalar(desc.get("shift", 0.0)))
    if kind == "taylor":
        return Taylor(shift=parse_scalar(desc.get("shift", 0.0)))
    if kind == "chebyshev":
        return ChebyshevT()
    if kind == "legendre":
        return LegendreP()
    if kind == "bernstein":
        if grade is not None and grade < 1:
            raise DocumentError("Bernstein grade must be >= 1")
        return Bernstein()
    if kind == "custom":
        rec = desc.get("recurrence")
        if not isinstance(rec, dict) or "alpha" not in rec:
            raise DocumentError('custom basis needs a "recurrence" object with alpha/beta/gamma')
        rows = [rec.get(key, []) for key in ("alpha", "beta", "gamma")]
        if not all(isinstance(row, list) for row in rows):
            raise DocumentError("custom recurrence alpha/beta/gamma must be lists")
        alpha, beta, gamma = (tuple(parse_scalar(v) for v in row) for row in rows)
        if grade is not None and len(alpha) < grade:
            raise DocumentError(f"custom recurrence of grade {grade} needs {grade} alpha values, "
                                f"got {len(alpha)}")
        return CustomThreeTerm(alpha=alpha, beta=beta, gamma=gamma)
    nodes = desc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise DocumentError(f"{kind} basis needs a nonempty node list")
    if kind == "newton" and grade is not None and len(nodes) < grade:
        raise DocumentError(f"newton basis of grade {grade} needs {grade} nodes, got {len(nodes)}")
    nodes = tuple(parse_scalar(t) for t in nodes)
    if kind == "newton":
        return Newton(nodes=nodes)
    if kind == "lagrange":
        return Lagrange(nodes=nodes)
    confl = desc.get("confluencies")
    if not isinstance(confl, list):
        raise DocumentError("hermite basis needs a confluency list")
    return Hermite(nodes=nodes, confluencies=tuple(confl))


def parse_header(doc, *keys):
    """Check that doc is an object holding keys; return its grade, None when absent."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise DocumentError(f'document is missing the "{key}" key')
    grade = doc.get("grade")
    if grade is not None and (not is_integer(grade) or grade < 0):
        raise DocumentError('"grade" must be a nonnegative integer')
    return grade


def parse_document(doc) -> MatrixPolynomial:
    """Validate a parsed JSON object and build the matrix polynomial.

    The payload is one nonempty list: the basis fixes its key, Hermite
    groups are checked against the confluencies and flattened, and the
    grade (declared, else the count of coefficients less one, else the
    basis's) fixes its count.  Every schema fault raises DocumentError.
    """
    grade = parse_header(doc, "basis", "n")
    n = doc["n"]
    if not is_integer(n) or n < 1:
        raise DocumentError('"n" must be a positive integer')
    payload_keys = [k for k in ("coefficients", "samples", "hermite_samples") if k in doc]
    if len(payload_keys) != 1:
        raise DocumentError("document needs exactly one of coefficients | samples | hermite_samples")
    key = payload_keys[0]
    mats = doc[key]
    if not isinstance(mats, list) or not mats:
        raise DocumentError(f"{key} must be a nonempty list")
    if grade is None and key == "coefficients":
        grade = len(mats) - 1
    basis = parse_basis(doc["basis"], grade)
    takes = ("samples" if isinstance(basis, Lagrange)
             else "hermite_samples" if isinstance(basis, Hermite) else "coefficients")
    if key != takes:
        raise DocumentError(f"a {doc['basis']['kind']} basis takes {takes}, not {key}")
    if key == "hermite_samples":
        sizes = [len(g) if isinstance(g, list) else None for g in mats]
        if sizes != list(basis.confluencies):
            raise DocumentError(f"hermite_samples group sizes {sizes} do not match the "
                                f"confluencies {list(basis.confluencies)}")
        mats = [m for group in mats for m in group]
    if grade is None:
        grade = basis.grade
    if len(mats) != grade + 1:
        # the Hermite count already matches: its groups match the confluencies
        raise DocumentError(
            f"grade {grade} needs {grade + 1} {key[:-1]} matrices, got {len(mats)}")
    return MatrixPolynomial(basis, [parse_matrix(m, n) for m in mats])
