"""JSON polynomial documents: the one on-disk format the CLI reads and writes.

A document is an object with a ``basis`` description, the block dimension
``n``, the ``grade``, and exactly one payload key: ``coefficients`` (list of
n x n matrices, ascending basis index), ``samples`` (one matrix per node), or
``hermite_samples`` (per node, a list of matrices: value, then scaled
derivatives ascending).  Complex scalars are two-element [re, im] arrays;
bare numbers are accepted on input and normalized to pairs on output.
Output matrices are written as JSON text by matrix_to_json and spliced into
the CLI's payload: +0.0 and -0.0 are fixed text, float.__repr__ runs only
for the other entries, and the bytes are those json.dumps writes for the
nested lists of pairs.  A payload is read in one array pass, and entry by
entry only where that refuses it, so every fault keeps parse_scalar's words.
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
    out = _numeric([rows], n)
    if out is not None:
        return out[0]
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"matrix row {i} must have {n} entries")
        for j, v in enumerate(row):
            out[i, j] = parse_scalar(v)
    return out


def _numeric(mats, n):
    """mats as one complex (k, n, n) array if all entries are finite numbers, all bare or paired."""
    if not all(type(m) is list and len(m) == n and all(type(row) is list and len(row) == n
                                                        for row in m) for m in mats):
        return None
    entries = [v for m in mats for row in m for v in row]
    pairs = set(map(type, entries)) == {list}
    if pairs:
        if set(map(len, entries)) != {2}:
            return None
        entries = [x for v in entries for x in v]
    if not set(map(type, entries)) <= {float, int}:  # bool, None, str, dict, nested lists,
        return None  # and bare entries mixed with pairs, are refused
    try:
        a = np.array(entries, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(a).all():
        return None
    return (a.view(complex) if pairs else a.astype(complex)).reshape(len(mats), n, n)


def scalar_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> str:
    """The JSON text of m as rows of [re, im] pairs, byte for byte what json.dumps writes.

    The text is laid out once as a list of pieces, "0.0" in every float slot
    between the separators; of the floats, read through a float64 view of m,
    only those whose bits are not those of +0.0 are overwritten: -0.0 with
    its fixed text, any other with float.__repr__, the json module's float
    writer.  The cost follows the nonzero entries, not the size of the
    matrix.  NaN or infinity raises ValueError, as json.dumps(allow_nan=False).
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    values = np.ascontiguousarray(m).view(np.float64).reshape(-1)  # re, im of each entry
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    rows, cols = m.shape
    if not m.size:  # no float slot: an empty row per row, or no row at all
        return "[" + ", ".join(["[]"] * rows) + "]"
    # float k sits at pieces[2k] and the separator after it at pieces[2k + 1];
    # the separator after a row's last pair closes that row, or the matrix
    pieces = ["0.0", ", ", "0.0", "], ["] * (rows * cols)
    pieces[4 * cols - 1::4 * cols] = ["]], [["] * (rows - 1) + ["]]]"]
    slots = np.flatnonzero(values.view(np.int64))  # +0.0 is the one float with no bit set
    for k, v in zip((2 * slots).tolist(), values[slots].tolist()):
        pieces[k] = repr(v) if v else "-0.0"  # -0.0 is the one left that is false
    return "[[[" + "".join(pieces)


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
        if grade is not None:
            basis.check_grade(grade)
    except (ValueError, BadConfluencyError) as exc:  # the basis refused the description
        raise DocumentError(str(exc)) from exc
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
        if grade is not None:
            CustomThreeTerm.grade_rule(grade, len(alpha))
        return CustomThreeTerm(alpha=alpha, beta=beta, gamma=gamma)
    nodes = desc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise DocumentError(f"{kind} basis needs a nonempty node list")
    if kind == "newton" and grade is not None:
        Newton.grade_rule(grade, len(nodes))
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
    if key != basis.payload_key:
        raise DocumentError(f"a {doc['basis']['kind']} basis takes {basis.payload_key}, not {key}")
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
    data = _numeric(mats, n)
    return MatrixPolynomial(basis, [parse_matrix(m, n) for m in mats] if data is None else data)
