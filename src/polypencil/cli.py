"""Command-line front end.

Subcommands: pencil | eig | verify | alglin | equiv | bary.  Input files are
JSON polynomial documents (see documents.py); results go to stdout as strict
JSON, diagnostics to stderr.  Exit codes: 0 success, 2 parse/schema or usage
error, 3 construction error, overflow or non-finite result, 4 eigenvalue
iteration failure, 5 verification above tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import algebraic as alg
from . import eigen
from .bases import barycentric_weights, node_polynomial
from .documents import (
    DocumentError,
    matrix_to_json,
    parse_basis,
    parse_document,
    parse_header,
    parse_matrix,
    scalar_to_json,
)
from .equivalence import (
    TO_MONOMIAL,
    equivalence_degree_graded,
    equivalence_lagrange,
    verify_equivalence,
)
from .errors import NoConvergenceError, PolyPencilError, UnsupportedBasisError
from .pencils import build
from .triples import make_triple, sample_resolvents, verify_triple

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CONSTRUCTION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY_FAILED = 5


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


# encode reaches the C encoder when indent is None; json.dump streams through the Python one
_COMPACT = json.JSONEncoder(allow_nan=False).encode
_PRETTY = json.JSONEncoder(indent=2, allow_nan=False).encode


def _emit(payload, pretty):
    """Write the payload as strict JSON; a NaN or an infinity in it raises ValueError.

    Matrix values are numpy arrays, written by matrix_to_json and spliced in
    between the encoder's own separators; --pretty reads that text back and
    indents it.  Either way the bytes are those json.dumps writes for the
    payload with each matrix as nested lists of [re, im] pairs.
    """
    try:
        text = "{" + ", ".join([
            _COMPACT(key) + ": " + (matrix_to_json(v) if isinstance(v, np.ndarray) else _COMPACT(v))
            for key, v in payload.items()]) + "}"
    except ValueError:
        raise ValueError("non-finite result: the output holds a NaN or an infinity") from None
    sys.stdout.write((_PRETTY(json.loads(text)) if pretty else text) + "\n")


def cmd_pencil(args):
    doc = _load_json(args.input)
    p = parse_document(doc)
    if args.basis_validate:
        return {"valid": True, "basis": doc["basis"]["kind"], "n": p.n, "grade": p.grade}, True
    triple = make_triple(build(p))
    return {
        "C1": triple.pencil.c1,
        "C0": triple.pencil.c0,
        "X": triple.x,
        "Y": triple.y,
        "N": triple.pencil.size,
    }, True


def cmd_eig(args):
    p = parse_document(_load_json(args.input))
    pc = build(p)
    rng = np.random.default_rng(args.seed)
    result = eigen.generalized_eigenvalues(pc, p, rng=rng)
    return {
        "finite": [scalar_to_json(lam) for lam, _ in result.finite],
        "residuals": [res for _, res in result.finite],
        # every infinite eigenvalue is deflated exactly, so no value is ever
        # listed; the key stays for readers of the earlier output
        "spurious": [],
        "infinite_count": result.infinite_count,
        "shift": scalar_to_json(result.shift_used),
    }, True


def cmd_verify(args):
    p = parse_document(_load_json(args.input))
    triple = make_triple(build(p))
    zs, resolvents = sample_resolvents(triple, args.samples, np.random.default_rng(args.seed))
    residual = verify_triple(triple, p, zs, resolvents)
    ok = residual <= args.tol
    return {"max_residual": residual, "samples": args.samples, "tol": args.tol, "pass": ok}, ok


def cmd_alglin(args):
    pa = parse_document(_load_json(args.a))
    pb = parse_document(_load_json(args.b))
    if pb.n != pa.n:
        raise DocumentError(f"A and B must share the block dimension: {args.a} has n = {pa.n}, "
                            f"{args.b} has n = {pb.n}")
    c_doc = _load_json(args.c)
    try:
        c = parse_matrix(c_doc, pa.n)
    except DocumentError as exc:
        raise DocumentError(f"--c file {args.c}: {exc}") from None
    t = alg.build_algebraic(make_triple(build(pa)), make_triple(build(pb)), c)
    zs, resolvents = sample_resolvents(t, args.samples, np.random.default_rng(args.seed))
    h = alg.h_values(pa, pb, c, zs)
    residual = verify_triple(t, h, zs, resolvents)
    ok = residual <= args.tol
    return {
        "DH": t.pencil.c1,
        "EH": t.pencil.c0,
        "N": t.pencil.size,
        "residual": residual,
        "ratio_spread": alg.ratio_spread(t, h, zs),
        "pass": ok,
    }, ok


def cmd_equiv(args):
    p = parse_document(_load_json(args.input))
    pair = (equivalence_lagrange if p.basis.structural_blocks else equivalence_degree_graded)(p)
    deviation = verify_equivalence(pair)
    ok = deviation <= args.tol
    return {
        "E": pair.e,
        "F": pair.f,
        "direction": TO_MONOMIAL,
        "deviation": deviation,
        "pass": ok,
    }, ok


def cmd_bary(args):
    doc = _load_json(args.input)
    grade = parse_header(doc, "basis")
    basis = parse_basis(doc["basis"], grade)
    try:
        weights = barycentric_weights(basis)
    except UnsupportedBasisError as exc:
        raise DocumentError("bary needs a lagrange or hermite basis") from exc
    return {
        "weights": [scalar_to_json(w) for w in weights],
        "node_polynomial": [scalar_to_json(c) for c in node_polynomial(basis)],
    }, True


def positive_int(text):
    """argparse type for counts: an integer >= 1 (a count of 0 checks nothing)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text):
    """argparse type for seeds: numpy's default_rng takes integers >= 0 only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def positive_float(text):
    """argparse type for tolerances: finite and > 0 (NaN and <= 0 fail all, inf passes all)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


OPTIONS = {
    "--basis-validate": dict(action="store_true",
                             help="validate the document and basis only; do not build"),
    "--c": dict(required=True, help="JSON file holding the constant matrix"),
    "--tol": dict(type=positive_float, default=1e-8, help="verification tolerance"),
    "--samples": dict(type=positive_int, default=10, help="number of sample points"),
    "--seed": dict(type=non_negative_int, default=0, help="RNG seed for samples and shifts"),
    "--pretty": dict(action="store_true", help="indent JSON output"),
}

# name: (handler, help, positional arguments, the options the handler reads);
# every command also takes --pretty, which main reads
COMMANDS = {
    "pencil": (cmd_pencil, "build the companion pencil and triple",
               ("input",), ("--basis-validate",)),
    "eig": (cmd_eig, "generalized eigenvalues with residuals", ("input",), ("--seed",)),
    "verify": (cmd_verify, "check the resolvent identity at random samples",
               ("input",), ("--tol", "--samples", "--seed")),
    "alglin": (cmd_alglin, "compose the pencil of z*A(z)*B(z) + C and check its triple",
               ("a", "b"), ("--c", "--tol", "--samples", "--seed")),
    "equiv": (cmd_equiv, "strict equivalence to the monomial pencil", ("input",), ("--tol",)),
    "bary": (cmd_bary, "barycentric weights and node polynomial", ("input",), ()),
}


@functools.cache
def _parser():
    """The argparse tree, built on first use and shared by every main call."""
    ap = argparse.ArgumentParser(prog="polypencil",
                                 description="Companion pencils and standard triples "
                                             "for matrix polynomials")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, text, positionals, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for arg in positionals:
            sp.add_argument(arg)
        for option in options + ("--pretty",):
            sp.add_argument(option, **OPTIONS[option])
        sp.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    """Run one subcommand: its payload goes to stdout as JSON, and its verdict picks 0 or 5."""
    args = _parser().parse_args(argv)
    try:
        payload, ok = args.func(args)
        _emit(payload, args.pretty)
    except (PolyPencilError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DocumentError):
            return EXIT_SCHEMA
        if isinstance(exc, NoConvergenceError):
            return EXIT_NO_CONVERGENCE
        return EXIT_CONSTRUCTION
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
