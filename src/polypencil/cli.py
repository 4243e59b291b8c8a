"""Command-line front end.

Subcommands: pencil | eig | verify | alglin | equiv | bary.  Input files are
JSON polynomial documents (see documents.py); results go to stdout as JSON,
diagnostics to stderr.  Exit codes: 0 success, 2 parse/schema error,
3 construction error, 4 eigenvalue iteration failure, 5 verification above
tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import algebraic as alg
from . import eigen
from .bases import Hermite, Lagrange, barycentric_weights, node_polynomial
from .documents import (
    DocumentError,
    matrix_to_json,
    parse_document,
    parse_matrix,
    scalar_to_json,
)
from .equivalence import (
    TO_MONOMIAL,
    equivalence_degree_graded,
    equivalence_lagrange,
    monomial_form,
    verify_equivalence,
)
from .errors import NoConvergenceError, PolyPencilError
from .matpoly import MatrixPolynomial
from .pencils import build, build_three_term
from .triples import make_triple, sample_points, verify_triple

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


def _load_polynomial(path) -> MatrixPolynomial:
    return parse_document(_load_json(path))


def _emit(payload, pretty):
    # json.dumps reaches the C encoder; json.dump streams through the Python one
    sys.stdout.write(json.dumps(payload, indent=2 if pretty else None) + "\n")


def _pencil_payload(triple):
    return {
        "C1": matrix_to_json(triple.pencil.c1),
        "C0": matrix_to_json(triple.pencil.c0),
        "X": matrix_to_json(triple.x),
        "Y": matrix_to_json(triple.y),
        "N": triple.pencil.size,
    }


def cmd_pencil(args):
    doc = _load_json(args.input)
    p = parse_document(doc)
    if args.basis_validate:
        _emit({"valid": True, "basis": doc["basis"]["kind"], "n": p.n, "grade": p.grade},
              args.pretty)
        return EXIT_OK
    _emit(_pencil_payload(make_triple(build(p))), args.pretty)
    return EXIT_OK


def cmd_eig(args):
    p = _load_polynomial(args.input)
    pc = build(p)
    rng = np.random.default_rng(args.seed)
    result = eigen.generalized_eigenvalues(pc, p, rng=rng)
    _emit({
        "finite": [scalar_to_json(lam) for lam, _ in result.finite],
        "residuals": [res for _, res in result.finite],
        # spurious values are perturbed infinities, counted in infinite_count;
        # magnitude and residual stay reported
        "spurious": [{"value": scalar_to_json(lam), "magnitude": abs(lam), "residual": res}
                     for lam, res in result.spurious],
        "infinite_count": result.infinite_count,
        "shift": scalar_to_json(result.shift_used),
    }, args.pretty)
    return EXIT_OK


def cmd_verify(args):
    p = _load_polynomial(args.input)
    triple = make_triple(build(p))
    rng = np.random.default_rng(args.seed)
    avoid = getattr(p.basis, "nodes", ())
    zs = sample_points(triple.pencil, args.samples, rng, avoid=avoid)
    residual = verify_triple(triple, p, zs)
    ok = residual <= args.tol
    _emit({"max_residual": residual, "samples": args.samples, "tol": args.tol, "pass": ok},
          args.pretty)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_alglin(args):
    pa = _load_polynomial(args.a)
    pb = _load_polynomial(args.b)
    cdoc = _load_json(args.c)
    if isinstance(cdoc, dict) and "matrix" in cdoc:
        cdoc = cdoc["matrix"]
    c = parse_matrix(cdoc, pa.n)
    ta = make_triple(build(pa))
    tb = make_triple(build(pb))
    t = alg.build_algebraic(ta, tb, c)
    rng = np.random.default_rng(args.seed)
    zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(args.samples)]
    spread = alg.verify_algebraic(t, pa, pb, c, zs)
    ok = spread <= args.tol
    _emit({
        "DH": matrix_to_json(t.pencil.c1),
        "EH": matrix_to_json(t.pencil.c0),
        "N": t.pencil.size,
        "ratio_spread": spread,
        "pass": ok,
    }, args.pretty)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_equiv(args):
    p = _load_polynomial(args.input)
    if isinstance(p.basis, Lagrange):
        pair = equivalence_lagrange(p)
    else:
        pair = equivalence_degree_graded(p)
    pc_phi = build(p)
    pc_m = build_three_term(monomial_form(p))
    deviation = verify_equivalence(pair, pc_phi, pc_m)
    ok = deviation <= args.tol
    _emit({
        "E": matrix_to_json(pair.e),
        "F": matrix_to_json(pair.f),
        "direction": TO_MONOMIAL,
        "deviation": deviation,
        "pass": ok,
    }, args.pretty)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_bary(args):
    doc = _load_json(args.input)
    if not isinstance(doc, dict) or "basis" not in doc:
        raise DocumentError('document is missing the "basis" key')
    from .documents import parse_basis

    basis = parse_basis(doc["basis"], doc.get("grade"))
    if not isinstance(basis, (Lagrange, Hermite)):
        raise DocumentError("bary needs a lagrange or hermite basis")
    weights = barycentric_weights(basis)
    _emit({
        "weights": [scalar_to_json(w) for w in weights],
        "node_polynomial": [scalar_to_json(c) for c in node_polynomial(basis)],
    }, args.pretty)
    return EXIT_OK


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
    """argparse type for tolerances: finite and > 0 (NaN prints invalid JSON, <= 0 fails all)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=positive_float, default=1e-8,
                        help="verification tolerance")
    common.add_argument("--samples", type=positive_int, default=10, help="number of sample points")
    common.add_argument("--seed", type=non_negative_int, default=0,
                        help="RNG seed for samples and shifts")
    common.add_argument("--pretty", action="store_true", help="indent JSON output")

    ap = argparse.ArgumentParser(prog="polypencil",
                                 description="Companion pencils and standard triples "
                                             "for matrix polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pencil", parents=[common],
                        help="build the companion pencil and triple")
    sp.add_argument("input")
    sp.add_argument("--basis-validate", action="store_true",
                    help="validate the document and basis only; do not build")
    sp.set_defaults(func=cmd_pencil)

    sp = sub.add_parser("eig", parents=[common],
                        help="generalized eigenvalues with residuals")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_eig)

    sp = sub.add_parser("verify", parents=[common],
                        help="check the resolvent identity at random samples")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("alglin", parents=[common],
                        help="compose the pencil of z*A(z)*B(z) + C")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--c", required=True, help="JSON file holding the constant matrix")
    sp.set_defaults(func=cmd_alglin)

    sp = sub.add_parser("equiv", parents=[common],
                        help="strict equivalence to the monomial pencil")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("bary", parents=[common],
                        help="barycentric weights and node polynomial")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_bary)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (PolyPencilError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
