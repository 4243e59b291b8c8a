import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import reference
from conftest import TEN_KINDS, random_polynomial, refuse_inverse
from polypencil import (
    MatrixPolynomial,
    algebraic,
    build,
    build_algebraic,
    cli,
    eigen,
    make_triple,
    sample_points,
    triples,
    verify_algebraic,
    verify_triple,
)
from polypencil.cli import _emit, main
from polypencil.documents import (
    DocumentError,
    matrix_to_json,
    parse_document,
    parse_matrix,
    parse_scalar,
    scalar_to_json,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def matrix(values):
    return [[v for v in row] for row in values]


NEWTON_DOC = {
    "basis": {"kind": "newton", "nodes": [1, 0.5, -0.5, -1]},
    "n": 2,
    "grade": 3,
    "coefficients": [
        matrix([[6, 25], [-1, 5]]),
        matrix([[-80 / 3, 25 / 3], [43 / 3, 94 / 3]]),
        matrix([[77 / 4, 31 / 4], [9 / 4, -25 / 2]]),
        matrix([[86 / 5, -61 / 5], [4, -48 / 5]]),
    ],
}

SQUARE_PLUS_ONE = {"basis": {"kind": "monomial"}, "n": 1,
                   "coefficients": [[[1]], [[0]], [[1]]]}

LAGRANGE_EYE = {"basis": {"kind": "lagrange", "nodes": [1, 0, -1]}, "n": 2,
                "samples": [matrix(np.eye(2).tolist())] * 3}

HERMITE_ONE = {
    "basis": {"kind": "hermite", "nodes": [1, 0.5, -0.5, -1],
              "confluencies": [2, 1, 1, 3]},
    "n": 1,
    "hermite_samples": [[[[1]], [[0]]], [[[1]]], [[[1]]], [[[1]], [[0]], [[0]]]],
}

BERNSTEIN_MONIC = {
    "basis": {"kind": "bernstein"}, "n": 2, "grade": 3,
    "coefficients": [
        matrix([[4 / 25, 99 / 100], [9 / 100, 3 / 5]]),
        matrix([[-17 / 25, 11 / 50], [-67 / 100, 7 / 50]]),
        matrix([[-59 / 100, -31 / 50], [3 / 25, -33 / 100]]),
        matrix([[41 / 50, 21 / 50], [18 / 25, 9 / 50]]),
    ],
}


def as_complex_matrix(obj):
    return np.array([[parse_scalar(v) for v in row] for row in obj], dtype=complex)


class TestPencilCommand:
    def test_newton_document(self, tmp_path, capsys):
        path = write(tmp_path, "newton.json", NEWTON_DOC)
        code, out, err = run(capsys, "pencil", path)
        assert code == 0 and err == ""
        doc = json.loads(out)
        c1 = as_complex_matrix(doc["C1"])
        assert c1[0, 0] == pytest.approx(17.2)
        assert c1[0, 1] == pytest.approx(-12.2)
        assert np.max(np.abs(as_complex_matrix(doc["C0"]) - golden.NEWTON_C0)) <= 1e-12
        assert doc["N"] == 6

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{not json")
        code, out, err = run(capsys, "pencil", path)
        assert code == 2
        assert out == ""
        assert err != ""

    def test_duplicate_node_exits_3(self, tmp_path, capsys):
        doc = {"basis": {"kind": "lagrange", "nodes": [1, 1, -1]}, "n": 1,
               "samples": [[[1]], [[1]], [[1]]]}
        path = write(tmp_path, "dup.json", doc)
        code, out, err = run(capsys, "pencil", path)
        assert code == 3
        assert "duplicate node" in err

    @pytest.mark.parametrize("command", ["pencil", "eig", "verify"])
    def test_grade_zero_hermite_exits_3(self, tmp_path, capsys, command):
        doc = {"basis": {"kind": "hermite", "nodes": [0.5], "confluencies": [1]}, "n": 1,
               "hermite_samples": [[[[2.0]]]]}
        code, out, err = run(capsys, command, write(tmp_path, "d.json", doc))
        assert code == 3 and out == ""
        assert "grade" in err

    def test_basis_validate_only(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", SQUARE_PLUS_ONE)
        code, out, _ = run(capsys, "pencil", path, "--basis-validate")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"valid": True, "basis": "monomial", "n": 1, "grade": 2}

    def test_round_trip_is_exact(self, tmp_path, capsys):
        path = write(tmp_path, "newton.json", NEWTON_DOC)
        code, out, _ = run(capsys, "pencil", path)
        assert code == 0
        doc = json.loads(out)
        from polypencil import MatrixPolynomial, Newton, build

        p = MatrixPolynomial.from_coefficients(
            Newton(nodes=golden.NEWTON_NODES), golden.NEWTON_COEFFS)
        pc = build(p)
        assert np.array_equal(as_complex_matrix(doc["C1"]), pc.c1)
        assert np.array_equal(as_complex_matrix(doc["C0"]), pc.c0)


class TestEigCommand:
    def test_square_plus_one(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", SQUARE_PLUS_ONE)
        code, out, _ = run(capsys, "eig", path)
        assert code == 0
        doc = json.loads(out)
        values = [complex(re, im) for re, im in doc["finite"]]
        got = sorted(values, key=lambda z: z.imag)
        assert abs(got[0] + 1j) <= 1e-8 and abs(got[1] - 1j) <= 1e-8
        assert doc["infinite_count"] == 0

    def test_constant_identity_lagrange(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", LAGRANGE_EYE)
        code, out, _ = run(capsys, "eig", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["finite"] == []
        assert doc["infinite_count"] >= 4

    def test_hermite_constant_magnitudes(self, tmp_path, capsys):
        # P = 1 given as Hermite data of grade 6: every eigenvalue is infinite
        path = write(tmp_path, "doc.json", HERMITE_ONE)
        code, out, _ = run(capsys, "eig", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["finite"] == [] and doc["infinite_count"] == 8 and doc["spurious"] == []

    def test_rescaled_monomial_keeps_every_eigenvalue(self, tmp_path, capsys):
        # n = 3, grade 8, complex Gaussian coefficients normalized to unit
        # largest norm, then z scaled by 20: P~(z) = P(z/20), |lambda| up to ~100
        rng = np.random.default_rng(5)
        coeffs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                  for _ in range(9)]
        scale = max(np.linalg.norm(c) for c in coeffs)
        coeffs = [c / scale / 20.0 ** k for k, c in enumerate(coeffs)]
        doc = {"basis": {"kind": "monomial"}, "n": 3, "grade": 8,
               "coefficients": [[[[v.real, v.imag] for v in row] for row in c] for c in coeffs]}
        code, out, _ = run(capsys, "eig", write(tmp_path, "doc.json", doc))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["finite"]) == 24
        assert payload["spurious"] == [] and payload["infinite_count"] == 0
        assert max(abs(complex(*v)) for v in payload["finite"]) > 20.0

    @pytest.mark.parametrize("coefficients, roots", [
        ([0, 1, 1], [-1, 0]),        # z + z^2: the zero P_0 admits no relative change
        ([0, 0, 1, 1], [-1, 0, 0]),  # z^2 + z^3: an exactly repeated theta
    ])
    def test_root_at_zero_stays_finite(self, tmp_path, capsys, coefficients, roots):
        doc = {"basis": {"kind": "monomial"}, "n": 1,
               "coefficients": [[[c]] for c in coefficients]}
        code, out, _ = run(capsys, "eig", write(tmp_path, "doc.json", doc))
        assert code == 0
        payload = json.loads(out)
        got = sorted(complex(*v).real for v in payload["finite"])
        assert got == pytest.approx(roots, abs=1e-7)
        assert payload["spurious"] == [] and payload["infinite_count"] == 0

    def test_lagrange_root_on_a_node_stays_finite(self, tmp_path, capsys):
        # samples of P(z) = z: the sample at the node 0 is exactly zero
        nodes = [1, 0.5, 0, -0.5, -1]
        doc = {"basis": {"kind": "lagrange", "nodes": nodes}, "n": 1,
               "samples": [[[t]] for t in nodes]}
        code, out, _ = run(capsys, "eig", write(tmp_path, "doc.json", doc))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["finite"]) == 1 and abs(complex(*payload["finite"][0])) <= 1e-12
        assert payload["infinite_count"] == 5 and payload["spurious"] == []


class TestVerifyCommand:
    def test_bernstein_monic(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", BERNSTEIN_MONIC)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["max_residual"] <= 1e-9

    def test_tolerance_failure_exits_5(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", BERNSTEIN_MONIC)
        code, out, _ = run(capsys, "verify", path, "--tol", "1e-30")
        assert code == 5
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_samples_is_a_usage_error(self, tmp_path, capsys, count):
        # a verification at no sample point would check nothing and pass
        a = write(tmp_path, "a.json", SQUARE_PLUS_ONE)
        c = write(tmp_path, "c.json", [[1.0]])
        for argv in (["verify", a], ["alglin", a, a, "--c", c]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--samples", count])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            assert "--samples" in captured.err and "Traceback" not in captured.err


def test_large_sample_count_runs(tmp_path, capsys):
    # sampling and verifying go in bounded stacks, so memory does not grow with --samples
    path = write(tmp_path, "doc.json", NEWTON_DOC)
    code, out, _ = run(capsys, "verify", path, "--samples", "500")
    assert code == 0 and json.loads(out)["samples"] == 500


class TestOptionContract:
    """--seed and --tol are checked at parse time: a bad value is a usage error, exit 2."""

    def usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert option in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["verify", "eig"])
    def test_negative_seed(self, tmp_path, capsys, command):
        path = write(tmp_path, "doc.json", SQUARE_PLUS_ONE)
        self.usage_error(capsys, [command, path, "--seed", "-1"], "--seed")

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        path = write(tmp_path, "doc.json", SQUARE_PLUS_ONE)
        self.usage_error(capsys, ["verify", path, "--tol", tol], "--tol")

    @pytest.mark.parametrize("argv", [["pencil", "--seed", "1"], ["eig", "--tol", "1e-3"],
                                      ["equiv", "--samples", "3"], ["bary", "--seed", "1"],
                                      ["verify", "--basis-validate"]])
    def test_option_the_command_does_not_read(self, tmp_path, capsys, argv):
        path = write(tmp_path, "doc.json", LAGRANGE_EYE)
        self.usage_error(capsys, [argv[0], path, *argv[1:]], argv[1])

    def test_zero_seed_and_small_tolerance_still_run(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", BERNSTEIN_MONIC)
        code, out, _ = run(capsys, "verify", path, "--seed", "0", "--tol", "1e-300")
        assert code == 5 and json.loads(out)["tol"] == 1e-300


def list_writer(payload, pretty):
    """The stdout of the writer matrix_to_json replaced: json.dumps, each matrix as lists."""
    payload = {key: np.stack([v.real, v.imag], -1).tolist() if isinstance(v, np.ndarray) else v
               for key, v in payload.items()}
    return json.dumps(payload, indent=2 if pretty else None, allow_nan=False) + "\n"


# finite floats that stress float.__repr__: signed zero, the smallest
# subnormal, the largest magnitudes, integral values and long mantissas
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 3.0,
               -12.0, 1e16, 2.0 ** 53, 0.1, 1 / 3, -2.5e-17, 123456789.125]


def views(m):
    """m itself, its transpose, or a reversed and strided slice of it."""
    return st.sampled_from([m, m.T, m[::-1, ::2]])


@st.composite
def complex_matrices(draw):
    """A random complex matrix of shape 1 x 1, n x N or N x n, possibly a non-contiguous view."""
    n, big = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(1, 1), (n, big), (big, n)]))
    part = st.one_of(st.sampled_from(EDGE_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False))
    count = 2 * shape[0] * shape[1]
    values = draw(st.lists(part, min_size=count, max_size=count))
    m = np.array(values).view(complex).reshape(shape)
    return draw(views(m))


@st.composite
def zero_heavy_matrices(draw):
    """A complex matrix whose parts are mostly exact +0.0 and -0.0, as a pencil's are.

    Whole rows and columns may be zero, or the whole matrix; the shapes take
    in 1 x 1, 1 x k and k x 1; and the matrix may be a transposed or sliced view.
    """
    k, other = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from([(1, 1), (1, k), (k, 1), (k, other)]))
    zero = st.sampled_from([0.0, 0.0, 0.0, -0.0])
    part = st.one_of(zero, zero, zero, st.sampled_from(EDGE_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False))
    count = 2 * shape[0] * shape[1]
    values = draw(st.lists(part, min_size=count, max_size=count))
    m = np.array(values).view(complex).reshape(shape)
    blank = draw(st.sampled_from([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]))
    if draw(st.sampled_from(["lines", "lines", "lines", "all"])) == "all":
        m[...] = blank
    else:
        m[draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0])), :] = blank
        m[:, draw(st.lists(st.integers(0, shape[1] - 1), max_size=shape[1]))] = blank
    return draw(views(m))


class TestWriter:
    """matrix_to_json writes the JSON text json.dumps writes for the list form."""

    EDGE = np.array([[-0.0, 5e-324, 1e308, 3.0],
                     [-0.0 - 0.0j, 1j * 5e-324, -1e308 + 2j, 1 - 2.5e-17j]])

    def test_matrix_to_json_matches_entrywise_floats(self):
        old = [[scalar_to_json(v) for v in row] for row in self.EDGE]
        assert matrix_to_json(self.EDGE) == json.dumps(old)  # text tells -0.0 from 0.0
        assert "-0.0" in matrix_to_json(self.EDGE)

    def test_matrix_to_json_of_a_scalar(self):
        assert matrix_to_json(2.5) == "[[[2.5, 0.0]]]"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=complex_matrices())
    def test_matrix_to_json_is_json_dumps_of_the_list_form(self, m):
        assert matrix_to_json(m) == json.dumps(np.stack([m.real, m.imag], -1).tolist())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=zero_heavy_matrices())
    def test_zero_heavy_matrix_is_written_as_json_dumps_writes_it(self, m):
        assert matrix_to_json(m) == json.dumps(np.stack([m.real, m.imag], -1).tolist())
        payload = {"C1": m, "N": m.shape[0]}
        for pretty in (False, True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                _emit(payload, pretty)
            assert out.getvalue() == list_writer(payload, pretty)

    @pytest.mark.parametrize("shape, text", [((0, 3), "[]"), ((3, 0), "[[], [], []]"),
                                             ((0, 0), "[]")], ids=["0x3", "3x0", "0x0"])
    def test_empty_matrix_is_written_as_json_dumps_writes_it(self, capsys, shape, text):
        m = np.zeros(shape, dtype=complex)
        assert matrix_to_json(m) == json.dumps(np.stack([m.real, m.imag], -1).tolist()) == text
        for pretty in (False, True):
            _emit({"X": m}, pretty)
            assert capsys.readouterr().out == list_writer({"X": m}, pretty)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_matrix_raises_as_json_dumps_does(self, bad):
        m = np.ones((2, 3), dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="not JSON compliant"):
            matrix_to_json(m)

    @pytest.mark.parametrize("pretty", [False, True])
    @pytest.mark.parametrize("matrices", [{"E": EDGE, "F": EDGE.T}, {}],
                             ids=["matrices", "no-matrix"])
    def test_emit_matches_json_dump(self, capsys, pretty, matrices):
        payload = {**matrices, "deviation": 1.25e-13, "pass": True,
                   "direction": "to_monomial", "N": 4, "empty": []}
        _emit(payload, pretty)
        assert capsys.readouterr().out == list_writer(payload, pretty)

    @pytest.mark.parametrize("pretty", [False, True])
    def test_emit_refuses_a_non_finite_matrix(self, capsys, pretty):
        with pytest.raises(ValueError, match="^non-finite result: the output holds a NaN"):
            _emit({"E": np.array([[1.0, np.nan]]), "pass": True}, pretty)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
    def test_non_finite_matrix_exits_3(self, tmp_path, capsys, monkeypatch, pretty):
        def non_finite_triple(pc):
            x = np.zeros((pc.n, pc.size), dtype=complex)
            x[0, 0] = np.inf
            return triples.GeneralizedStandardTriple(x=x, pencil=pc, y=x.T.copy())

        monkeypatch.setattr(cli, "make_triple", non_finite_triple)
        path = write(tmp_path, "d.json", SQUARE_PLUS_ONE)
        assert run(capsys, "pencil", path, *pretty) == (
            3, "", "error: non-finite result: the output holds a NaN or an infinity\n")


def cheb_doc(m1, m2=None, m0=None):
    """A grade-2 chebyshev document, n = 2, whose middle coefficient is m1."""
    mats = [m0 or [[1.0, 0.5], [0.25, 2.0]], m1, m2 or [[1, 0], [0, 1]]]
    return {"basis": {"kind": "chebyshev"}, "n": 2, "coefficients": mats}


class TestPayloadFaults:
    """A payload the one-pass reader refuses is read matrix by matrix, so every fault
    keeps the message and exit code it had when each matrix was read on its own."""

    PAIRS = [[[1.0, 0.0], [0.5, -1.0]], [[0.25, 0.0], [2.0, 0.5]]]
    BIG = 10 ** 400
    FAULTS = {
        "bool": (cheb_doc([[1.0, 0.5], [True, 1.0]]),
                 "expected a number or [re, im] pair, got True"),
        "string": (cheb_doc([[1.0, "0.5"], [0.25, 1.0]]),
                   "expected a number or [re, im] pair, got '0.5'"),
        "null": (cheb_doc([[1.0, 0.5], [0.25, None]]),
                 "expected a number or [re, im] pair, got None"),
        "pair-of-1": (cheb_doc([[1.0, [0.5]], [0.25, 1.0]]),
                      "expected a number or [re, im] pair, got [0.5]"),
        "pair-of-3": (cheb_doc([[1.0, 0.5], [[0.25, 1.0, 2.0], 1.0]]),
                      "expected a number or [re, im] pair, got [0.25, 1.0, 2.0]"),
        "mixed-in-a-matrix": (cheb_doc([[[1.0, 0.5], 0.5], [[0.25, 0.0], False]]),
                              "expected a number or [re, im] pair, got False"),
        "mixed-across-matrices": (cheb_doc(PAIRS, [[1, 0], [0, None]]),
                                  "expected a number or [re, im] pair, got None"),
        "first-of-two-faults": (cheb_doc(PAIRS, [[1, "x"], [0, None]],
                                         [[1.0, 0.5], [True, 2.0]]),
                                "expected a number or [re, im] pair, got True"),
        "ragged-row": (cheb_doc([[1.0, 0.5, 2.0], [0.25, 1.0]]),
                       "matrix row 0 must have 2 entries"),
        "short-row-of-pairs": (cheb_doc([[[1.0, 0.5]], [[0.25, 0.0], [1.0, 0.0]]]),
                               "matrix row 0 must have 2 entries"),
        "a-number": (cheb_doc(3.5), "expected a 2x2 matrix, got a number"),
        "an-object": (cheb_doc({"rows": [[1.0]]}), "expected a 2x2 matrix, got an object"),
        "short-matrix": (cheb_doc([[1.0, 0.5]]),
                         "expected a 2x2 matrix, got a list of length 1"),
        "beyond-float": (cheb_doc([[1.0, BIG], [0.25, 1.0]]),
                         f"expected a finite number, got {BIG}"),
        "beyond-float-in-a-pair": (cheb_doc([[1.0, [0.5, -BIG]], [0.25, 1.0]]),
                                   f"expected a finite number, got [0.5, {-BIG}]"),
        "nan": (cheb_doc([[1.0, float("nan")], [0.25, 1.0]]),
                "expected a finite number, got nan"),
        "n1-bool": ({"basis": {"kind": "monomial"}, "n": 1,
                     "coefficients": [[[1]], [[2]], [[False]]]},
                    "expected a number or [re, im] pair, got False"),
        "hermite-group": ({"basis": {"kind": "hermite", "nodes": [0, 1], "confluencies": [2, 1]},
                           "n": 1, "hermite_samples": [[[[1.0]], [[2.0]]], [[[[3.0, "i"]]]]]},
                          "expected a number or [re, im] pair, got [3.0, 'i']"),
    }

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_keeps_its_message_and_exit_2(self, tmp_path, capsys, name):
        doc, message = self.FAULTS[name]
        with pytest.raises(DocumentError) as info:
            parse_document(json.loads(json.dumps(doc)))
        assert str(info.value) == message
        path = write(tmp_path, "d.json", doc)
        for command in ("pencil", "verify", "equiv"):
            assert run(capsys, command, path) == (2, "", f"error: {message}\n")


class TestMatrixParser:
    """parse_matrix reads plain numeric matrices in one numpy pass, the rest entry by entry."""

    # one faulty entry, as JSON text, and the schema error it must give
    FAULTS = [
        ("true", "expected a number or [re, im] pair, got True"),
        ("NaN", "expected a finite number, got nan"),
        ("Infinity", "expected a finite number, got inf"),
        ("1" + "0" * 400, "expected a finite number, got 1" + "0" * 400),
        ('"1.0"', "expected a number or [re, im] pair, got '1.0'"),
        ("null", "expected a number or [re, im] pair, got None"),
        ("[1.0]", "expected a number or [re, im] pair, got [1.0]"),
        ("[1.0, 2.0, 3.0]", "expected a number or [re, im] pair, got [1.0, 2.0, 3.0]"),
        ("[[1.0, 2.0], 0.0]", "expected a number or [re, im] pair, got [[1.0, 2.0], 0.0]"),
    ]
    DOCS = {
        "coefficients": '{"basis": {"kind": "chebyshev"}, "n": 2, "coefficients": '
                        '[[[1.0, 0.5], [0.25, 2.0]], [[0.5, [1.0, -1.0]], [%s, 1.0]], '
                        '[[1, 0], [0, 1]]]}',
        "samples": '{"basis": {"kind": "lagrange", "nodes": [1, 0, -1]}, "n": 2, "samples": '
                   '[[[1.0, 0.5], [0.25, 2.0]], [[0.5, 3.0], [%s, 1.0]], [[1, 0], [0, 1]]]}',
    }

    @pytest.mark.parametrize("payload", sorted(DOCS))
    @pytest.mark.parametrize("token, message", FAULTS, ids=[t[:12] for t, _ in FAULTS])
    def test_faulty_entry_exits_2_with_its_message(self, tmp_path, capsys, payload, token,
                                                   message):
        path = write(tmp_path, "d.json", self.DOCS[payload] % token)
        assert run(capsys, "eig", path) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("rows, n, message", [
        ({"matrix": [[3]]}, 1, "expected a 1x1 matrix, got an object"),
        ([[1, 0]], 2, "expected a 2x2 matrix, got a list of length 1"),
        ("eye", 8, "expected an 8x8 matrix, got a string"),
        (None, 11, "expected an 11x11 matrix, got null"),
        (True, 18, "expected an 18x18 matrix, got a boolean"),
        (3.5, 81, "expected an 81x81 matrix, got a number"),
        (3, 111, "expected a 111x111 matrix, got a number"),
    ])
    def test_refused_matrix_says_what_it_got(self, rows, n, message):
        with pytest.raises(DocumentError) as info:
            parse_matrix(rows, n)
        assert str(info.value) == message

    def test_faulty_row_before_a_faulty_entry_is_reported_first(self):
        with pytest.raises(DocumentError, match="matrix row 0 must have 2 entries"):
            parse_matrix([[1.0], [True, 2.0]], 2)
        with pytest.raises(DocumentError, match="got True"):
            parse_matrix([[True, 2.0], [1.0]], 2)

    @pytest.mark.parametrize("rows", [
        [[1, -0.0], [2.5, 1e308]],
        [[[1, -0.0], [2.5, 3]], [[-0.0, 0.0], [5e-324, -1e308]]],
        [[0.5, [1.0, -0.0]], [[-0.0, 2], 3]],
        [[2 ** 70 + 1, [-3, 2 ** 60 + 1]], [-0.0, [0, -0.0]]],
    ], ids=["bare", "paired", "mixed", "large-int"])
    def test_same_array_as_entry_by_entry(self, rows):
        got = parse_matrix(rows, 2)
        expected = np.array([[parse_scalar(v) for v in row] for row in rows], dtype=complex)
        assert got.dtype == complex and got.shape == (2, 2)
        pairs = np.stack([got.real, got.imag], -1)
        assert repr(pairs.tolist()) == repr(np.stack([expected.real, expected.imag], -1).tolist())


def test_eig_runs_no_hand_written_lu(tmp_path, capsys, monkeypatch):
    """cli eig solves every kind of pencil without linalg's LU."""
    from polypencil import eigen, linalg

    def refuse(*args, **kwargs):
        raise AssertionError("the hand-written LU was called")

    for module, name in [(linalg, "lu_factor"), (linalg, "lu_solve"), (eigen, "lu_factor")]:
        monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(5)

    def mats(count, scale=1.0):
        return [(scale ** k * (rng.standard_normal((2, 2))
                               + 1j * rng.standard_normal((2, 2)))).tolist()
                for k in range(count)]

    def pairs(ms):
        return [[[[z.real, z.imag] for z in row] for row in np.asarray(m)] for m in ms]

    docs = {
        "chebyshev": {"basis": {"kind": "chebyshev"}, "n": 2, "coefficients": pairs(mats(7))},
        "lagrange": {"basis": {"kind": "lagrange", "nodes": [1, 0.5, 0, -0.5, -1]}, "n": 2,
                     "samples": pairs(mats(5))},
        "hermite": {"basis": {"kind": "hermite", "nodes": [1, 0, -1],
                              "confluencies": [2, 1, 3]}, "n": 2,
                    "hermite_samples": [pairs(mats(2)), pairs(mats(1)), pairs(mats(3))]},
        # P(z / 20): the monomial coefficients shrink by 20^-k
        "monomial-z20": {"basis": {"kind": "monomial"}, "n": 2,
                         "coefficients": pairs(mats(9, 1 / 20))},
    }
    for kind, doc in docs.items():
        code, out, err = run(capsys, "eig", write(tmp_path, f"{kind}.json", doc))
        assert (code, err) == (0, ""), kind
        result = json.loads(out)
        assert len(result["finite"]) + result["infinite_count"] > 0, kind


def basis_fields(kind, basis):
    """The keys besides "kind" of the document description of a conftest basis."""
    if kind in ("shifted", "taylor"):
        return {"shift": scalar_to_json(basis.shift)}
    if kind == "custom":
        return {"recurrence": {key: [scalar_to_json(v) for v in getattr(basis, key)]
                               for key in ("alpha", "beta", "gamma")}}
    if kind in ("newton", "lagrange", "hermite"):
        fields = {"nodes": [scalar_to_json(t) for t in basis.nodes]}
        if kind == "hermite":
            fields["confluencies"] = list(basis.confluencies)
        return fields
    return {}


def polynomial_document(kind, p):
    """The JSON text of p's document, p's basis being the conftest basis of that kind.

    Its matrices are written by matrix_to_json, so the document reads back
    as exactly p.
    """
    blocks = [matrix_to_json(m) for m in p.data]
    key = {"lagrange": "samples", "hermite": "hermite_samples"}.get(kind, "coefficients")
    if kind == "hermite":
        ends = np.cumsum(p.basis.confluencies)
        blocks = ["[" + ", ".join(blocks[end - s:end]) + "]"
                  for s, end in zip(p.basis.confluencies, ends)]
    basis = json.dumps({"kind": kind, **basis_fields(kind, p.basis)})
    return f'{{"basis": {basis}, "n": {p.n}, "{key}": [{", ".join(blocks)}]}}'


def chebyshev_with_leading(leading, grade=6, seed=4):
    p = random_polynomial("chebyshev", 2, grade, np.random.default_rng(seed))
    return polynomial_document("chebyshev", MatrixPolynomial.from_coefficients(
        p.basis, list(p.data[:-1]) + [np.asarray(leading, dtype=complex)]))


Z_ON_NODES = {"basis": {"kind": "lagrange", "nodes": [1, 0.5, 0, -0.5, -1]}, "n": 1,
              "samples": [[[t]] for t in [1, 0.5, 0, -0.5, -1]]}


class TestEigPath:
    """A regular P is solved on its certified finite part; the staircase deflates the rest."""

    def test_regular_documents_never_classify_the_full_pencil(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(*args):
            raise AssertionError("the certificate failed")

        monkeypatch.setattr(eigen, "_staircase", refuse)
        docs = [(kind, seed, polynomial_document(
                    kind, random_polynomial(kind, 2, 10, np.random.default_rng(seed))))
                for kind in ("chebyshev", "legendre", "lagrange", "hermite") for seed in range(3)]
        p = random_polynomial("monomial", 3, 8, np.random.default_rng(5))
        scaled = MatrixPolynomial.from_coefficients(  # P(z / 20)
            p.basis, [c / 20.0 ** k for k, c in enumerate(p.data)])
        docs.append(("monomial-z20", 5, polynomial_document("monomial", scaled)))
        for kind, seed, doc in docs:
            code, out, err = run(capsys, "eig", write(tmp_path, "doc.json", doc))
            assert (code, err) == (0, ""), (kind, seed)
            payload = json.loads(out)
            assert payload["spurious"] == [], (kind, seed)
            assert payload["infinite_count"] == (4 if kind in ("lagrange", "hermite") else 0)

    @pytest.mark.parametrize("doc, finite, infinite", [
        (LAGRANGE_EYE, 0, 8),  # P = I: every eigenvalue is infinite, at index 2
        (HERMITE_ONE, 0, 8),
        (Z_ON_NODES, 1, 5),  # P(z) = z at grade 4: three infinities at index 3
        (chebyshev_with_leading([[1, 2], [2, 4]], grade=3), 5, 1),
        (chebyshev_with_leading(np.zeros((2, 2)), grade=2), 2, 2),
        ({"basis": {"kind": "monomial"}, "n": 2,
          "coefficients": [[[1, 2], [3, -1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]]}, 1, 3),
        (chebyshev_with_leading(np.zeros((2, 2)), grade=5, seed=3), 8, 2),
    ], ids=["lagrange-eye", "hermite-one", "z-on-nodes", "chebyshev-rank-1-leading",
            "chebyshev-zero-leading", "monomial-zero-leading-rank-1-next", "chebyshev-g5-zero"])
    def test_infinite_eigenvalues_are_deflated(self, tmp_path, capsys, doc, finite, infinite):
        path = write(tmp_path, "doc.json", doc)
        code, out, err = run(capsys, "eig", path)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (len(payload["finite"]), payload["infinite_count"]) == (finite, infinite)
        assert payload["spurious"] == []
        # the split reads the pencil alone: the same without the polynomial
        p = parse_document(json.loads(Path(path).read_text()))
        result = eigen.generalized_eigenvalues(build(p), None)
        assert (len(result.finite), result.infinite_count) == (finite, infinite)


class TestNoConvergence:
    """A LinAlgError from LAPACK's eigensolver exits 4 on every eig path."""

    @staticmethod
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    @pytest.mark.parametrize("solver, doc", [
        ("eigvals", polynomial_document(
            "chebyshev", random_polynomial("chebyshev", 2, 6, np.random.default_rng(4)))),
        ("eigvals", chebyshev_with_leading(np.zeros((2, 2)))),  # no certificate: the staircase
        ("eigvals", SQUARE_PLUS_ONE),  # C1 = I: eigvals(C0), no eigenvectors
    ], ids=["certified-chebyshev", "staircase-chebyshev", "monic-monomial"])
    def test_eig_exits_4(self, tmp_path, capsys, monkeypatch, solver, doc):
        monkeypatch.setattr(np.linalg, solver, self.fail)
        code, out, err = run(capsys, "eig", write(tmp_path, "doc.json", doc))
        assert (code, out) == (4, "")
        assert err == ("error: LAPACK eigensolver did not converge: "
                       "Eigenvalues did not converge\n")


class TestSingularPolynomial:
    """det P(z) = 0 everywhere: the arrowhead's D or the staircase exposes it."""

    @pytest.mark.parametrize("doc", [
        {"basis": {"kind": "lagrange", "nodes": [1, 0.5, -0.5, -1]}, "n": 2,
         "samples": [[[0, 0], [0, 0]]] * 4},
        {"basis": {"kind": "hermite", "nodes": [1, 0, -1], "confluencies": [2, 1, 1]}, "n": 2,
         "hermite_samples": [[[[1, 2], [0, 0]], [[-3, 1], [0, 0]]], [[[2, 5], [0, 0]]],
                             [[[-1, 4], [0, 0]]]]},
        {"basis": {"kind": "lagrange", "nodes": [1, 0.5, -0.5, -1]}, "n": 2,
         "samples": [[[a, b], [a, b]] for a, b in [(1, 2), (-3, 1), (2, 5), (-1, 4)]]},
        # P(z) = [[1, z], [z, z^2]]: singular although its samples have full row rank
        {"basis": {"kind": "lagrange", "nodes": [1, 0.5, -0.5, -1]}, "n": 2,
         "samples": [[[1, t], [t, t * t]] for t in [1, 0.5, -0.5, -1]]},
    ], ids=["zero-samples", "hermite-zero-row", "equal-rows", "full-rank-samples"])
    def test_eig_exits_3(self, tmp_path, capsys, doc):
        code, out, err = run(capsys, "eig", write(tmp_path, "doc.json", doc))
        assert (code, out) == (3, "")
        assert err == ("error: pencil is singular: det(z*C1 - C0) vanishes for every z "
                       "to working precision\n")


class TestAlglinCommand:
    def test_scalar_reference(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", SQUARE_PLUS_ONE)
        b = write(tmp_path, "b.json",
                  {"basis": {"kind": "monomial"}, "n": 1,
                   "coefficients": [[[2]], [[0]], [[1]]]})
        c = write(tmp_path, "c.json", [[3]])
        code, out, _ = run(capsys, "alglin", a, b, "--c", c)
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 5
        assert doc["residual"] <= 1e-12 and doc["pass"] is True
        assert doc["ratio_spread"] <= 1e-8

    def test_sample_on_the_spectrum_is_redrawn(self, tmp_path, capsys):
        # A(z) = z - z0 with z0 the first draw of seed 0, B(z) = 1 of grade 1, C = 0:
        # z DH - EH is singular at z0, so the guard refuses it and draws another point
        rng = np.random.default_rng(0)
        z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = write(tmp_path, "a.json", {"basis": {"kind": "monomial"}, "n": 1,
                                       "coefficients": [[[[-z0.real, -z0.imag]]], [[1]]]})
        b = write(tmp_path, "b.json", {"basis": {"kind": "monomial"}, "n": 1,
                                       "coefficients": [[[1]], [[0]]]})
        code, out, err = run(capsys, "alglin", a, b, "--c", write(tmp_path, "c.json", [[0]]))
        assert (code, err) == (0, "")
        assert json.loads(out)["residual"] <= 1e-12

    def test_wrapped_matrix_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", SQUARE_PLUS_ONE)
        c = write(tmp_path, "c.json", {"matrix": [[3]]})
        code, out, err = run(capsys, "alglin", a, a, "--c", c)
        assert (code, out) == (2, "")
        assert err == f"error: --c file {c}: expected a 1x1 matrix, got an object\n"

    def test_block_sizes_of_a_and_b_that_differ_exit_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"basis": {"kind": "monomial"}, "n": 1,
                                       "coefficients": [[[1]], [[2]]]})
        b = write(tmp_path, "b.json", {"basis": {"kind": "monomial"}, "n": 2,
                                       "coefficients": [np.eye(2).tolist(), np.eye(2).tolist()]})
        c = write(tmp_path, "c.json", [[1]])
        code, out, err = run(capsys, "alglin", a, b, "--c", c)
        assert (code, out) == (2, "")
        assert err == (f"error: A and B must share the block dimension: {a} has n = 1, "
                       f"{b} has n = 2\n")

    def test_h_is_evaluated_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = algebraic.h_values

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(algebraic, "h_values", counted)
        a = write(tmp_path, "a.json", SQUARE_PLUS_ONE)
        code, _, _ = run(capsys, "alglin", a, a, "--c", write(tmp_path, "c.json", [[3]]))
        assert code == 0 and len(calls) == 1


class TestEquivCommand:
    def test_bernstein_reference(self, tmp_path, capsys):
        doc = {"basis": {"kind": "bernstein"}, "n": 1, "grade": 4,
               "coefficients": [[[1]], [[2]], [[3]], [[4]], [[5]]]}
        path = write(tmp_path, "doc.json", doc)
        code, out, _ = run(capsys, "equiv", path)
        assert code == 0
        payload = json.loads(out)
        e = as_complex_matrix(payload["E"])
        assert np.max(np.abs(e - golden.EQUIV_BERNSTEIN_E)) <= 1e-12
        assert payload["deviation"] <= 1e-12

    def test_hermite_document_passes(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", HERMITE_ONE)
        code, out, err = run(capsys, "equiv", path)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert len(payload["E"]) == len(payload["F"]) == 8  # ell + 2 blocks, ell = 6, n = 1
        assert payload["deviation"] <= 1e-12 and payload["pass"] is True

    @pytest.mark.parametrize("basis", [
        {"kind": "monomial"}, {"kind": "shifted", "shift": [0.5, -0.25]},
        {"kind": "taylor", "shift": -0.75}, {"kind": "newton", "nodes": [0.5]},
        {"kind": "chebyshev"}, {"kind": "legendre"},
        {"kind": "custom", "recurrence": {"alpha": [1.5], "beta": [-0.5], "gamma": [0.25]}},
    ], ids=lambda basis: basis["kind"])
    def test_grade_one_is_its_own_monomial_pencil(self, tmp_path, capsys, basis):
        # at grade 1 both pencils are P(z) itself, so E = F = I
        rng = np.random.default_rng(len(basis["kind"]))
        n = 2
        coefficients = [[[[re, im] for re, im in row] for row in rng.uniform(-2, 2, (n, n, 2))]
                        for _ in range(2)]
        doc = {"basis": basis, "n": n, "grade": 1, "coefficients": coefficients}
        code, out, err = run(capsys, "equiv", write(tmp_path, "doc.json", doc))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert np.array_equal(as_complex_matrix(payload["F"]), np.eye(n))
        assert np.max(np.abs(as_complex_matrix(payload["E"]) - np.eye(n))) <= 1e-15
        assert payload["deviation"] <= 1e-15 and payload["pass"] is True


    @pytest.mark.parametrize("basis, coefficients", [
        ({"kind": "monomial"}, [[[0]], [[1]], [[1]]]),
        ({"kind": "chebyshev"}, [[[1]], [[0]], [[1]]]),
    ], ids=["z^2+z", "T0+T2"])
    def test_singular_constant_term_uses_the_leading_term(self, tmp_path, capsys,
                                                          basis, coefficients):
        # P(0) = 0 makes C0 of the basis pencil singular; C1 is not
        doc = {"basis": basis, "n": 1, "coefficients": coefficients}
        code, out, err = run(capsys, "equiv", write(tmp_path, "doc.json", doc))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert np.array_equal(as_complex_matrix(payload["E"]), np.eye(2))
        assert np.array_equal(as_complex_matrix(payload["F"]), np.eye(2))
        assert payload["deviation"] == 0.0 and payload["pass"] is True


class TestBaryCommand:
    def test_lagrange_weights(self, tmp_path, capsys):
        doc = {"basis": {"kind": "lagrange", "nodes": [1, 0, -1]}}
        path = write(tmp_path, "doc.json", doc)
        code, out, _ = run(capsys, "bary", path)
        assert code == 0
        payload = json.loads(out)
        weights = [complex(re, im) for re, im in payload["weights"]]
        assert np.allclose(weights, [0.5, -1.0, 0.5])
        omega = [complex(re, im) for re, im in payload["node_polynomial"]]
        assert np.allclose(omega, [1, 0, -1, 0])

    @pytest.mark.parametrize("doc", [
        dict(LAGRANGE_EYE, grade=5),
        {"basis": {"kind": "hermite", "nodes": [1, -1], "confluencies": [2, 1]}, "n": 1,
         "grade": 7, "hermite_samples": [[[[1]], [[0]]], [[[2]]]]},
    ], ids=["lagrange-3-nodes", "hermite-confluencies-2-1"])
    def test_grade_the_basis_contradicts_exits_2(self, tmp_path, capsys, doc):
        # one schema fault, one message, from every command that reads the document
        path = write(tmp_path, "doc.json", doc)
        for argv in contract_commands(path, write(tmp_path, "c.json", [[1]])):
            assert run(capsys, *argv) == (2, "", f"error: grade {doc['grade']} does not "
                                                 f"match the basis, whose grade is 2\n"), argv[0]

    @pytest.mark.parametrize("doc, message", [
        ({"basis": {"kind": "hermite", "nodes": [], "confluencies": []}, "n": 1,
          "hermite_samples": [[[[1]]]]}, "hermite basis needs a nonempty node list"),
        ({"basis": {"kind": "lagrange", "nodes": []}, "n": 1, "samples": [[[1]]]},
         "lagrange basis needs a nonempty node list"),
        ({"basis": {"kind": "bernstein"}, "n": 1, "grade": 0, "coefficients": [[[1]]]},
         "Bernstein grade must be >= 1"),
    ], ids=["hermite-no-nodes", "lagrange-no-nodes", "bernstein-grade-0"])
    def test_basis_fault_exits_2_from_every_command(self, tmp_path, capsys, doc, message):
        path = write(tmp_path, "doc.json", doc)
        for argv in contract_commands(path, write(tmp_path, "c.json", [[1]])):
            assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv[0]


class TestOtherBases:
    def test_custom_recurrence_document(self, tmp_path, capsys):
        doc = {
            "basis": {"kind": "custom",
                      "recurrence": {"alpha": [1, 0.5, 0.5], "beta": [0, 0, 0],
                                     "gamma": [0, 0.5, 0.5]}},
            "n": 1,
            "coefficients": [[[0.3]], [[-0.7]], [[1.1]], [[0.4]]],
        }
        code, out, _ = run(capsys, "verify", write(tmp_path, "d.json", doc))
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-9

    def test_shifted_and_taylor_documents(self, tmp_path, capsys):
        for kind in ("shifted", "taylor"):
            doc = {"basis": {"kind": kind, "shift": 0.5}, "n": 1,
                   "coefficients": [[[1.0]], [[2.0]], [[0.5]]]}
            code, out, _ = run(capsys, "verify", write(tmp_path, "d.json", doc))
            assert code == 0, kind
            assert json.loads(out)["pass"] is True

    def test_bernstein_grade_one_document(self, tmp_path, capsys):
        # P(z) = 2 B_0 - B_1 = 2 - 3z, whose one eigenvalue is 2/3
        path = write(tmp_path, "d.json", {"basis": {"kind": "bernstein"}, "n": 1, "grade": 1,
                                          "coefficients": [[[2]], [[-1]]]})
        payloads = {}
        for command in ("pencil", "eig", "verify", "equiv"):
            code, out, err = run(capsys, command, path)
            assert (code, err) == (0, ""), command
            payloads[command] = json.loads(out)
        assert payloads["pencil"]["N"] == 1
        assert as_complex_matrix(payloads["pencil"]["X"]).tolist() == [[1]]
        assert abs(complex(*payloads["eig"]["finite"][0]) - 2 / 3) <= 1e-15
        assert payloads["verify"]["max_residual"] <= 1e-15
        assert payloads["equiv"]["deviation"] <= 1e-15


class TestDocumentValidation:
    def test_two_payload_keys(self, tmp_path, capsys):
        doc = dict(SQUARE_PLUS_ONE)
        doc["samples"] = [[[1]]]
        code, _, err = run(capsys, "pencil", write(tmp_path, "d.json", doc))
        assert code == 2 and "exactly one of" in err

    def test_bad_n(self, tmp_path, capsys):
        doc = dict(SQUARE_PLUS_ONE)
        doc["n"] = 0
        code, _, err = run(capsys, "pencil", write(tmp_path, "d.json", doc))
        assert code == 2

    def test_grade_coefficient_count_mismatch(self, tmp_path, capsys):
        doc = dict(SQUARE_PLUS_ONE)
        doc["grade"] = 4
        code, _, err = run(capsys, "pencil", write(tmp_path, "d.json", doc))
        assert code == 2 and "coefficient matrices" in err

    def _assert_schema_fault(self, capsys, word, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and word in err and "Traceback" not in err

    def test_boolean_n_exits_2(self, tmp_path, capsys):
        doc = dict(SQUARE_PLUS_ONE, n=True)
        self._assert_schema_fault(capsys, '"n"', "eig", write(tmp_path, "d.json", doc))

    def test_short_custom_beta_exits_2(self, tmp_path, capsys):
        doc = {"basis": {"kind": "custom",
                         "recurrence": {"alpha": [1, 0.5, 0.5], "beta": [0, 0],
                                        "gamma": [0, 0.5, 0.5]}},
               "n": 1, "coefficients": [[[0.3]], [[-0.7]], [[1.1]], [[0.4]]]}
        self._assert_schema_fault(capsys, "beta", "eig", write(tmp_path, "d.json", doc))

    def test_fractional_confluency_exits_2(self, tmp_path, capsys):
        doc = dict(HERMITE_ONE, basis=dict(HERMITE_ONE["basis"], confluencies=[2, 1, 1, 1.7]))
        self._assert_schema_fault(capsys, "confluencies", "eig", write(tmp_path, "d.json", doc))

    @pytest.mark.parametrize("command", ["pencil", "eig", "verify"])
    def test_infinite_shift_exits_2(self, tmp_path, capsys, command):
        # json writes the float as the bare token Infinity, which Python's reader accepts
        doc = dict(SQUARE_PLUS_ONE, basis={"kind": "shifted", "shift": float("inf")})
        self._assert_schema_fault(capsys, "finite", command, write(tmp_path, "d.json", doc))

    def test_infinite_coefficient_exits_2(self, tmp_path, capsys):
        doc = dict(SQUARE_PLUS_ONE, coefficients=[[[1]], [[float("-inf")]], [[1]]])
        self._assert_schema_fault(capsys, "finite", "eig", write(tmp_path, "d.json", doc))

    def test_nan_lagrange_node_exits_2(self, tmp_path, capsys):
        doc = dict(LAGRANGE_EYE, basis={"kind": "lagrange", "nodes": [1, float("nan"), -1]})
        self._assert_schema_fault(capsys, "finite", "eig", write(tmp_path, "d.json", doc))

    @pytest.mark.parametrize("digits,word", [(400, "finite"), (5000, "not valid JSON")])
    def test_out_of_range_integer_exits_2(self, tmp_path, capsys, digits, word):
        # beyond the float range, and beyond the reader's integer length limit
        text = json.dumps(SQUARE_PLUS_ONE).replace("[[0]]", "[[1" + "0" * digits + "]]")
        self._assert_schema_fault(capsys, word, "pencil", write(tmp_path, "d.json", text))

    def test_boolean_entry_exits_2(self, tmp_path, capsys):
        doc = dict(SQUARE_PLUS_ONE, coefficients=[[[True]], [[0]], [[1]]])
        self._assert_schema_fault(capsys, "number", "eig", write(tmp_path, "d.json", doc))

    def test_non_finite_coupling_matrix_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", SQUARE_PLUS_ONE)
        c = write(tmp_path, "c.json", [[[0.0, float("nan")]]])
        self._assert_schema_fault(capsys, "finite", "alglin", a, a, "--c", c)

    def test_too_few_newton_nodes_exits_2(self, tmp_path, capsys):
        doc = dict(NEWTON_DOC, basis={"kind": "newton", "nodes": [1, 0.5]})
        self._assert_schema_fault(capsys, "nodes", "eig", write(tmp_path, "d.json", doc))

    def test_bernstein_document_of_one_matrix_exits_2(self, tmp_path, capsys):
        doc = {"basis": {"kind": "bernstein"}, "n": 1, "coefficients": [[[1]]]}
        self._assert_schema_fault(capsys, "Bernstein grade", "eig", write(tmp_path, "d.json", doc))

    def test_hermite_grade_mismatch(self, tmp_path, capsys):
        doc = dict(HERMITE_ONE)
        doc["grade"] = 5
        code, _, err = run(capsys, "pencil", write(tmp_path, "d.json", doc))
        assert code == 2 and err == "error: grade 5 does not match the basis, whose grade is 6\n"

    @pytest.mark.parametrize("doc, word", [
        (dict(LAGRANGE_EYE, samples=LAGRANGE_EYE["samples"][:2]), "sample matrices"),
        (dict(LAGRANGE_EYE, samples=LAGRANGE_EYE["samples"] * 2), "sample matrices"),
        (dict(HERMITE_ONE, hermite_samples=HERMITE_ONE["hermite_samples"][:3]), "confluencies"),
        (dict(HERMITE_ONE, hermite_samples=[[[[1]]]] + HERMITE_ONE["hermite_samples"][1:]),
         "confluencies"),
    ], ids=["lagrange-short", "lagrange-long", "hermite-groups", "hermite-group-size"])
    def test_payload_shape_disagreement_exits_2(self, tmp_path, capsys, doc, word):
        # no grade is given, so the payload disagrees with the basis alone
        self._assert_schema_fault(capsys, word, "eig", write(tmp_path, "d.json", doc))

    @pytest.mark.parametrize("doc, word", [
        (dict(SQUARE_PLUS_ONE, basis=LAGRANGE_EYE["basis"]), "takes samples"),
        (dict(LAGRANGE_EYE, basis={"kind": "chebyshev"}), "takes coefficients"),
        (dict(LAGRANGE_EYE, basis=HERMITE_ONE["basis"]), "takes hermite_samples"),
        (dict(HERMITE_ONE, basis={"kind": "lagrange", "nodes": [1, 0.5, -0.5, -1]}),
         "takes samples"),
        (dict(HERMITE_ONE, basis={"kind": "chebyshev"}), "takes coefficients"),
    ], ids=["coefficients-lagrange", "samples-chebyshev", "samples-hermite",
            "hermite_samples-lagrange", "hermite_samples-chebyshev"])
    def test_payload_key_the_basis_cannot_take_exits_2(self, tmp_path, capsys, doc, word):
        self._assert_schema_fault(capsys, word, "pencil", write(tmp_path, "d.json", doc))

    @pytest.mark.parametrize("command", ["pencil", "eig", "verify"])
    def test_custom_recurrence_shorter_than_the_grade_exits_2(self, tmp_path, capsys, command):
        doc = {"basis": {"kind": "custom",
                         "recurrence": {"alpha": [1.0], "beta": [0.0], "gamma": [0.0]}},
               "n": 1, "coefficients": [[[0.3]], [[-0.7]], [[1.1]], [[0.4]]]}
        self._assert_schema_fault(capsys, "alpha", command, write(tmp_path, "d.json", doc))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteOutput:
    """stdout is strict JSON: an overflow or a NaN/Infinity in the result exits 3."""

    PHI_2 = {"n": 1, "coefficients": [[[0]], [[0]], [[1]]]}

    @pytest.mark.parametrize("command, doc", [
        ("equiv", dict(PHI_2, basis={"kind": "custom", "recurrence": {
            "alpha": [1, 1], "beta": [1e308, 0], "gamma": [0, 0.5]}})),
        ("equiv", dict(PHI_2, basis={"kind": "newton", "nodes": [1e308, 1]})),
        ("bary", {"basis": {"kind": "hermite", "nodes": [1, 1e308], "confluencies": [2, 1]}}),
    ], ids=["equiv-custom", "equiv-newton", "bary-hermite"])
    def test_non_finite_output_exits_3(self, tmp_path, capsys, command, doc):
        code, out, err = run(capsys, command, write(tmp_path, "d.json", doc))
        assert code == 3 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "non-finite" in errors[0]

    def test_overflow_exits_3(self, tmp_path, capsys):
        # the node power tau ** ell overflows while building E
        doc = dict(LAGRANGE_EYE, n=1, samples=[[[1]], [[2]], [[3]]],
                   basis={"kind": "lagrange", "nodes": [1e308, 0, -1]})
        code, out, err = run(capsys, "equiv", write(tmp_path, "d.json", doc))
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestOverflowingPencil:
    """A finite document whose pencil overflows: one message from every command, no warning."""

    DOC = {"basis": {"kind": "newton", "nodes": [1, 1e308]}, "n": 1, "grade": 2,
           "coefficients": [[[1]], [[1]], [[2]]]}
    MESSAGE = "error: pencil has non-finite entries: building it overflowed\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["pencil", "eig", "verify", "alglin", "equiv"])
    def test_every_building_command_exits_3_with_one_message(self, tmp_path, capsys, command):
        path = write(tmp_path, "d.json", self.DOC)
        extra = [path, "--c", write(tmp_path, "c.json", [[1]])] if command == "alglin" else []
        code, out, err = run(capsys, command, path, *extra)
        assert (code, out, err) == (3, "", self.MESSAGE)

    @pytest.mark.filterwarnings("error")
    def test_bary_refuses_the_basis_before_anything_overflows(self, tmp_path, capsys):
        # bary builds no pencil, and a Newton document is not a bary document
        code, out, err = run(capsys, "bary", write(tmp_path, "d.json", self.DOC))
        assert (code, out) == (2, "") and err == "error: bary needs a lagrange or hermite basis\n"


SWEEP_DOCS = [
    {"basis": {"kind": "chebyshev"}, "n": 1, "grade": 2, "coefficients": [[[1]], [[0.5]], [[2]]]},
    {"basis": {"kind": "bernstein"}, "n": 1, "grade": 2, "coefficients": [[[1]], [[-1]], [[2]]]},
    {"basis": {"kind": "newton", "nodes": [1, -1]}, "n": 1, "grade": 2,
     "coefficients": [[[1]], [[0.5]], [[2]]]},
    {"basis": {"kind": "custom",
               "recurrence": {"alpha": [1, 0.5], "beta": [0, 0], "gamma": [0, 0.5]}},
     "n": 1, "grade": 2, "coefficients": [[[1]], [[0.5]], [[2]]]},
    {"basis": {"kind": "shifted", "shift": 0.5}, "n": 1, "coefficients": [[[1]], [[2]], [[0.5]]]},
    {"basis": {"kind": "lagrange", "nodes": [1, 0, -1]}, "n": 1, "samples": [[[1]], [[2]], [[3]]]},
    {"basis": {"kind": "hermite", "nodes": [1, -1], "confluencies": [2, 1]}, "n": 1,
     "hermite_samples": [[[[1]], [[0]]], [[[2]]]]},
]
SWEEP_VALUES = ["x", [1], {"a": 1}, True, None, -3, 2.5, 0, 1e308, [], [[1]], float("nan")]


def key_paths(node, prefix=()):
    """Every key path of a JSON value, down to the first two entries of each list."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node[:2]) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def substituted(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def contract_outcome(argv):
    """(exit code, fault): the fault breaks the exit contract, else it is None.

    The contract: exit 0/2/3/4/5, no traceback, and on 0 and 5 strict JSON on
    stdout, byte for byte what json.dumps writes for it; nothing on stdout else.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # the traceback main let through
            return 1, f"Traceback: {exc!r}"
    if code not in (0, 2, 3, 4, 5) or "Traceback" in err.getvalue():
        return code, f"exit {code}: {err.getvalue()[-200:]}"
    text = out.getvalue()
    if code not in (0, 5):
        return code, f"exit {code} with stdout {text[:200]!r}" if text else None
    try:
        payload = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:
        return code, f"exit {code} with {exc}"
    if text != json.dumps(payload) + "\n":  # the separators and floats json.dumps writes
        return code, f"exit {code}: stdout is not what json.dumps writes for it"
    return code, None


def contract_commands(doc_path, c_path):
    return [["pencil", doc_path], ["eig", doc_path], ["verify", doc_path],
            ["alglin", doc_path, doc_path, "--c", c_path], ["equiv", doc_path],
            ["bary", doc_path]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows on 1e308 entries
def test_exit_contract_holds_on_mutated_documents(tmp_path):
    """Exit 0/2/3/4/5, no traceback, and strict JSON on 0 and 5, whatever a key holds."""
    doc_path, c_path = str(tmp_path / "d.json"), write(tmp_path, "c.json", [[1]])
    calls, violations = 0, []
    for doc in SWEEP_DOCS:
        for path in key_paths(doc):
            for value in SWEEP_VALUES:
                Path(doc_path).write_text(json.dumps(substituted(doc, path, value)))
                for argv in contract_commands(doc_path, c_path):
                    calls += 1
                    _, fault = contract_outcome(argv)
                    if fault:
                        violations.append((doc["basis"]["kind"], path, value, argv[0], fault))
    assert calls == 7344
    assert violations == []


def scalars(count, seed):
    """count random scalars, each a JSON number or an [re, im] pair."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-2, 2, (count, 2)).round(3)
    return [[re, im] if im > 0 else re for re, im in values.tolist()]


@st.composite
def valid_documents(draw, kinds=TEN_KINDS):
    """A valid document of one of the kinds: n 1-3, grade 1-4, some blocks zero.

    One block stays nonzero, so that P is regular.
    """
    kind = draw(st.sampled_from(kinds))
    n, grade = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    nodes = draw(st.lists(st.integers(-8, 8), min_size=grade + 1, max_size=grade + 1,
                          unique=True))
    nodes = [t / 4 for t in nodes]
    basis = {"kind": kind}
    if kind in ("shifted", "taylor"):
        basis["shift"] = scalars(1, seed)[0]
    elif kind == "newton":
        basis["nodes"] = nodes[:grade]
    elif kind == "custom":
        alpha = [a or 1.0 for a in scalars(grade, seed)]
        beta, gamma = scalars(grade, seed + 1), scalars(grade, seed + 2)
        basis["recurrence"] = {"alpha": alpha, "beta": beta, "gamma": gamma}
    elif kind == "lagrange":
        basis["nodes"] = nodes
    elif kind == "hermite":
        confluencies = []
        while sum(confluencies) < grade + 1:
            confluencies.append(draw(st.integers(1, grade + 1 - sum(confluencies))))
        basis["nodes"] = nodes[:len(confluencies)]
        basis["confluencies"] = confluencies
    zero = draw(st.lists(st.booleans(), min_size=grade + 1, max_size=grade + 1))
    zero[draw(st.integers(0, grade))] = False
    entries = [scalars(n * n, seed + 3 + k) if not z else [0] * (n * n)
               for k, z in enumerate(zero)]
    blocks = [[block[i * n:(i + 1) * n] for i in range(n)] for block in entries]
    doc = {"basis": basis, "n": n, "grade": grade}
    if kind == "lagrange":
        doc["samples"] = blocks
    elif kind == "hermite":
        ends = np.cumsum(basis["confluencies"]).tolist()
        doc["hermite_samples"] = [blocks[end - s:end]
                                  for s, end in zip(basis["confluencies"], ends)]
    else:
        doc["coefficients"] = blocks
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=valid_documents())
def test_exit_contract_holds_on_generated_documents(tmp_path_factory, doc):
    """Every subcommand keeps the exit contract on a valid document of any kind.

    A valid document is never a schema fault: only bary refuses one, and only
    for a basis that is not interpolating.
    """
    folder = tmp_path_factory.mktemp("generated")
    doc_path = write(folder, "d.json", doc)
    c_path = write(folder, "c.json", np.eye(doc["n"]).tolist())
    for argv in contract_commands(doc_path, c_path):
        code, fault = contract_outcome(argv)
        assert fault is None, (argv[0], fault)
        interpolating = doc["basis"]["kind"] in ("lagrange", "hermite")
        assert code != 2 or (argv[0] == "bary" and not interpolating), (argv[0], doc)


# each fact a document can break, with the kinds whose documents hold it
BROKEN_FACTS = {"grade": TEN_KINDS, "payload key": TEN_KINDS,
                "no nodes": ("newton", "lagrange", "hermite"), "group size": ("hermite",),
                "bernstein grade": ("bernstein",)}
PAYLOAD_KEYS = ("coefficients", "samples", "hermite_samples")


@st.composite
def broken_documents(draw, fact):
    """(doc, bary_reads): a valid_documents() draw with the fact broken.

    bary_reads is True when the broken fact is in the basis or the grade,
    the only parts of a document that bary reads.
    """
    doc = draw(valid_documents(BROKEN_FACTS[fact]))
    basis, kind = doc["basis"], doc["basis"]["kind"]
    if fact == "grade":
        step = draw(st.sampled_from([1, -1]))
        doc["grade"] += step
        # an interpolation basis fixes the grade; Newton nodes and custom alphas bound it
        return doc, kind in ("lagrange", "hermite") or (step == 1 and kind in ("newton", "custom"))
    if fact == "payload key":
        payload = next(key for key in PAYLOAD_KEYS if key in doc)
        doc[draw(st.sampled_from([k for k in PAYLOAD_KEYS if k != payload]))] = doc.pop(payload)
        return doc, False
    if fact == "no nodes":
        basis["nodes"] = []
        if kind == "hermite":
            basis["confluencies"] = []
        return doc, True
    if fact == "group size":
        groups = doc["hermite_samples"]
        i = draw(st.integers(0, len(groups) - 1))
        groups[i] = groups[i][:-1] if draw(st.booleans()) else groups[i] + groups[i][:1]
        return doc, False
    if draw(st.booleans()):  # a Bernstein grade below 1, declared or counted
        doc["grade"] = 0
        return doc, True
    del doc["grade"]
    doc["coefficients"] = doc["coefficients"][:1]
    return doc, False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fact", BROKEN_FACTS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_broken_fact_is_one_schema_fault_on_every_command(tmp_path_factory, fact, data):
    """Every command exits 2 with the same one-line message and no traceback.

    bary reads only the basis and the grade, so it joins the others when
    the broken fact is there.
    """
    doc, bary_reads = data.draw(broken_documents(fact))
    folder = tmp_path_factory.mktemp("broken")
    doc_path = write(folder, "d.json", doc)
    c_path = write(folder, "c.json", np.eye(doc["n"]).tolist())
    outcomes = {}
    for argv in contract_commands(doc_path, c_path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outcomes[argv[0]] = (code, out.getvalue(), err.getvalue())
    bary = outcomes.pop("bary")
    assert len(set(outcomes.values())) == 1, outcomes
    code, out, err = outcomes["pencil"]
    assert (code, out) == (2, ""), doc
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if bary_reads:
        assert bary == (code, out, err), doc


@pytest.mark.parametrize("n, grade", [(2, 4), (1, 1), (3, 2)])
@pytest.mark.parametrize("kind", TEN_KINDS)
def test_every_subcommand_prints_what_the_list_writer_printed(tmp_path, capsys, monkeypatch,
                                                               kind, n, grade):
    """stdout, compact and --pretty, equals json.dumps of the payload with lists for matrices."""
    p = random_polynomial(kind, n, grade, np.random.default_rng(11))
    doc_path = write(tmp_path, "d.json", polynomial_document(kind, p))
    c = np.eye(n) + 0.5 * np.eye(n, k=1) - 0.25 * np.eye(n, k=-1)
    c_path = write(tmp_path, "c.json", c.tolist())
    payloads = []
    real_emit = cli._emit

    def spy(payload, pretty):
        payloads.append(payload)
        real_emit(payload, pretty)

    monkeypatch.setattr(cli, "_emit", spy)
    commands = contract_commands(doc_path, c_path)
    if kind not in ("lagrange", "hermite"):
        commands = commands[:-1]  # bary takes interpolation bases only
    for argv in commands:
        for pretty in (False, True):
            code, out, err = run(capsys, *argv, *(["--pretty"] if pretty else []))
            assert code in (0, 5) and err == "", (argv[0], pretty, err)
            assert out == list_writer(payloads[-1], pretty), (argv[0], pretty)
    assert len(payloads) == 2 * len(commands)


def bare_document(text):
    """The document text with every [re, im] pair of its payload written as its real part."""
    doc = json.loads(text)
    key = next(k for k in ("coefficients", "samples", "hermite_samples") if k in doc)

    def bare(v):
        return v[0] if isinstance(v[0], float) else [bare(x) for x in v]
    doc[key] = bare(doc[key])
    return json.dumps(doc)


# every kind at three small sizes, and one N = 100 document whose sample stacks pass 1 MB
REFERENCE_CASES = [(kind, n, grade, form) for kind in TEN_KINDS
                   for n, grade in [(2, 4), (1, 1), (3, 2)] for form in ("pairs", "bare")]
REFERENCE_CASES += [("chebyshev", 5, 20, form) for form in ("pairs", "bare")]


@pytest.mark.parametrize("kind, n, grade, form", REFERENCE_CASES)
def test_references_print_the_same_bytes(tmp_path, capsys, monkeypatch, kind, n, grade, form):
    """Every subcommand, compact and --pretty, prints the same exit code, stdout and stderr
    with the one-block-at-a-time references of reference.py in place of the array paths."""
    text = polynomial_document(kind, random_polynomial(kind, n, grade, np.random.default_rng(21)))
    doc_path = write(tmp_path, "d.json", bare_document(text) if form == "bare" else text)
    c_path = write(tmp_path, "c.json", (np.eye(n) - 0.5 * np.eye(n, k=1)).tolist())
    argvs = [argv + pretty for argv in contract_commands(doc_path, c_path)
             for pretty in ([], ["--pretty"])]
    production = [run(capsys, *argv) for argv in argvs]
    assert {code for code, _, _ in production[:-2]} <= {0, 5}  # bary reads interpolation only
    reference.use_references(monkeypatch)
    assert [run(capsys, *argv) for argv in argvs] == production


@pytest.mark.parametrize("kind", TEN_KINDS)
def test_verify_residual_is_verify_triples_at_the_same_points(tmp_path, capsys, monkeypatch,
                                                              kind):
    """The resolvents from the guard's solves give verify_triple's value, bit for bit,
    and no sample matrix is inverted."""
    p = random_polynomial(kind, 3, 5, np.random.default_rng(12))
    path = write(tmp_path, "d.json", polynomial_document(kind, p))
    monkeypatch.setattr(np.linalg, "inv", refuse_inverse)
    code, out, _ = run(capsys, "verify", path, "--seed", "9", "--samples", "70")
    t = make_triple(build(p))
    zs = sample_points(t.pencil, 70, np.random.default_rng(9))
    assert code in (0, 5) and json.loads(out)["max_residual"] == verify_triple(t, p, zs)


@pytest.mark.parametrize("kind", TEN_KINDS)
def test_alglin_residual_is_verify_algebraic_at_the_same_points(tmp_path, capsys, monkeypatch,
                                                               kind):
    """alglin's residual, from the guard's solves, is verify_algebraic's, bit for bit,
    and no sample matrix is inverted."""
    other = TEN_KINDS[(TEN_KINDS.index(kind) + 1) % len(TEN_KINDS)]
    pa = random_polynomial(kind, 2, 3, np.random.default_rng(13))
    pb = random_polynomial(other, 2, 4, np.random.default_rng(14))
    c = [[1, 0.5], [-0.25, 1]]
    a = write(tmp_path, "a.json", polynomial_document(kind, pa))
    b = write(tmp_path, "b.json", polynomial_document(other, pb))
    monkeypatch.setattr(np.linalg, "inv", refuse_inverse)
    code, out, _ = run(capsys, "alglin", a, b, "--c", write(tmp_path, "c.json", c),
                       "--seed", "9", "--samples", "70")
    t = build_algebraic(make_triple(build(pa)), make_triple(build(pb)), c)
    zs = sample_points(t.pencil, 70, np.random.default_rng(9))
    assert code in (0, 5) and json.loads(out)["residual"] == verify_algebraic(t, pa, pb, c, zs)


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    path = write(tmp_path, "doc.json", BERNSTEIN_MONIC)
    calls = (["verify", path, "--seed", "-1"], ["verify", path, "--seed", "3"])

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    cli._parser.cache_clear()
    reused = [outcome(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [2, 0]
    assert reused == fresh


def test_runtime_imports_numpy_only():
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys, polypencil, polypencil.cli; "
              "print(sorted({'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_writes_strict_json_and_exit_codes(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    path = write(tmp_path, "doc.json", HERMITE_ONE)
    env = dict(os.environ, PYTHONPATH=str(src))

    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")

    proc = subprocess.run([sys.executable, "-m", "polypencil", "equiv", path],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout, parse_constant=refuse)["pass"] is True
    missing = str(tmp_path / "missing.json")
    proc = subprocess.run([sys.executable, "-m", "polypencil", "eig", missing],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: cannot read {missing}")
    assert "Traceback" not in proc.stderr


def test_console_entry_point(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(SQUARE_PLUS_ONE))
    proc = subprocess.run([sys.executable, "-m", "polypencil", "pencil", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["N"] == 2
