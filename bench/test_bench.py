"""Tests of the benchmark's own machinery: inputs, oracle checks, span arithmetic."""

import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("scipy")  # the oracles use it; the package does not

import checks  # noqa: E402
import docgen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


def _written(tmp_path, workload, seed):
    probs = docgen.write_documents(docgen.problem_sets(workload, seed), tmp_path)
    return [open(p, "rb").read() for prob in probs for p in prob["paths"]]


@pytest.mark.parametrize("workload", ["eig_dense", "verify_cli"])
def test_same_seed_writes_identical_documents(tmp_path, workload):
    first = _written(tmp_path / "a", workload, 7)
    assert first == _written(tmp_path / "b", workload, 7)
    assert first != _written(tmp_path / "c", workload, 8)


def test_same_seed_gives_identical_mandelbrot_problems():
    assert docgen.problem_sets("mandelbrot", 3) == docgen.problem_sets("mandelbrot", 3)
    assert docgen.problem_sets("mandelbrot", 3) != docgen.problem_sets("mandelbrot", 4)


def test_rescaled_case_multiplies_eigenvalues_by_zscale():
    rng = np.random.default_rng(0)
    doc = docgen.make_document("monomial", 1, 2, rng, zscale=20.0)
    c = [oracle.parse_matrix(m)[0, 0] for m in doc["coefficients"]]
    rng = np.random.default_rng(0)
    ref = [oracle.parse_matrix(m)[0, 0] for m in docgen.make_document("monomial", 1, 2, rng)
           ["coefficients"]]
    roots = np.sort_complex(np.roots(c[::-1]))
    assert np.allclose(roots, np.sort_complex(20.0 * np.roots(ref[::-1])))


def _eig_problem():
    """z*I - diag(1, 2, 3, 4i): eigenvalues 1, 2, 3, 4i."""
    c0 = np.diag([1.0, 2.0, 3.0, 4j]).astype(complex)
    c1 = np.eye(4, dtype=complex)
    return {"label": "diag", "pencil": (c1, c0), "oracle": oracle.pencil_eigenvalues(c1, c0)}


def _eig_output(values, spurious=()):
    return json.dumps({"finite": [docgen.scalar(v) for v in values],
                       "residuals": [0.0] * len(values),
                       "spurious": [{"value": docgen.scalar(v)} for v in spurious],
                       "infinite_count": len(spurious)})


def test_oracle_accepts_the_right_eigenvalues():
    prob = _eig_problem()
    res = checks.check("eig", 0, _eig_output([1, 2, 3, 4j]), "", prob, {})
    assert not res.failed and not res.wrong
    assert res.error < 1e-15


def test_oracle_flags_an_injected_wrong_eigenvalue():
    prob = _eig_problem()
    res = checks.check("eig", 0, _eig_output([1, 2, 3.001, 4j]), "", prob, {})
    assert res.failed and res.wrong


def test_oracle_flags_a_dropped_eigenvalue():
    prob = _eig_problem()
    res = checks.check("eig", 0, _eig_output([1, 2, 4j]), "", prob, {})
    assert res.failed and res.unexpected  # dropped outright: no known defect does that
    assert "1 of 4" in res.note


def test_eigenvalue_moved_to_spurious_is_a_known_failure():
    prob = _eig_problem()
    res = checks.check("eig", 0, _eig_output([1, 2, 4j], spurious=[3]), "", prob, {})
    assert res.failed and not res.wrong and not res.unexpected


def test_failure_codes_and_non_json_output_fail():
    prob = _eig_problem()
    assert checks.check("eig", 3, "", "error: bad", prob, {}).unexpected
    assert checks.check("eig", 0, "not json", "", prob, {}).unexpected
    hermite = dict(prob, label="hermite/n2/g18")
    res = checks.check("eig", 3, "", "error: no acceptable shift among 8 tries", hermite, {})
    assert res.failed and not res.unexpected
    assert checks.check("verify", 5, json.dumps({"max_residual": 1.0, "pass": False}), "",
                        prob, {"tol": 1e-8}).verdict is False


def test_mandelbrot_check_flags_a_value_that_is_not_a_root():
    depth, c = 3, 1.05 + 0.02j
    lin = np.polynomial.Polynomial([1.0, 1.0])  # p_1 = z + 1
    for _ in range(depth - 1):
        lin = np.polynomial.Polynomial([0.0, 1.0]) * lin * lin + c
    roots = lin.roots()
    c1, c0 = np.eye(roots.size, dtype=complex), np.diag(roots)
    prob = {"label": "depth3", "depth": depth, "c": c, "pencil": (c1, c0),
            "oracle": oracle.pencil_eigenvalues(c1, c0)}
    assert not checks.check("eig_lib", 0, _eig_output(roots), "", prob, {}).failed
    bad = dict(prob, c=c + 0.01)  # the same pencil no longer linearizes p_depth
    res = checks.check("eig_lib", 0, _eig_output(roots), "", bad, {})
    assert res.failed and res.wrong and "not roots" in res.note


def test_self_times_on_a_synthetic_span_tree():
    # root 0..10 ; a 1..4 (child b 2..3) ; a 5..9 (children b 5..6, c 7..8)
    tree = [["root", 0, 10, -1, None], ["a", 1, 4, 0, None], ["b", 2, 3, 1, 7],
            ["a", 5, 9, 0, None], ["b", 5, 6, 3, 9], ["c", 7, 8, 3, None]]
    rows = spans.self_times(tree)
    assert rows["root"]["self_s"] == pytest.approx(3.0)
    assert rows["a"] == {"calls": 2, "total_s": 7.0, "self_s": 4.0, "probes": []}
    assert rows["b"]["self_s"] == pytest.approx(2.0) and rows["b"]["probes"] == [7, 9]
    assert rows["c"]["self_s"] == pytest.approx(1.0)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(10.0)
    assert spans.children_of(tree, "a", "b") == 2
    assert spans.children_of(tree, "a", "b", before="c") == 2
    assert spans.children_of(tree, "a", "c", before="b") == 0


def test_patch_replaces_every_binding_and_restores_it():
    eigen = pytest.importorskip("polypencil.eigen")
    import polypencil.linalg as linalg

    original = linalg.lu_factor
    tracer = spans.Tracer()
    with tracer.patch():
        assert eigen.lu_factor is linalg.lu_factor is not original
        linalg.det(np.eye(3))
    assert eigen.lu_factor is linalg.lu_factor is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["linalg.det", "linalg.lu_factor"]
    assert tracer.spans[1][spans.PARENT] == 0 and tracer.spans[1][spans.PROBE] == 3


@pytest.mark.parametrize("kind", ["chebyshev", "hermite"])
def test_pencil_check_flags_a_corrupted_pencil(tmp_path, kind):
    cli = pytest.importorskip("polypencil.cli")
    doc = docgen.make_document(kind, 2, 4, np.random.default_rng(1))
    prob = docgen.write_documents([{"label": kind, "docs": [doc]}], tmp_path)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["pencil", prob["paths"][0]])
    assert not checks.check("pencil", code, out.getvalue(), "", prob, {}).failed
    payload = json.loads(out.getvalue())
    entry = payload["C0"][0][1]
    payload["C0"][0][1] = [entry[0] + 0.5, entry[1]]
    res = checks.check("pencil", 0, json.dumps(payload), "", prob, {})
    assert res.failed and res.wrong
