"""Seeded input documents for the polypencil benchmark.

Every number comes from ``numpy.random.default_rng(seed)``, so one seed
always writes byte-identical documents.  The rules:

* coefficient matrices and interpolation samples are complex Gaussian,
  scaled so that the largest Frobenius norm in the payload is 1;
* interpolation and Newton nodes are Chebyshev extreme points on [-1, 1]
  with 0.05 Gaussian jitter (the rule of ``tests/conftest.py``);
* Hermite confluencies are drawn uniformly from 1..3 until they sum to
  grade + 1;
* shifted/Taylor shifts are uniform in the square [-1, 1] x [-1, 1]i;
* custom recurrences draw alpha_k uniform in [0.5, 1.5] and beta_k, gamma_k
  complex Gaussian times 0.2;
* a ``zscale`` above 1 rescales z in a monomial polynomial,
  P~(z) = P(z / zscale), which multiplies every eigenvalue by zscale.

The generator depends on numpy only; it never imports polypencil, so the
program under test receives nothing but the written documents.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# eig_dense: (kind, n, grade, copies per pass).  N is n*grade for coefficient
# bases and n*(grade+2) for interpolation bases, 36..200, weighted low: 78 of
# the 102 documents sit at N ~ 40, which keeps the share of failed calls
# (which documents lose an eigenvalue varies with the seed) steady between
# seeds.  The rescaled monomial case (n=3, grade 8, z scaled by 20), whose
# genuine eigenvalues the residual filter misclassifies, stays in.
EIG_SPECS = (
    ("chebyshev", 2, 20, 18), ("chebyshev", 4, 10, 6), ("chebyshev", 5, 12, 3),
    ("chebyshev", 10, 10, 3), ("chebyshev", 10, 20, 3),
    ("legendre", 2, 20, 18), ("legendre", 3, 20, 3), ("legendre", 5, 20, 3),
    ("lagrange", 2, 18, 18), ("lagrange", 4, 13, 3), ("lagrange", 5, 18, 3),
    ("hermite", 2, 18, 12), ("hermite", 3, 18, 3),
    ("monomial-z20", 3, 8, 6),
)
EIG_ZSCALE = 20.0

# verify_cli: every basis kind at N = 8..100, VERIFY_COPIES documents each.
# Chebyshev n=4 grade 15 (equiv above tol) and Lagrange grade 20+ (verify
# above tol) are known exit-5 cases.
VERIFY_SPECS = (
    ("monomial", 2, 4), ("monomial", 4, 12),
    ("shifted", 2, 6), ("shifted", 3, 10),
    ("taylor", 2, 5), ("taylor", 3, 8),
    ("newton", 2, 6), ("newton", 4, 10),
    ("chebyshev", 2, 8), ("chebyshev", 4, 15), ("chebyshev", 5, 20),
    ("legendre", 2, 8), ("legendre", 4, 12),
    ("custom", 2, 6), ("custom", 3, 10),
    ("bernstein", 2, 6), ("bernstein", 4, 10),
    ("lagrange", 2, 6), ("lagrange", 3, 12), ("lagrange", 4, 23),
    ("hermite", 2, 7), ("hermite", 3, 14),
)
# alglin pairs: small documents (n=2, grade 2..4) of assorted kinds.
ALGLIN_PAIRS = (
    (("monomial", 2, 2), ("chebyshev", 2, 3)),
    (("legendre", 2, 3), ("bernstein", 2, 3)),
    (("lagrange", 2, 2), ("newton", 2, 3)),
    (("hermite", 2, 3), ("taylor", 2, 2)),
    (("shifted", 2, 4), ("custom", 2, 2)),
)
VERIFY_COPIES = 3

# mandelbrot: depths per pass, weighted low so that a run holds enough
# problems for a tail percentile; depth 8 is left out (one solve takes ~16 s).
MANDELBROT_DEPTHS = (5,) * 8 + (6,) * 3 + (7,)
MANDELBROT_SAMPLES = 8


def scalar(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix(m):
    return [[scalar(v) for v in row] for row in m]


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def spread_nodes(rng, count):
    """Chebyshev extreme points with Gaussian jitter, made distinct."""
    base = np.cos(np.pi * np.arange(count) / max(count - 1, 1))
    nodes = base + 0.05 * rng.standard_normal(count)
    while len(set(nodes.tolist())) != count:  # vanishing chance
        nodes += 0.01 * rng.standard_normal(count)
    return [complex(t) for t in nodes]


def _normalized(mats):
    scale = max(float(np.linalg.norm(m)) for m in mats)
    return [m / scale for m in mats]


def make_document(kind, n, ell, rng, zscale=1.0):
    """One polynomial document of the given basis kind, block size and grade."""
    if kind in ("lagrange", "hermite"):
        if kind == "lagrange":
            nodes = spread_nodes(rng, ell + 1)
            samples = _normalized([rand_matrix(rng, n) for _ in nodes])
            return {"basis": {"kind": "lagrange", "nodes": [scalar(t) for t in nodes]},
                    "n": n, "grade": ell, "samples": [matrix(s) for s in samples]}
        confl, remaining = [], ell + 1
        while remaining > 0:
            s = int(rng.integers(1, min(3, remaining) + 1))
            confl.append(s)
            remaining -= s
        nodes = spread_nodes(rng, len(confl))
        flat = _normalized([rand_matrix(rng, n) for _ in range(ell + 1)])
        groups, pos = [], 0
        for s in confl:
            groups.append([matrix(m) for m in flat[pos:pos + s]])
            pos += s
        return {"basis": {"kind": "hermite", "nodes": [scalar(t) for t in nodes],
                          "confluencies": confl},
                "n": n, "grade": ell, "hermite_samples": groups}
    basis = {"kind": kind}
    if kind in ("shifted", "taylor"):
        basis["shift"] = scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    elif kind == "newton":
        basis["nodes"] = [scalar(t) for t in spread_nodes(rng, ell)]
    elif kind == "custom":
        basis["recurrence"] = {
            "alpha": [scalar(a) for a in rng.uniform(0.5, 1.5, ell)],
            "beta": [scalar(0.2 * b) for b in rng.standard_normal(ell)
                     + 1j * rng.standard_normal(ell)],
            "gamma": [scalar(0.2 * g) for g in rng.standard_normal(ell)
                      + 1j * rng.standard_normal(ell)],
        }
    coeffs = _normalized([rand_matrix(rng, n) for _ in range(ell + 1)])
    coeffs = [c / zscale ** k for k, c in enumerate(coeffs)]
    return {"basis": basis, "n": n, "grade": ell, "coefficients": [matrix(c) for c in coeffs]}


def problem_sets(workload, seed):
    """The workload's problems, in pass order, as plain data.

    eig_dense and verify_cli problems carry documents; mandelbrot problems
    carry a depth, the constant c, drawn as 1 + 0.1 * complex Gaussian, and
    the verify_algebraic sample points, uniform in [-1.5, 1.5] x [-1.5, 1.5]i.
    One pass visits every problem once, shuffled by the seed.
    """
    rng = np.random.default_rng(seed)
    problems = []
    if workload == "eig_dense":
        for kind, n, ell, copies in EIG_SPECS:
            for _ in range(copies):
                if kind == "monomial-z20":
                    doc = make_document("monomial", n, ell, rng, zscale=EIG_ZSCALE)
                else:
                    doc = make_document(kind, n, ell, rng)
                problems.append({"label": f"{kind}/n{n}/g{ell}", "docs": [doc]})
    elif workload == "verify_cli":
        for _ in range(VERIFY_COPIES):
            for kind, n, ell in VERIFY_SPECS:
                problems.append({"label": f"{kind}/n{n}/g{ell}",
                                 "docs": [make_document(kind, n, ell, rng)]})
            for (ka, na, ea), (kb, nb, eb) in ALGLIN_PAIRS:
                c = rand_matrix(rng, na)
                c /= np.linalg.norm(c)
                problems.append({"label": f"alglin/{ka}+{kb}",
                                 "docs": [make_document(ka, na, ea, rng),
                                          make_document(kb, nb, eb, rng), matrix(c)]})
    elif workload == "mandelbrot":
        for depth in MANDELBROT_DEPTHS:
            c = 1.0 + 0.1 * complex(rng.standard_normal(), rng.standard_normal())
            zs = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                  for _ in range(MANDELBROT_SAMPLES)]
            problems.append({"label": f"depth{depth}", "depth": depth, "c": c, "zs": zs})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(problems))
    return [problems[i] for i in order]


def write_documents(problems, directory):
    """Write each problem's documents once; record their paths in the problem."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, prob in enumerate(problems):
        paths = []
        for j, doc in enumerate(prob.get("docs", ())):
            path = directory / f"p{i:03d}_{j}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        prob["paths"] = paths
    return problems
