"""Span tracing from outside the package.

``Tracer.patch`` replaces each listed public function with a wrapper that
records a span (name, start, end, parent index, probe value).  The wrapper
is installed in the defining module and under every other name that binds
the same function object, because callers such as ``eigen`` and ``triples``
do ``from .linalg import lu_factor``.  Spans stay in memory until the run
ends; ``self_times`` turns a span list into per-name self time and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, PROBE = range(5)


def _rows(a, kw, out):
    return out.n


def _rhs_cols(a, kw, out):
    b = np.shape(a[1] if len(a) > 1 else kw["b"])
    return 1 if len(b) == 1 else b[1]


def _count(a, kw, out):
    return len(out)


def _ok(a, kw, out):
    return 1


# module -> public functions wrapped, with an optional probe on the call.
TRACED = {
    "cli": {"main": None},
    "documents": {"parse_document": None, "matrix_to_json": None},
    "bases": {"barycentric_weights": None, "node_polynomial": None,
              "one_coefficients": None, "null_vector_basis_matrix": None,
              "monomial_rows": None},
    "matpoly": {"evaluate": None},
    "pencils": {"build": None, "build_three_term": None, "build_bernstein": None,
                "build_lagrange": None, "build_hermite": None},
    "triples": {"make_triple": None, "resolvent": None, "verify_triple": None,
                "sample_points": _count},
    "linalg": {"lu_factor": _rows, "lu_solve": _rhs_cols, "det": None},
    "eigen": {"generalized_eigenvalues": _ok, "eig": None, "hessenberg": None,
              "qr_eigenvalues": None, "eigen_residual": None},
    "algebraic": {"build_algebraic": None, "composed_triple": None,
                  "verify_algebraic": None},
    "equivalence": {"monomial_form": None, "equivalence_degree_graded": None,
                    "equivalence_lagrange": None, "verify_equivalence": None},
}
LAYERS = tuple(TRACED)
PACKAGE = "polypencil"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return self.spans[idx]

    def _close(self, rec):
        self._stack.pop()
        rec[END] = time.perf_counter()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if probe is not None:
                    rec[PROBE] = probe(args, kwargs, out)
                return out
            finally:
                self._close(rec)
        return traced

    @contextmanager
    def patch(self):
        """Install the wrappers everywhere the originals are bound; undo on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        undo = []
        try:
            for mod_name, funcs in TRACED.items():
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for fname, probe in funcs.items():
                    original = getattr(mod, fname)
                    wrapper = self.wrap(f"{mod_name}.{fname}", original, probe)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                undo.append((m, attr, original))
                                setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, original in reversed(undo):
                setattr(m, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_times(spans):
    """Per-name {"calls", "total_s", "self_s", "probes"} from a span list.

    A span's self time is its duration minus the durations of its direct
    children; spans are properly nested, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                       "probes": []})
        dur = s[END] - s[START]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
        if s[PROBE] is not None:
            row["probes"].append(s[PROBE])
    return out


def children_of(spans, parent_name, child_name, before=None):
    """Count child_name spans directly under each parent_name span.

    With ``before`` set, only children that start before the parent's first
    ``before`` child are counted (for example, shift LUs ahead of ``eig``).
    """
    kids = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0 and spans[p][NAME] == parent_name:
            kids.setdefault(p, []).append(i)
    total = 0
    for p, idxs in kids.items():
        cutoff = min((spans[i][START] for i in idxs if spans[i][NAME] == before),
                     default=float("inf"))
        total += sum(1 for i in idxs
                     if spans[i][NAME] == child_name and spans[i][START] < cutoff)
    return total
