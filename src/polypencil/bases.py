"""Basis families, each one row of the paper's tables.

P(z) = sum_k P_k phi_k(z) of grade ell and block size n has the pencil
z C1 - C0 = [z R1 - R0; (z K1 - K0) (x) I_n] of m block rows that
``pencils.build`` assembles from two members: ``skeleton(ell)``, m and the
scalar entries of K1 and K0 below block row 0 as (rows, cols, values)
sequences, zeros included so a signed zero keeps its bit, and
``data_row(data)``, block row 0 of C1 and C0 as (m, n, n) block stacks.
det(z C1 - C0) = det P(z), and the triple X (z C1 - C0)^-1 Y = P(z)^-1 has
Y = e_1 (x) I_n and X = e (x) I_n, e = ``one_row(ell)`` the row of
1 = sum_k e_k phi_k(z).  ``null_vector_rows(ell)`` and ``monomial_rows(count)``
give polynomials in descending powers; ``phi_rows(count, zs)`` gives phi_0 ..
phi_{count-1} at every z, row i divided by max(1, |z_i|)^(count-1) so
nothing overflows.

ThreeTermBasis: monomial, shifted monomial, Taylor, Newton, Chebyshev T,
  Legendre P and custom recurrences, z phi_k = alpha_k phi_{k+1} + beta_k
  phi_k + gamma_k phi_{k-1}; a subclass supplies only ``recurrence_row(k)``.
  m = ell; block row i is recurrence row k = ell - 1 - i over alpha_k: K1
  (i, i) 1 / alpha_k; K0 (i, i - 1) 1, (i, i) beta_k / alpha_k, (i, i + 1)
  gamma_k / alpha_k.  With row ell - 1's alpha, beta, gamma: R1 = (P_ell /
  alpha, 0, ..), R0 = (beta / alpha P_ell - P_{ell-1}, gamma / alpha P_ell -
  P_{ell-2}, -P_{ell-3}, .., -P_0).
  X row (0, .., 0, 1); null vectors phi_{ell-1} .. phi_0; structural_blocks 0;
  grade rule (``grade_rule``): a Newton node and a custom alpha per grade.
Bernstein: B_k = C(ell, k) z^k (1 - z)^(ell - k) on [0, 1].
  m = ell; K0 (i, i - 1) 1; K1 (i, i - 1) 1 and (i, i) (i + 1) / (ell - i).
  R0 = (-P_{ell-1}, .., -P_0); R1 is R0 with P_ell / ell - P_{ell-1} first.
  X row (1, 2, .., ell) / ell; null vectors C(ell, k + 1) z^(ell-1-k) (1 - z)^k;
  structural_blocks 0.
Hermite: values and scaled derivatives P^(j)(tau_i) / j! at distinct nodes
  tau_i of confluency s_i; Lagrange is the subclass with every s_i = 1.
  ``layout`` gives datum c its node i, the place ``first`` of node i's value
  (node i's data ascend from it) and mirror[c] = 2 first + s_i - 1 - c, the
  datum in block column c + 1 (each node's data descend; an involution).
  m = ell + 2, the arrowhead.  K1 (c, c) 1; K0 (c, 0) the barycentric weights,
  (c, c) the node and (c, c - 1) 1 inside a node's block.  R1 = 0, R0 = (0,
  -data[mirror]).  X row: a 1 at each node's value column; null vectors:
  omega(z) = prod (z - tau_i)^(s_i) over phi_mirror[c]; structural_blocks 2
  (2n eigenvalues at infinity by structure alone); grade rule: ell + 1 = sum s_i.

``Basis`` declares each member once: one a family lacks raises
UnsupportedBasisError naming the class.  Rows list polynomial coefficients
highest power first.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from numbers import Integral

import numpy as np

from .errors import (
    BadConfluencyError,
    DuplicateNodesError,
    UnsupportedBasisError,
)

__all__ = [
    "Basis",
    "ThreeTermBasis",
    "Monomial",
    "ShiftedMonomial",
    "Taylor",
    "Newton",
    "ChebyshevT",
    "LegendreP",
    "CustomThreeTerm",
    "Bernstein",
    "Lagrange",
    "Hermite",
    "one_coefficients",
    "node_polynomial",
    "barycentric_weights",
    "null_vector_basis_matrix",
    "monomial_rows",
]

# |z - tau| below this (relative) snaps evaluation to the stored node data,
# which the interpolation formula reproduces only to rounding.
NODE_SNAP = 1e-12
HermiteLayout = namedtuple("HermiteLayout", "node first mirror")


def is_integer(v) -> bool:
    """True for an integer that is not a bool (JSON true would pass isinstance int)."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _check_nodes(nodes):
    nodes = tuple(complex(t) for t in nodes)
    if not np.isfinite(np.array(nodes, dtype=complex)).all():
        raise ValueError("nodes must be finite")
    if len(set(nodes)) != len(nodes):
        raise DuplicateNodesError("duplicate node in node list")
    return nodes


def _at_least_one(ell):
    if ell < 1:
        raise ValueError("grade must be >= 1")


def _unsupported(what):
    def member(self, *args):
        raise UnsupportedBasisError(f"{type(self).__name__} has no {what}")
    return member


class Basis:
    """A basis family: the members of its row of the paper's tables (see the module).

    ``check_grade`` and ``snap`` default to no grade rule and no node data, and
    ``payload_key``, the document key of the family's data, to coefficients.
    """

    payload_key = "coefficients"
    structural_blocks = property(_unsupported("skeleton"))
    recurrence_row = _unsupported("three-term recurrence")
    phi_rows = _unsupported("basis functions")
    one_row = _unsupported("row of 1")
    skeleton = _unsupported("skeleton")
    data_row = _unsupported("data row")
    monomial_rows = _unsupported("monomial expansion")
    null_vector_rows = _unsupported("null-vector rows")
    weights = property(_unsupported("barycentric weights"))
    omega = _unsupported("node polynomial")

    def check_grade(self, grade: int) -> None:
        """Raise ValueError when the basis cannot hold a polynomial of this grade."""

    def snap(self, zs, data, values) -> None:
        """Set values[i] to the stored datum where zs[i] sits on a node."""


class ThreeTermBasis(Basis):
    """Bases defined by a three-term recurrence; a subclass supplies recurrence_row."""

    structural_blocks = 0

    def phi_rows(self, count, zs):
        z = np.asarray(zs, dtype=complex).reshape(-1)
        inv = 1.0 / np.maximum(1.0, np.abs(z))
        ell = count - 1
        # psi_k = phi_k / s^k obeys the recurrence with z/s and gamma/s^2
        z_s, inv2 = z * inv, inv * inv
        prev, cur = 0.0, np.ones_like(z)
        columns = [cur]
        for k in range(ell):
            a, b, g = self.recurrence_row(k)
            prev, cur = cur, ((z_s - b * inv) * cur - g * inv2 * prev) / a
            columns.append(cur)
        return np.stack(columns, axis=1) * inv[:, None] ** (ell - np.arange(count))

    def one_row(self, ell):
        _at_least_one(ell)
        row = np.zeros(ell, dtype=complex)
        row[-1] = 1.0
        return row

    def skeleton(self, ell):
        """Each band row is divided by its alpha_k: block row 0, and so the triple, is
        untouched, and det(z*C1 - C0) is det P(z) exactly, not up to the product of the
        alphas.  At grade 1 there is no band row."""
        i = list(range(1, ell))
        band = [self.recurrence_row(ell - 1 - r) for r in i]
        # 1 / alpha by numpy's complex division, the ratios by Python's: the two round apart
        return ell, (i, i, np.divide(1.0, [a for a, _, _ in band], dtype=complex) if band else []), (
            i + i + i[:-1], [r - 1 for r in i] + i + [r + 1 for r in i[:-1]],
            [1.0] * (ell - 1) + [b / a for a, b, _ in band] + [g / a for a, _, g in band[:-1]])

    def data_row(self, data):
        """At grade 1, (P_1 / alpha_0) and ((beta_0 / alpha_0) P_1 - P_0): the single-block
        pencil."""
        ell = len(data) - 1
        a, b, g = self.recurrence_row(ell - 1)
        r0 = -data[ell - 1::-1]
        r1 = np.zeros(r0.shape, dtype=complex)
        r1[0] = data[ell] / a
        r0[0] = (b / a) * data[ell] - data[ell - 1]
        if ell > 1:
            r0[1] = (g / a) * data[ell] - data[ell - 2]
        return r1, r0

    def monomial_rows(self, count):
        """The recurrence run on coefficient vectors."""
        rows = np.zeros((count, count), dtype=complex)
        prev = np.zeros(count, dtype=complex)
        cur = np.zeros(count, dtype=complex)
        cur[-1] = 1.0  # phi_0 = 1
        rows[count - 1] = cur
        shifted = np.zeros(count, dtype=complex)  # z * phi_k within a fixed-width window
        for k in range(count - 1):
            a, b, g = self.recurrence_row(k)
            shifted[:-1] = cur[1:]
            nxt = (shifted - b * cur - g * prev) / a
            prev, cur = cur, nxt
            rows[count - 2 - k] = cur
        return rows

    def null_vector_rows(self, ell):
        _at_least_one(ell)
        return monomial_rows(self, ell)


@dataclass(frozen=True)
class Monomial(ThreeTermBasis):
    def recurrence_row(self, k):
        return 1.0, 0.0, 0.0


@dataclass(frozen=True)
class ShiftedMonomial(ThreeTermBasis):
    shift: complex = 0.0

    def recurrence_row(self, k):
        return 1.0, complex(self.shift), 0.0


@dataclass(frozen=True)
class Taylor(ThreeTermBasis):
    shift: complex = 0.0

    def recurrence_row(self, k):
        return k + 1.0, complex(self.shift), 0.0


@dataclass(frozen=True)
class Newton(ThreeTermBasis):
    """Newton basis on nodes tau_0..tau_{m-1}; phi_k = prod_{j<k}(z - tau_j)."""

    nodes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", _check_nodes(self.nodes))

    def recurrence_row(self, k):
        if not 0 <= k < len(self.nodes):
            raise ValueError(f"Newton basis has {len(self.nodes)} nodes; no row k={k}")
        return 1.0, self.nodes[k], 0.0

    @staticmethod
    def grade_rule(grade, count):
        if count < grade:
            raise ValueError(f"newton basis of grade {grade} needs {grade} nodes, got {count}")

    def check_grade(self, grade):
        self.grade_rule(grade, len(self.nodes))


@dataclass(frozen=True)
class ChebyshevT(ThreeTermBasis):
    def recurrence_row(self, k):
        """The k = 0 row is phi_1 = z itself: alpha_0 = 1, not the generic 1/2."""
        return (1.0, 0.0, 0.0) if k == 0 else (0.5, 0.0, 0.5)


@dataclass(frozen=True)
class LegendreP(ThreeTermBasis):
    def recurrence_row(self, k):
        return (k + 1.0) / (2.0 * k + 1.0), 0.0, k / (2.0 * k + 1.0)


@dataclass(frozen=True)
class CustomThreeTerm(ThreeTermBasis):
    """Explicit recurrence coefficients; alpha[k] must be nonzero."""

    alpha: tuple = ()
    beta: tuple = ()
    gamma: tuple = ()

    def __post_init__(self):
        alpha = tuple(complex(v) for v in self.alpha)
        if any(v == 0 for v in alpha):
            raise ValueError("custom recurrence needs alpha_k != 0 (degree must advance)")
        if len(self.beta) < len(alpha):
            raise ValueError("custom recurrence needs one beta per alpha")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", tuple(complex(v) for v in self.beta))
        object.__setattr__(self, "gamma", tuple(complex(v) for v in self.gamma))

    def recurrence_row(self, k):
        if not 0 <= k < len(self.alpha):
            raise ValueError(f"custom recurrence defined up to k={len(self.alpha) - 1}")
        gamma = self.gamma[k] if k < len(self.gamma) else 0.0
        return self.alpha[k], self.beta[k], gamma

    @staticmethod
    def grade_rule(grade, count):
        if count < grade:
            raise ValueError(f"custom recurrence of grade {grade} needs {grade} alpha values, "
                             f"got {count}")

    def check_grade(self, grade):
        self.grade_rule(grade, len(self.alpha))


@dataclass(frozen=True)
class Bernstein(Basis):
    """Bernstein basis B_k(z) = C(ell, k) z^k (1 - z)^(ell - k) on [0, 1], for every grade.

    ell is the grade of the polynomial written in it: its count of coefficients less one.
    """

    structural_blocks = 0

    def phi_rows(self, count, zs):
        z = np.asarray(zs, dtype=complex).reshape(-1)
        inv = 1.0 / np.maximum(1.0, np.abs(z))
        ell = count - 1
        k = np.arange(count)
        binom = np.array([comb(ell, j) for j in k], dtype=float)
        return binom * (z * inv)[:, None] ** k * ((1.0 - z) * inv)[:, None] ** (ell - k)

    def one_row(self, ell):
        _at_least_one(ell)
        return np.arange(1, ell + 1, dtype=complex) / ell

    def skeleton(self, ell):
        i = list(range(1, ell))
        below, ones = [r - 1 for r in i], [1.0] * (ell - 1)
        return ell, (i + i, below + i, ones + [(r + 1.0) / (ell - r) for r in i]), (i, below, ones)

    def data_row(self, data):
        ell = len(data) - 1
        r0 = -data[ell - 1::-1]
        r1 = r0.copy()
        r1[0] = data[ell] / ell - data[ell - 1]
        return r1, r0

    def monomial_rows(self, count):
        """B_k = sum_j C(ell, k) C(ell - k, j) (-1)^j z^(k+j) in exact integer products."""
        ell = count - 1
        rows = np.zeros((count, count), dtype=complex)
        for k in range(count):
            for j in range(count - k):  # z^(k+j) sits in column ell - k - j
                rows[ell - k, ell - k - j] = comb(ell, k) * comb(ell - k, j) * (-1) ** j
        return rows

    def null_vector_rows(self, ell):
        """The degree-reduced companions psi_k = C(ell, k+1) z^(ell-1-k) (1-z)^k."""
        out = np.zeros((ell, ell), dtype=complex)
        for k in range(ell):
            poly = np.array([1.0 + 0.0j])  # descending coefficients of (1-z)^k
            for _ in range(k):
                poly = np.convolve(poly, np.array([-1.0, 1.0], dtype=complex))
            pad = ell - 1 - k  # trailing zeros from the factor z^(ell-1-k)
            out[k] = np.concatenate([comb(ell, k + 1) * poly, np.zeros(pad, dtype=complex)])
        return out


@dataclass(frozen=True)
class Hermite(Basis):
    nodes: tuple = ()
    confluencies: tuple = ()

    structural_blocks = 2
    payload_key = "hermite_samples"

    def __post_init__(self):
        object.__setattr__(self, "nodes", _check_nodes(self.nodes))
        if not all(is_integer(s) for s in self.confluencies):
            raise BadConfluencyError("confluencies must be integers")
        conf = tuple(int(s) for s in self.confluencies)
        if len(conf) != len(self.nodes):
            raise BadConfluencyError("need one confluency per node")
        if any(s < 1 for s in conf):
            raise BadConfluencyError("confluencies must be >= 1")
        object.__setattr__(self, "confluencies", conf)

    @property
    def grade(self) -> int:
        return sum(self.confluencies) - 1

    def check_grade(self, grade):
        if grade != self.grade:
            raise ValueError(f"grade {grade} does not match the basis, whose grade is {self.grade}")

    @cached_property
    def layout(self):
        """(node, first, mirror) per datum in data order, read-only: see the module."""
        ends = np.cumsum(self.confluencies)
        node = np.repeat(np.arange(len(ends)), self.confluencies)
        first = (ends - self.confluencies)[node]
        layout = np.array([node, first, first + ends[node] - 1 - np.arange(len(node))])
        layout.flags.writeable = False
        return HermiteLayout(layout[0], layout[1], layout[2])

    @cached_property
    def weights(self) -> np.ndarray:
        """barycentric_weights of this basis, read-only."""
        nodes, confl = self.nodes, self.confluencies
        # one entry per linear factor (z - tau_j) of omega, tagged with its node
        factors = [(tj, j) for j, (tj, sj) in enumerate(zip(nodes, confl)) for _ in range(sj)]
        flat = []
        for i, (ti, si) in enumerate(zip(nodes, confl)):
            diffs = [ti - tj for tj, j in factors if j != i]
            prod = 1.0 + 0.0j
            for d in diffs:
                prod *= d
            series = [1.0 + 0.0j] + [0.0j] * (si - 1)
            for d in diffs if si > 1 else ():  # divide by 1 + h/d (a no-op when s_i = 1)
                for k in range(1, si):
                    series[k] -= series[k - 1] / d
            lead = 1.0 / prod
            flat.append(lead)
            flat.extend(lead * c for c in series[1:])
        w = np.asarray(flat, dtype=complex)
        w.flags.writeable = False
        return w

    def omega(self):
        """The monic node polynomial, coefficients in descending powers."""
        poly = np.array([1.0 + 0.0j])
        for t, s in zip(self.nodes, self.confluencies):
            for _ in range(s):
                poly = np.convolve(poly, np.array([1.0, -t], dtype=complex))
        return poly

    @cached_property
    def monomial_expansion(self) -> np.ndarray:
        """monomial_rows of this basis (grade + 1 rows), read-only.

        Datum k of node tau_i is g_i(z) sum_{q < s_i - k} w_{i,q} (z - tau_i)^(k+q),
        g_i = prod_{j != i} (z - tau_j)^(s_j): w_{i,s_i-1-k} times g_i factor
        by factor, then Horner in z - tau_i adding w_{i,q} g_i.
        """
        ell, w, confl = self.grade, self.weights, self.confluencies
        node, first, mirror = self.layout
        rows = np.zeros((ell + 1, ell + 1), dtype=complex)
        factors = [np.array([1.0, -t], dtype=complex) for t in self.nodes]
        for i, s in enumerate(confl):
            others = [factors[j] for j in node.tolist() if j != i]
            g = reduce(np.convolve, others, np.ones(1, dtype=complex)) if s > 1 else None
            for k, c in enumerate(np.flatnonzero(node == i)):  # datum k of node i
                row = np.array([w[mirror[c]]], dtype=complex)
                for f in others:
                    row = np.convolve(row, f)
                for q in range(s - 2 - k, -k - 1, -1):  # the last k steps add no weight
                    row = np.convolve(row, factors[i])
                    if q >= 0:
                        row[-g.size:] += w[first[c] + q] * g
                rows[ell - c] = row
        rows.flags.writeable = False
        return rows

    def phi_rows(self, count, zs):
        """Data per node, value then scaled derivatives ascending, in the product form
        omega(z) * sum_j b_ij (z - tau_i)^(k-j-1), which is exact on the nodes."""
        z = np.asarray(zs, dtype=complex).reshape(-1)
        inv = 1.0 / np.maximum(1.0, np.abs(z))
        confl = self.confluencies
        if sum(confl) != count:
            raise ValueError(f"{count} values do not match the {sum(confl)} interpolation data")
        weights = barycentric_weights(self)
        d = (z[:, None] - np.asarray(self.nodes)) * inv[:, None]  # (z - tau_i) / s
        powers = d ** np.asarray(confl)
        # prod_{j != i} powers[:, j] as a prefix times a suffix product
        ones = np.ones((z.size, 1), dtype=complex)
        before = np.concatenate([ones, np.cumprod(powers[:, :-1], axis=1)], axis=1)
        after = np.concatenate([np.cumprod(powers[:, :0:-1], axis=1)[:, ::-1], ones], axis=1)
        # column c (node i, datum k = c - first) sums, for m = 0 .. s_i - 1 - k,
        # weights[mirror[c] - m] * inv^m * d_i^(s_i - 1 - m)
        node, first, mirror = self.layout
        size = np.asarray(confl)[node]
        d = d[:, node]
        acc = np.zeros((z.size, count), dtype=complex)
        for m in range(max(confl)):
            live = mirror - m >= first
            term = weights[np.where(live, mirror - m, 0)] * inv[:, None] ** m \
                * d ** np.maximum(size - 1 - m, 0)
            acc += np.where(live, term, 0.0)
        return (before * after)[:, node] * acc

    def snap(self, zs, data, values):
        nodes = np.asarray(self.nodes)[self.layout.node]  # each datum's node
        near = np.abs(zs[:, None] - nodes) < NODE_SNAP * (1.0 + np.abs(nodes))
        hit = near.any(axis=1)
        values[hit] = data[near[hit].argmax(axis=1)]  # a node's first datum is its value

    def one_row(self, ell):
        _at_least_one(ell)
        self.check_grade(ell)
        row = np.zeros(ell + 2, dtype=complex)
        row[1 + self.layout.mirror[self.layout.first]] = 1.0  # each node's value column
        return row

    def skeleton(self, ell):
        col = np.arange(1, ell + 2)
        later = col[col > self.layout.first + 1]  # past a node's first column
        return ell + 2, (col, col, np.ones(ell + 1)), (
            np.concatenate([col, col, later]), np.concatenate([0 * col, col, later - 1]),
            np.concatenate([barycentric_weights(self), np.asarray(self.nodes)[self.layout.node],
                            np.ones(later.size)]))

    def data_row(self, data):
        """Each node's data in descending order, so det(tau C1 - C0) = det P(tau) at every node."""
        r0 = np.concatenate([np.zeros_like(data[:1]), -data[self.layout.mirror]])
        return np.zeros_like(r0), r0

    def monomial_rows(self, count):
        """The expansion cached on the basis (``monomial_expansion``, read-only)."""
        if count != self.grade + 1:
            raise ValueError(f"{count} rows do not match the {self.grade + 1} interpolation data")
        return self.monomial_expansion

    def null_vector_rows(self, ell):
        """omega over the basis polynomials in block-column order."""
        self.check_grade(ell)
        out = np.zeros((ell + 2, ell + 2), dtype=complex)
        out[0] = node_polynomial(self)
        out[1:, 1:] = monomial_rows(self, ell + 1)[ell - self.layout.mirror]  # phi_c in row ell - c
        return out


@dataclass(frozen=True)
class Lagrange(Hermite):
    """Lagrange basis on distinct nodes: the Hermite basis with every confluency 1."""

    payload_key = "samples"

    def __post_init__(self):
        if not self.confluencies:
            object.__setattr__(self, "confluencies", (1,) * len(self.nodes))
        super().__post_init__()
        if any(s != 1 for s in self.confluencies):
            raise BadConfluencyError("a Lagrange basis has every confluency 1")


def one_coefficients(basis: Basis, ell: int) -> np.ndarray:
    """The X row of a grade-ell pencil: basis.one_row, tensored with I_n by make_triple."""
    return basis.one_row(ell)


def node_polynomial(basis: Basis) -> np.ndarray:
    """Monic node polynomial, coefficients in descending powers."""
    return basis.omega()


def barycentric_weights(basis: Basis) -> np.ndarray:
    """Partial-fraction coefficients of 1/omega(z) over the nodes.

    The weights of node tau_i are the leading s_i Taylor coefficients in h of
    1/g_i(tau_i + h), g_i(z) = prod_{j != i} (z - tau_j)^{s_j}, computed
    from the differences d = tau_i - tau_j alone as the series of
    prod_{j != i} d^{-s_j} (1 + h/d)^{-s_j}; the monomial coefficients of
    g_i never appear.  With unit confluencies this is the Lagrange product
    formula 1/prod(tau_i - tau_j).  The flat result lists each node's
    weights with the derivative order descending, matching the first
    column of the interpolation pencil.  The array is cached on the
    basis and read-only.
    """
    return basis.weights


def monomial_rows(basis: Basis, count: int) -> np.ndarray:
    """Rows phi_{count-1} .. phi_0 in descending monomial coefficients: basis.monomial_rows."""
    return basis.monomial_rows(count)


def null_vector_basis_matrix(basis: Basis, ell: int) -> np.ndarray:
    """Monomial expansion of the pencil's right-null-vector functions: basis.null_vector_rows."""
    return basis.null_vector_rows(ell)
