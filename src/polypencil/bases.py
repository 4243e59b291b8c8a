"""Basis families, each one row of the paper's tables.

P(z) = sum_k P_k phi_k(z) of grade ell and block size n has the pencil
z C1 - C0 of ``pencil(data)``, det(z C1 - C0) = det P(z), and the triple
X (z C1 - C0)^-1 Y = P(z)^-1, with Y = e_1 (x) I_n for every family and
X = e (x) I_n, e = ``one_row(ell)`` the row of 1 = sum_k e_k phi_k(z).
``null_vector_rows(ell)`` and ``monomial_rows(count)`` give polynomials in
descending powers; ``phi_rows(count, zs)`` gives phi_0 .. phi_{count-1}
at every z, row i divided by max(1, |z_i|)^(count-1) so nothing overflows.

ThreeTermBasis: monomial, shifted monomial, Taylor, Newton, Chebyshev T,
  Legendre P and custom recurrences, z phi_k = alpha_k phi_{k+1} + beta_k
  phi_k + gamma_k phi_{k-1}; a subclass supplies only ``recurrence_row(k)``.
  pencil: N = n ell, C1 = diag(P_ell / alpha_{ell-1}, I / alpha_{ell-2},
    .., I / alpha_0); C0 holds -P_{ell-1} .. -P_0 across its first block
    row, the first two plus (beta, gamma) / alpha times P_ell, and in block
    row ell - 1 - k the band (I, beta_k / alpha_k I, gamma_k / alpha_k I).
  X row (0, .., 0, 1); null vectors phi_{ell-1} .. phi_0; structural_blocks 0;
  grade rule (``check_grade``): a Newton node and a custom alpha per grade.
Bernstein: B_k = C(ell, k) z^k (1 - z)^(ell - k) on [0, 1].
  pencil: N = n ell, C0 holds -P_{ell-1} .. -P_0 across its first block row
    and I below the diagonal; C1 is C0 with the corner P_ell / ell - P_{ell-1}
    and (i + 1) / (ell - i) I on the diagonal of block row i.
  X row (1, 2, .., ell) / ell; null vectors C(ell, k + 1) z^(ell-1-k) (1 - z)^k;
  structural_blocks 0.
Hermite: values and scaled derivatives P^(j)(tau_i) / j! at distinct nodes
  tau_i of confluency s_i; Lagrange is the subclass with every s_i = 1.
  pencil: N = n (ell + 2), the arrowhead C1 = diag(0, I), C0 = [[0, -data
    row], [weights (x) I, T]], T per node tau_i I with I below its diagonal.
  X row: a 1 at each node's value column; null vectors: omega(z) = prod
  (z - tau_i)^(s_i) over the basis polynomials; structural_blocks 2 (2n
  eigenvalues at infinity by structure alone); grade rule: ell + 1 = sum s_i.

C0, and C1 of the coefficient families, fill (blocks, n, blocks, n) arrays,
each kind of block (a scalar times I_n) by one fancy-index assignment.
``Basis`` declares each member once: one a family lacks raises
UnsupportedBasisError naming the class.  Rows list polynomial coefficients
highest power first, and node blocks in the user-given node order with
derivative data descending inside each block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from numbers import Integral

import numpy as np

from .errors import (
    BadConfluencyError,
    DuplicateNodesError,
    GradeTooSmallError,
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

# overflow in a pencil's fill surfaces as CompanionPencil's NonFiniteError instead
_quiet = np.errstate(over="ignore", invalid="ignore")


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

    ``check_grade`` and ``snap`` default to no grade rule and no node data.
    """

    structural_blocks = property(_unsupported("pencil"))
    recurrence_row = _unsupported("three-term recurrence")
    phi_rows = _unsupported("basis functions")
    one_row = _unsupported("row of 1")
    pencil = _unsupported("pencil")
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

    @_quiet
    def pencil(self, data):
        """Each band row is divided by its alpha_k: the first block row, and so the triple, is
        untouched, and det(z*C1 - C0) is det P(z) exactly, not up to the product of the alphas.
        At grade 1 this is the single-block pencil (P_1/alpha_0, (beta_0/alpha_0) P_1 - P_0)."""
        ell, n = len(data) - 1, data.shape[1]
        if ell < 1:
            raise GradeTooSmallError("three-term pencil needs grade >= 1")
        N = ell * n
        eye = np.eye(n, dtype=complex)
        a_top, b_top, g_top = self.recurrence_row(ell - 1)
        c1, c0 = np.zeros((2, ell, n, ell, n), dtype=complex)  # [block row, row, block col, col]
        c1[0, :, 0] = data[ell] / a_top
        c0[0] = -data[ell - 1::-1].transpose(1, 0, 2)
        c0[0, :, 0] = (b_top / a_top) * data[ell] - data[ell - 1]
        if ell > 1:
            c0[0, :, 1] = (g_top / a_top) * data[ell] - data[ell - 2]
            # alpha, beta/alpha, gamma/alpha of band rows i = 1 .. ell-1, divided as Python numbers
            band = np.array([(a, b / a, g / a) for a, b, g in (
                self.recurrence_row(ell - 1 - i) for i in range(1, ell))], dtype=complex)
            a, b_a, g_a = band.T[..., None, None]
            i = np.arange(1, ell)
            c1[i, :, i] = eye / a
            c0[i, :, i - 1] = eye
            c0[i, :, i] = b_a * eye
            c0[i[:-1], :, i[:-1] + 1] = g_a[:-1] * eye
        return c1.reshape(N, N), c0.reshape(N, N)

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

    def check_grade(self, grade):
        if len(self.nodes) < grade:
            raise ValueError(f"newton basis of grade {grade} needs {grade} nodes, "
                             f"got {len(self.nodes)}")


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

    def check_grade(self, grade):
        if len(self.alpha) < grade:
            raise ValueError(f"custom recurrence of grade {grade} needs {grade} alpha values, "
                             f"got {len(self.alpha)}")


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

    @_quiet
    def pencil(self, data):
        ell, n = len(data) - 1, data.shape[1]
        if ell < 1:
            raise GradeTooSmallError("Bernstein pencil needs grade >= 1")
        N = ell * n
        eye = np.eye(n, dtype=complex)
        i = np.arange(1, ell)
        c0 = np.zeros((ell, n, ell, n), dtype=complex)  # [block row, row, block col, col]
        c0[0] = -data[ell - 1::-1].transpose(1, 0, 2)
        c0[i, :, i - 1] = eye
        c1 = c0.copy()
        c1[0, :, 0] = data[ell] / ell - data[ell - 1]
        c1[i, :, i] = ((i + 1.0) / (ell - i))[:, None, None] * eye
        return c1.reshape(N, N), c0.reshape(N, N)

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
        rows = np.zeros((ell + 1, ell + 1), dtype=complex)
        factors = [np.array([1.0, -t], dtype=complex) for t in self.nodes]
        start = 0
        for i, s in enumerate(confl):
            others = [factors[j] for j, sj in enumerate(confl) if j != i for _ in range(sj)]
            g = reduce(np.convolve, others, np.ones(1, dtype=complex)) if s > 1 else None
            for k in range(s):
                row = np.array([w[start + s - 1 - k]], dtype=complex)
                for f in others:
                    row = np.convolve(row, f)
                for q in range(s - 2 - k, -k - 1, -1):  # the last k steps add no weight
                    row = np.convolve(row, factors[i])
                    if q >= 0:
                        row[-g.size:] += w[start + q] * g
                rows[ell - start - k] = row
            start += s
        rows.flags.writeable = False
        return rows

    def phi_rows(self, count, zs):
        """Data per node, value then scaled derivatives ascending, in the product form
        omega(z) * sum_j b_ij (z - tau_i)^(k-j-1), which is exact on the nodes."""
        z = np.asarray(zs, dtype=complex).reshape(-1)
        inv = 1.0 / np.maximum(1.0, np.abs(z))
        nodes = np.asarray(self.nodes, dtype=complex)
        confl = self.confluencies
        if sum(confl) != count:
            raise ValueError(f"{count} values do not match the {sum(confl)} interpolation data")
        weights = barycentric_weights(self)
        d = (z[:, None] - nodes[None, :]) * inv[:, None]  # (z - tau_i) / s
        powers = d ** np.asarray(confl)
        # prod_{j != i} powers[:, j] as a prefix times a suffix product
        ones = np.ones((z.size, 1), dtype=complex)
        before = np.concatenate([ones, np.cumprod(powers[:, :-1], axis=1)], axis=1)
        after = np.concatenate([np.cumprod(powers[:, :0:-1], axis=1)[:, ::-1], ones], axis=1)
        # column c = start_i + k (node i, k-th datum) sums, for m = 0 .. s_i - 1 - k,
        # weights[start_i + s_i - 1 - k - m] * inv^m * d_i^(s_i - 1 - m)
        node = np.repeat(np.arange(len(confl)), confl)
        size = np.asarray(confl)[node]
        start = (np.cumsum(confl) - confl)[node]
        top = 2 * start + size - 1 - np.arange(count)  # start_i + s_i - 1 - k
        d = d[:, node]
        acc = np.zeros((z.size, count), dtype=complex)
        for m in range(max(confl)):
            live = top - m >= start
            term = weights[np.where(live, top - m, 0)] * inv[:, None] ** m \
                * d ** np.maximum(size - 1 - m, 0)
            acc += np.where(live, term, 0.0)
        return (before * after)[:, node] * acc

    def snap(self, zs, data, values):
        nodes = np.asarray(self.nodes)
        near = np.abs(zs[:, None] - nodes) < NODE_SNAP * (1.0 + np.abs(nodes))
        hit = near.any(axis=1)
        starts = np.cumsum(self.confluencies) - self.confluencies
        values[hit] = data[starts[near[hit].argmax(axis=1)]]

    def one_row(self, ell):
        _at_least_one(ell)
        self.check_grade(ell)
        row = np.zeros(ell + 2, dtype=complex)
        row[np.cumsum(self.confluencies)] = 1.0  # the value column of each node
        return row

    @_quiet
    def pencil(self, data):
        """The arrowhead; det(tau C1 - C0) = det P(tau) at every node."""
        ell, n = len(data) - 1, data.shape[1]
        if ell < 1:
            raise GradeTooSmallError("interpolation pencil needs grade >= 1")
        beta = barycentric_weights(self)
        confl = self.confluencies
        N = (ell + 2) * n
        eye = np.eye(n, dtype=complex)
        c1 = np.eye(N, dtype=complex)
        c1[:n, :n] = 0.0
        # block column c + 1 belongs to datum c, position j of a node whose s data start at
        # `start`; the data row lists each node's data in descending order
        s, start = np.repeat(confl, confl), np.repeat(np.cumsum(confl) - confl, confl)
        j = np.arange(ell + 1) - start
        col = np.arange(1, ell + 2)
        c0 = np.zeros((ell + 2, n, ell + 2, n), dtype=complex)
        c0[0, :, 1:] = -data[start + s - 1 - j].transpose(1, 0, 2)
        c0[col, :, 0] = beta[:, None, None] * eye
        c0[col, :, col] = np.repeat(np.array(self.nodes), confl)[:, None, None] * eye
        c0[col[j > 0], :, col[j > 0] - 1] = eye
        return c1, c0.reshape(N, N)

    def monomial_rows(self, count):
        """The expansion cached on the basis (``monomial_expansion``, read-only)."""
        if count != self.grade + 1:
            raise ValueError(f"{count} rows do not match the {self.grade + 1} interpolation data")
        return self.monomial_expansion

    def null_vector_rows(self, ell):
        """omega over the basis polynomials in block-column order (datum s - 1 - j in column j)."""
        self.check_grade(ell)
        out = np.zeros((ell + 2, ell + 2), dtype=complex)
        out[0] = node_polynomial(self)
        ends = np.cumsum(self.confluencies)  # row ell - c of monomial_rows holds phi_c
        out[1:, 1:] = monomial_rows(self, ell + 1)[
            [ell + 1 - e + j for e, s in zip(ends, self.confluencies) for j in range(s)]]
        return out


@dataclass(frozen=True)
class Lagrange(Hermite):
    """Lagrange basis on distinct nodes: the Hermite basis with every confluency 1."""

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
