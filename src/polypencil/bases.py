"""Polynomial basis definitions and the per-basis data the pencil builders need.

Supported families:

* three-term recurrence bases (monomial, shifted monomial, Taylor, Newton,
  Chebyshev T, Legendre P, and user-supplied recurrences), satisfying
  ``z*phi_k = alpha_k*phi_{k+1} + beta_k*phi_k + gamma_k*phi_{k-1}``;
* the Bernstein basis on [0, 1];
* Hermite interpolational bases on distinct nodes with confluencies, and
  Lagrange bases, the Hermite subclass with every confluency 1, so each
  function here has one interpolation branch.

Coefficient rows and matrices produced here follow one ordering convention
throughout: polynomial coefficients are listed with the highest power first,
and node blocks appear in the user-given node order with derivative data
descending inside each block.
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
    "recurrence_row",
    "phi_rows",
    "one_coefficients",
    "node_polynomial",
    "barycentric_weights",
    "null_vector_basis_matrix",
    "monomial_rows",
]


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


class Basis:
    """Marker base class for every basis variant."""


class ThreeTermBasis(Basis):
    """Marker for bases defined by a three-term recurrence."""


@dataclass(frozen=True)
class Monomial(ThreeTermBasis):
    pass


@dataclass(frozen=True)
class ShiftedMonomial(ThreeTermBasis):
    shift: complex = 0.0


@dataclass(frozen=True)
class Taylor(ThreeTermBasis):
    shift: complex = 0.0


@dataclass(frozen=True)
class Newton(ThreeTermBasis):
    """Newton basis on nodes tau_0..tau_{m-1}; phi_k = prod_{j<k}(z - tau_j)."""

    nodes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", _check_nodes(self.nodes))


@dataclass(frozen=True)
class ChebyshevT(ThreeTermBasis):
    pass


@dataclass(frozen=True)
class LegendreP(ThreeTermBasis):
    pass


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


@dataclass(frozen=True)
class Bernstein(Basis):
    """Bernstein basis B_k(z) = C(ell, k) z^k (1 - z)^(ell - k) on [0, 1], for every grade.

    ell is the grade of the polynomial written in it: its count of coefficients less one.
    """


@dataclass(frozen=True)
class Hermite(Basis):
    nodes: tuple = ()
    confluencies: tuple = ()

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


@dataclass(frozen=True)
class Lagrange(Hermite):
    """Lagrange basis on distinct nodes: the Hermite basis with every confluency 1."""

    def __post_init__(self):
        if not self.confluencies:
            object.__setattr__(self, "confluencies", (1,) * len(self.nodes))
        super().__post_init__()
        if any(s != 1 for s in self.confluencies):
            raise BadConfluencyError("a Lagrange basis has every confluency 1")


def recurrence_row(basis: Basis, k: int) -> tuple[complex, complex, complex]:
    """Recurrence coefficients (alpha_k, beta_k, gamma_k) of a three-term basis.

    The k = 0 row is the initial case: phi_1 = (z - beta_0)/alpha_0, so for
    Chebyshev it returns alpha_0 = 1 (phi_1 = z), not the generic 1/2.
    """
    if k < 0:
        raise ValueError("recurrence index must be >= 0")
    if isinstance(basis, Monomial):
        return 1.0, 0.0, 0.0
    if isinstance(basis, ShiftedMonomial):
        return 1.0, complex(basis.shift), 0.0
    if isinstance(basis, Taylor):
        return k + 1.0, complex(basis.shift), 0.0
    if isinstance(basis, Newton):
        if k >= len(basis.nodes):
            raise ValueError(f"Newton basis has {len(basis.nodes)} nodes; no row k={k}")
        return 1.0, basis.nodes[k], 0.0
    if isinstance(basis, ChebyshevT):
        if k == 0:
            return 1.0, 0.0, 0.0
        return 0.5, 0.0, 0.5
    if isinstance(basis, LegendreP):
        return (k + 1.0) / (2.0 * k + 1.0), 0.0, k / (2.0 * k + 1.0)
    if isinstance(basis, CustomThreeTerm):
        if k >= len(basis.alpha):
            raise ValueError(f"custom recurrence defined up to k={len(basis.alpha) - 1}")
        gamma = basis.gamma[k] if k < len(basis.gamma) else 0.0
        return basis.alpha[k], basis.beta[k], gamma
    raise UnsupportedBasisError(f"{type(basis).__name__} has no three-term recurrence")


def phi_rows(basis: Basis, count: int, zs) -> np.ndarray:
    """phi_0 .. phi_{count-1} at every z in one pass, one row per point.

    Row i is divided by max(1, |z_i|)^(count-1), so no entry overflows however
    large z_i is; quotients homogeneous of degree zero in a row (the
    polynomial backward error) are unaffected.  Columns follow the order of
    MatrixPolynomial.data: coefficients by ascending index, Lagrange
    samples by node, and Hermite data per node, value then scaled
    derivatives ascending.  Interpolation rows use the product form
    omega(z) * sum_j b_ij (z - tau_i)^(k-j-1), which is exact on the nodes.
    """
    z = np.asarray(zs, dtype=complex).reshape(-1)
    ell = count - 1
    inv = 1.0 / np.maximum(1.0, np.abs(z))
    if isinstance(basis, ThreeTermBasis):
        # psi_k = phi_k / s^k obeys the recurrence with z/s and gamma/s^2
        z_s, inv2 = z * inv, inv * inv
        prev, cur = 0.0, np.ones_like(z)
        columns = [cur]
        for k in range(ell):
            a, b, g = recurrence_row(basis, k)
            prev, cur = cur, ((z_s - b * inv) * cur - g * inv2 * prev) / a
            columns.append(cur)
        return np.stack(columns, axis=1) * inv[:, None] ** (ell - np.arange(count))
    if isinstance(basis, Bernstein):
        k = np.arange(count)
        binom = np.array([comb(ell, j) for j in k], dtype=float)
        return binom * (z * inv)[:, None] ** k * ((1.0 - z) * inv)[:, None] ** (ell - k)
    if isinstance(basis, Hermite):
        nodes = np.asarray(basis.nodes, dtype=complex)
        confl = basis.confluencies
        if sum(confl) != count:
            raise ValueError(f"{count} values do not match the {sum(confl)} interpolation data")
        weights = barycentric_weights(basis)
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
    raise UnsupportedBasisError(f"unknown basis {type(basis).__name__}")


def one_coefficients(basis: Basis, ell: int) -> np.ndarray:
    """Coefficient row expanding the constant 1, ordered as the pencil expects.

    This row, tensored with the identity, is the left factor of the
    resolvent representation for every pencil built by this package.
    """
    if ell < 1:
        raise ValueError("grade must be >= 1")
    if isinstance(basis, ThreeTermBasis):
        row = np.zeros(ell, dtype=complex)
        row[-1] = 1.0
        return row
    if isinstance(basis, Bernstein):
        return np.arange(1, ell + 1, dtype=complex) / ell
    if isinstance(basis, Hermite):
        if ell != basis.grade:
            raise ValueError("grade must equal the number of interpolation data minus one")
        row = np.zeros(ell + 2, dtype=complex)
        row[np.cumsum(basis.confluencies)] = 1.0  # the value column of each node
        return row
    raise UnsupportedBasisError(f"unknown basis {type(basis).__name__}")


def node_polynomial(basis: Basis) -> np.ndarray:
    """Monic node polynomial, coefficients in descending powers."""
    if not isinstance(basis, Hermite):
        raise UnsupportedBasisError("node polynomial needs a Lagrange or Hermite basis")
    poly = np.array([1.0 + 0.0j])
    for t, s in zip(basis.nodes, basis.confluencies):
        for _ in range(s):
            poly = np.convolve(poly, np.array([1.0, -t], dtype=complex))
    return poly


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
    if not isinstance(basis, Hermite):
        raise UnsupportedBasisError("barycentric weights need a Lagrange or Hermite basis")
    return basis.weights


def monomial_rows(basis: Basis, count: int) -> np.ndarray:
    """Rows phi_{count-1} .. phi_0 in descending monomial coefficients.

    The one change of basis to the monomials: the three-term recurrence run
    on coefficient vectors, B_k = sum_j C(ell, k) C(ell - k, j) (-1)^j z^(k+j)
    in exact integer products, and for interpolation bases the expansion
    cached on the basis (``Hermite.monomial_expansion``, read-only).
    """
    if isinstance(basis, Hermite):
        if count != basis.grade + 1:
            raise ValueError(f"{count} rows do not match the {basis.grade + 1} interpolation data")
        return basis.monomial_expansion
    ell = count - 1
    rows = np.zeros((count, count), dtype=complex)
    if isinstance(basis, Bernstein):
        for k in range(count):
            for j in range(count - k):  # z^(k+j) sits in column ell - k - j
                rows[ell - k, ell - k - j] = comb(ell, k) * comb(ell - k, j) * (-1) ** j
        return rows
    if not isinstance(basis, ThreeTermBasis):
        raise UnsupportedBasisError(f"no monomial expansion for the {type(basis).__name__} basis")
    prev = np.zeros(count, dtype=complex)
    cur = np.zeros(count, dtype=complex)
    cur[-1] = 1.0  # phi_0 = 1
    rows[count - 1] = cur
    shifted = np.zeros(count, dtype=complex)  # z * phi_k within a fixed-width window
    for k in range(count - 1):
        a, b, g = recurrence_row(basis, k)
        shifted[:-1] = cur[1:]
        nxt = (shifted - b * cur - g * prev) / a
        prev, cur = cur, nxt
        rows[count - 2 - k] = cur
    return rows


def null_vector_basis_matrix(basis: Basis, ell: int) -> np.ndarray:
    """Monomial expansion of the pencil's right-null-vector functions.

    Row r holds, in descending powers, the polynomial sitting in block row r
    of the pencil's null vector at an eigenvalue: phi_{ell-1}..phi_0 for
    three-term bases, the degree-reduced Bernstein companions
    psi_k = C(ell, k+1) z^(ell-1-k) (1-z)^k, and for interpolation bases the node
    polynomial over the basis polynomials in block-column order (datum s - 1 - j in column j).
    """
    if isinstance(basis, ThreeTermBasis):
        if ell < 1:
            raise ValueError("grade must be >= 1")
        return monomial_rows(basis, ell)
    if isinstance(basis, Bernstein):
        out = np.zeros((ell, ell), dtype=complex)
        for k in range(ell):
            poly = np.array([1.0 + 0.0j])  # descending coefficients of (1-z)^k
            for _ in range(k):
                poly = np.convolve(poly, np.array([-1.0, 1.0], dtype=complex))
            pad = ell - 1 - k  # trailing zeros from the factor z^(ell-1-k)
            out[k] = np.concatenate([comb(ell, k + 1) * poly, np.zeros(pad, dtype=complex)])
        return out
    if isinstance(basis, Hermite):
        if ell != basis.grade:
            raise ValueError("grade must equal the number of interpolation data minus one")
        out = np.zeros((ell + 2, ell + 2), dtype=complex)
        out[0] = node_polynomial(basis)
        ends = np.cumsum(basis.confluencies)  # row ell - c of monomial_rows holds phi_c
        out[1:, 1:] = monomial_rows(basis, ell + 1)[
            [ell + 1 - e + j for e, s in zip(ends, basis.confluencies) for j in range(s)]]
        return out
    raise UnsupportedBasisError(f"no change-of-basis matrix for the {type(basis).__name__} basis")
