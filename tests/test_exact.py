"""The paper's identities, proved in exact rational arithmetic for every basis kind.

Each kind's table row is copied here from the paper's formulas in
``fractions.Fraction``: the scalar skeleton K(z) = z K1 - K0 (block rows 1 ..
m - 1 of the pencil, each entry a multiple of I_n), the data row (R1, R0) of
the data of each basis function phi_k, the row of 1 e and the null vector
lambda(z).  At rational z and rational parameters the tests prove

    K(z) lambda(z) = 0,    e lambda(z) = 1,    (z R1 - R0) lambda(z) = phi_k(z),

so (z C1 - C0)(lambda(z) (x) I_n) = e_1 (x) P(z) for every P of the kind.  The
families' float skeletons and data rows then match the exact copy: to 1 ulp
for the recurrence and Bernstein scalars, and to 1e-14 relative for the
barycentric weights.  Parameters are dyadic, so a float basis holds them
exactly.
"""

from fractions import Fraction as F
from math import comb, factorial

import numpy as np
import pytest

from conftest import TEN_KINDS
from polypencil import (
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
)

GRADES = (1, 2, 3, 5, 8)
ZS = (F(2, 3), F(-7, 5), F(13, 9))  # no dyadic node equals one
SHIFT = F(-3, 8)


def newton_nodes(ell):
    return [F((-1) ** k * (k + 1), 8) for k in range(ell)]


def custom_rows(ell):
    """alpha, beta, gamma of rows 0 .. ell - 1; alpha changes sign row to row."""
    return [(F((-1) ** k * (k + 2), 4), F(k - 1, 8), F(3 - k, 16)) for k in range(ell)]


def hermite_nodes(ell):
    """(nodes, confluencies) with sum s_i = ell + 1, the s_i cycling through 2, 1, 3."""
    confl, left = [], ell + 1
    while left:
        confl.append(min((2, 1, 3)[len(confl) % 3], left))
        left -= confl[-1]
    nodes = [F(-1), F(1, 2), F(-3, 8), F(5, 4), F(3, 16), F(-7, 4)][:len(confl)]
    return nodes, confl


# ---------------------------------------------------------------- polynomials, ascending

def mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def product(factors):
    out = [F(1)]
    for f in factors:
        out = mul(out, f)
    return out


def value(p, z):
    out = F(0)
    for c in reversed(p):
        out = out * z + c
    return out


def taylor(p, t, count):
    """The first count coefficients of p(t + h) in h: p^(m)(t) / m!."""
    return [sum((c * comb(k, m) * t ** (k - m) for k, c in enumerate(p) if k >= m), F(0))
            for m in range(count)]


# ---------------------------------------------------------------- the exact table rows

class ExactRow:
    """One kind's table row at grade ell: m, K1, K0 (m x m, row 0 unused), e, the data
    rows R1[k], R0[k] of the datum of phi_k, lambda(z) and phi_k(z)."""

    def __init__(self, m, ell):
        self.m = m
        self.k1 = [[F(0)] * m for _ in range(m)]
        self.k0 = [[F(0)] * m for _ in range(m)]
        self.r1 = [[F(0)] * m for _ in range(ell + 1)]
        self.r0 = [[F(0)] * m for _ in range(ell + 1)]


def recurrence(kind, k):
    """(alpha_k, beta_k, gamma_k) of z phi_k = alpha_k phi_k+1 + beta_k phi_k + gamma_k phi_k-1."""
    return {
        "monomial": lambda: (F(1), F(0), F(0)),
        "shifted": lambda: (F(1), SHIFT, F(0)),
        "taylor": lambda: (F(k + 1), SHIFT, F(0)),
        "newton": lambda: (F(1), newton_nodes(k + 1)[k], F(0)),
        "chebyshev": lambda: (F(1), F(0), F(0)) if k == 0 else (F(1, 2), F(0), F(1, 2)),
        "legendre": lambda: (F(k + 1, 2 * k + 1), F(0), F(k, 2 * k + 1)),
        "custom": lambda: custom_rows(k + 1)[k],
    }[kind]()


def closed_form_phi(kind, k, z):
    """phi_k(z) from its closed form; the custom recurrence has only itself."""
    if kind == "monomial":
        return z ** k
    if kind == "shifted":
        return (z - SHIFT) ** k
    if kind == "taylor":
        return (z - SHIFT) ** k / factorial(k)
    if kind == "newton":
        out = F(1)
        for t in newton_nodes(k):
            out *= z - t
        return out
    if kind == "chebyshev":
        return sum(comb(k, 2 * j) * (z * z - 1) ** j * z ** (k - 2 * j)
                   for j in range(k // 2 + 1))
    if kind == "legendre":
        return sum(comb(k, j) ** 2 * (z - 1) ** (k - j) * (z + 1) ** j
                   for j in range(k + 1)) / 2 ** k
    prev, cur = F(0), F(1)
    for j in range(k):
        a, b, g = recurrence(kind, j)
        prev, cur = cur, ((z - b) * cur - g * prev) / a
    return cur


def three_term_row(kind, ell):
    """C1 = diag(P_ell / alpha_ell-1, I / alpha_ell-2, ..); band row i of C0 holds
    (I, beta_k / alpha_k I, gamma_k / alpha_k I), k = ell - 1 - i; lambda = (phi_ell-1 .. phi_0)."""
    row = ExactRow(ell, ell)
    for i in range(1, ell):
        a, b, g = recurrence(kind, ell - 1 - i)
        row.k1[i][i] = 1 / a
        row.k0[i][i - 1], row.k0[i][i] = F(1), b / a
        if i + 1 < ell:
            row.k0[i][i + 1] = g / a
    a, b, g = recurrence(kind, ell - 1)
    row.r1[ell][0], row.r0[ell][0] = 1 / a, b / a
    if ell > 1:
        row.r0[ell][1] = g / a
    for c in range(ell):
        row.r0[ell - 1 - c][c] = F(-1)
    row.e = [F(0)] * (ell - 1) + [F(1)]
    row.phi = lambda k, z: closed_form_phi(kind, k, z)
    row.lam = lambda z: [row.phi(ell - 1 - c, z) for c in range(ell)]
    return row


def bernstein_row(ell):
    """C0 = [-P_ell-1 .. -P_0; I below the diagonal]; C1 = C0 with P_ell / ell - P_ell-1 in its
    corner and (i + 1) / (ell - i) I on band row i; lambda_i = C(ell, i + 1) z^(ell-1-i) (1-z)^i."""
    row = ExactRow(ell, ell)
    for i in range(1, ell):
        row.k1[i][i - 1] = row.k0[i][i - 1] = F(1)
        row.k1[i][i] = F(i + 1, ell - i)
    for c in range(ell):
        row.r0[ell - 1 - c][c] = row.r1[ell - 1 - c][c] = F(-1)
    row.r1[ell][0] = F(1, ell)
    row.e = [F(i + 1, ell) for i in range(ell)]
    row.phi = lambda k, z: comb(ell, k) * z ** k * (1 - z) ** (ell - k)
    row.lam = lambda z: [comb(ell, i + 1) * z ** (ell - 1 - i) * (1 - z) ** i for i in range(ell)]
    return row


def hermite_row(nodes, confl):
    """The arrowhead: C1 = diag(0, I); C0 = [[0, -data], [weights, T]], T per node tau I with I
    below its diagonal.  Block column start_i + 1 + j holds datum k = s_i - 1 - j of node i;
    lambda = (omega, H_i,k), H_i,k the Hermite basis polynomial of that datum, and the weights
    are the Taylor coefficients at tau_i of 1 / g_i, g_i = prod_{j != i} (z - tau_j)^(s_j)."""
    ell = sum(confl) - 1
    row = ExactRow(ell + 2, ell)
    omega = product([[-t, F(1)] for t, s in zip(nodes, confl) for _ in range(s)])
    columns = [omega]
    row.e = [F(0)] * (ell + 2)
    row.weights, column_of = [], {}
    start = 0
    for i, (t, s) in enumerate(zip(nodes, confl)):
        g = product([[-u, F(1)] for j, (u, r) in enumerate(zip(nodes, confl)) if j != i
                     for _ in range(r)])
        series = taylor(g, t, s)
        w = [1 / series[0]]
        for q in range(1, s):
            w.append(-sum(series[r] * w[q - r] for r in range(1, q + 1)) / series[0])
        row.weights += w
        for j in range(s):
            col, k = start + 1 + j, s - 1 - j
            row.k1[col][col] = F(1)
            row.k0[col][0], row.k0[col][col] = w[j], t
            if j:
                row.k0[col][col - 1] = F(1)
            row.r0[start + k][col] = F(-1)
            column_of[start + k] = col
            # H_i,k = g_i sum_{q < s - k} w_q (z - tau_i)^(k + q)
            columns.append(mul(g, [sum((w[q] * comb(k + q, d) * (-t) ** (k + q - d)
                                        for q in range(s - k) if k + q >= d), F(0))
                                   for d in range(s)]))
        row.e[start + s] = F(1)
        start += s
    row.nodes, row.confl, row.columns = nodes, confl, columns
    row.phi = lambda k, z: value(columns[column_of[k]], z)
    row.lam = lambda z: [value(p, z) for p in columns]
    return row


def exact_row(kind, ell):
    if kind == "bernstein":
        return bernstein_row(ell)
    if kind == "lagrange":
        return hermite_row([F(2 * k - ell, 4) for k in range(ell + 1)], [1] * (ell + 1))
    if kind == "hermite":
        return hermite_row(*hermite_nodes(ell))
    return three_term_row(kind, ell)


def float_basis(kind, ell):
    if kind == "lagrange":
        return Lagrange(nodes=[float(2 * k - ell) / 4 for k in range(ell + 1)])
    if kind == "hermite":
        nodes, confl = hermite_nodes(ell)
        return Hermite(nodes=[float(t) for t in nodes], confluencies=confl)
    if kind == "custom":
        alpha, beta, gamma = zip(*custom_rows(ell))
        return CustomThreeTerm(alpha=tuple(map(float, alpha)), beta=tuple(map(float, beta)),
                               gamma=tuple(map(float, gamma)))
    if kind == "newton":
        return Newton(nodes=[float(t) for t in newton_nodes(ell)])
    return {"monomial": Monomial(), "shifted": ShiftedMonomial(shift=float(SHIFT)),
            "taylor": Taylor(shift=float(SHIFT)), "chebyshev": ChebyshevT(),
            "legendre": LegendreP(), "bernstein": Bernstein()}[kind]


# ---------------------------------------------------------------- the proofs

def dot(row, vector):
    return sum((a * b for a, b in zip(row, vector)), F(0))


@pytest.mark.parametrize("ell", GRADES)
@pytest.mark.parametrize("kind", TEN_KINDS)
def test_the_table_row_linearizes_exactly(kind, ell):
    row = exact_row(kind, ell)
    for z in ZS:
        lam = row.lam(z)
        for i in range(1, row.m):
            assert dot([z * a - b for a, b in zip(row.k1[i], row.k0[i])], lam) == 0
        assert dot(row.e, lam) == 1
        for k in range(ell + 1):
            assert dot([z * a - b for a, b in zip(row.r1[k], row.r0[k])], lam) == row.phi(k, z)


@pytest.mark.parametrize("ell", GRADES)
@pytest.mark.parametrize("kind", ("lagrange", "hermite"))
def test_hermite_columns_interpolate_their_datum(kind, ell):
    """H_i,k(tau_u + h) = h^k + O(h^s_i) at u = i and O(h^s_u) elsewhere: the paper's Hermite
    basis, whose data are values and scaled derivatives P^(j)(tau) / j!."""
    row = exact_row(kind, ell)
    columns = iter(row.columns[1:])
    for i, s in enumerate(row.confl):
        for k in range(s - 1, -1, -1):
            column = next(columns)
            for u, (t, r) in enumerate(zip(row.nodes, row.confl)):
                assert taylor(column, t, r) == [F(int(u == i and m == k)) for m in range(r)]


def ulps(value, exact):
    """|value - exact| in units of value's last place."""
    return abs(F(value) - exact) / F(abs(float(np.spacing(value))))


def dense(m, entries):
    rows, cols, values = entries
    out = np.zeros((m, m), dtype=complex)
    out[np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)] = values
    return out


@pytest.mark.parametrize("ell", GRADES)
@pytest.mark.parametrize("kind", TEN_KINDS)
def test_float_skeleton_and_data_row_match_the_exact_row(kind, ell):
    row, basis = exact_row(kind, ell), float_basis(kind, ell)
    m, k1, k0 = basis.skeleton(ell)
    assert m == row.m
    weights = getattr(row, "weights", ())
    for exact, floats in ((row.k1, dense(m, k1)), (row.k0, dense(m, k0))):
        assert not floats[0].any() and not floats.imag.any()
        for i in range(1, m):
            for c in range(m):
                if c == 0 and weights:  # barycentric weights: normwise relative
                    scale = max(abs(w) for w in weights)
                    assert abs(F(floats[i, c].real) - exact[i][c]) <= F(1e-14) * scale
                else:
                    assert ulps(floats[i, c].real, exact[i][c]) <= 1
    for k in range(ell + 1):
        data = np.zeros((ell + 1, 1, 1), dtype=complex)
        data[k] = 1.0
        for exact, floats in zip((row.r1[k], row.r0[k]), basis.data_row(data)):
            assert floats.shape == (m, 1, 1) and not floats.imag.any()
            assert all(ulps(f, e) <= 1 for f, e in zip(floats[:, 0, 0].real, exact))
