"""Hermite.layout against the index formulas it replaced, in exact integers.

Each site of the Hermite row once derived the data layout from the
confluencies itself; ``reference`` keeps those formulas, and every test
here checks the expression the site now reads off ``layout`` against its
own formula, on generated confluency tuples.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from polypencil import Hermite

confluencies = st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple)


def basis(confl):
    return Hermite(nodes=[complex(j, 0.5 - j) for j in range(len(confl))], confluencies=confl)


@given(confluencies)
def test_mirror_is_an_involution_inside_each_node(confl):
    node, first, mirror = basis(confl).layout
    assert np.array_equal(mirror[mirror], np.arange(sum(confl)))
    assert np.array_equal(node[mirror], node) and np.array_equal(first[mirror], first)


def test_layout_is_cached_and_read_only():
    b = basis((2, 1, 3))
    assert b.layout is b.layout
    for index in b.layout:
        assert index.dtype.kind == "i" and not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1


@given(confluencies)
def test_phi_rows(confl):
    node, first, mirror = basis(confl).layout
    old_node, size, start, top = reference.phi_rows_index(confl)
    assert np.array_equal(node, old_node) and np.array_equal(first, start)
    assert np.array_equal(mirror, top) and np.array_equal(np.asarray(confl)[node], size)


@given(confluencies)
def test_snap(confl):
    """snap takes the first datum whose node is hit: each node's value datum."""
    node = basis(confl).layout.node
    firsts = [int(np.argmax(node == i)) for i in range(len(confl))]
    assert firsts == reference.snap_starts(confl).tolist()


@given(confluencies)
def test_one_row(confl):
    """one_row sets a 1 in the column holding each node's value datum."""
    layout = basis(confl).layout
    assert np.array_equal(np.unique(1 + layout.mirror[layout.first]),
                          reference.one_row_columns(confl))


@given(confluencies)
def test_skeleton(confl):
    b = basis(confl)
    col = np.arange(1, sum(confl) + 1)
    later, column_nodes = reference.skeleton_index(confl, b.nodes)
    assert np.array_equal(col[col > b.layout.first + 1], later)
    assert np.array_equal(np.asarray(b.nodes)[b.layout.node], column_nodes)


@given(confluencies)
def test_data_row(confl):
    assert np.array_equal(basis(confl).layout.mirror, reference.data_row_index(confl))


@given(confluencies)
def test_null_vector_rows(confl):
    b = basis(confl)
    assert (b.grade - b.layout.mirror).tolist() == reference.null_vector_index(confl)


@given(confluencies)
def test_monomial_expansion(confl):
    node, first, mirror = basis(confl).layout
    ell = sum(confl) - 1
    now = [(i, mirror[c], ell - c, first[c], k) for i in range(len(confl))
           for k, c in enumerate(np.flatnonzero(node == i))]
    assert [tuple(int(v) for v in entry) for entry in now] == \
        reference.monomial_expansion_index(confl)


@given(confluencies)
def test_equivalence_columns(confl):
    b = basis(confl)
    node, first, mirror = b.layout
    now = [(b.nodes[node[c]], d) for c, d in enumerate((mirror - first).tolist())]
    assert now == reference.equivalence_columns(confl, b.nodes)
