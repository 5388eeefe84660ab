"""Tests for the DAG container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatrixFormatError, ReproError
from repro.graph.dag import DAG
from repro.matrix.csr import CSRMatrix
from tests.conftest import lower_triangular_matrices


class TestFromLowerTriangular:
    def test_figure_1_1(self):
        """The 6x6 example of Figure 1.1: edges from strict-lower entries."""
        # rows a..f = 0..5; pattern: c depends on a, b; d, e on c; f on d
        entries = [(0, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 2), (3, 3),
                   (4, 2), (4, 4), (5, 3), (5, 5)]
        m = CSRMatrix.from_coo(
            6, [e[0] for e in entries], [e[1] for e in entries],
            [1.0] * len(entries),
        )
        dag = DAG.from_lower_triangular(m)
        assert dag.m == 5
        assert set(map(tuple, zip(*dag.edges(), strict=True))) == {
            (0, 2), (1, 2), (2, 3), (2, 4), (3, 5)
        }
        # weights = row nnz
        np.testing.assert_array_equal(
            dag.weights, [1, 1, 3, 2, 2, 2]
        )

    def test_rejects_upper(self):
        m = CSRMatrix.from_coo(2, [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(ReproError):
            DAG.from_lower_triangular(m)

    def test_diagonal_only_has_no_edges(self):
        dag = DAG.from_lower_triangular(CSRMatrix.identity(5))
        assert dag.m == 0
        np.testing.assert_array_equal(dag.sources(), np.arange(5))
        np.testing.assert_array_equal(dag.sinks(), np.arange(5))


class TestFromEdges:
    def test_basic(self):
        dag = DAG.from_edges(3, [(0, 1), (1, 2)])
        assert dag.m == 2
        np.testing.assert_array_equal(dag.parents(2), [1])
        np.testing.assert_array_equal(dag.children(0), [1])

    def test_deduplicates_edges(self):
        dag = DAG.from_edges(3, [(0, 1), (0, 1), (0, 2)])
        assert dag.m == 2

    def test_rejects_self_loop(self):
        with pytest.raises(MatrixFormatError):
            DAG.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(MatrixFormatError):
            DAG.from_edges(2, [(0, 5)])

    def test_rejects_bad_weights(self):
        with pytest.raises(MatrixFormatError):
            DAG.from_edges(2, [(0, 1)], weights=[1, 0])
        with pytest.raises(MatrixFormatError):
            DAG.from_edges(2, [(0, 1)], weights=[1])

    def test_empty_graph(self):
        dag = DAG.from_edges(0, [])
        assert dag.n == 0
        assert dag.m == 0


class TestAccessors:
    def test_degrees(self, diamond_dag):
        np.testing.assert_array_equal(diamond_dag.in_degrees(), [0, 1, 1, 2])
        np.testing.assert_array_equal(diamond_dag.out_degrees(), [2, 1, 1, 0])

    def test_sources_sinks(self, diamond_dag):
        np.testing.assert_array_equal(diamond_dag.sources(), [0])
        np.testing.assert_array_equal(diamond_dag.sinks(), [3])

    def test_has_edge(self, diamond_dag):
        assert diamond_dag.has_edge(0, 1)
        assert not diamond_dag.has_edge(1, 2)

    def test_total_weight(self, paper_figure_dag):
        assert paper_figure_dag.total_weight() == 11

    def test_reversed(self, diamond_dag):
        rev = diamond_dag.reversed()
        np.testing.assert_array_equal(rev.sources(), [3])
        assert rev.has_edge(3, 1)

    def test_induced_subgraph(self, paper_figure_dag):
        sub = paper_figure_dag.induced_subgraph(np.array([0, 1, 2]))
        assert sub.n == 3
        assert sub.m == 2  # (0,2) and (1,2) survive
        np.testing.assert_array_equal(sub.weights, [1, 1, 3])


@settings(max_examples=40, deadline=None)
@given(lower_triangular_matrices(max_n=30))
def test_property_edge_count_is_strict_lower_nnz(m):
    dag = DAG.from_lower_triangular(m)
    strict = m.nnz - int(np.count_nonzero(
        m.indices == np.repeat(np.arange(m.n), m.row_nnz())
    ))
    assert dag.m == strict


@settings(max_examples=40, deadline=None)
@given(lower_triangular_matrices(max_n=30))
def test_property_parents_children_are_inverse(m):
    dag = DAG.from_lower_triangular(m)
    for v in range(dag.n):
        for p in dag.parents(v):
            assert v in dag.children(int(p))
        for c in dag.children(v):
            assert v in dag.parents(int(c))


@settings(max_examples=40, deadline=None)
@given(lower_triangular_matrices(max_n=30))
def test_property_reversed_twice_is_identity(m):
    dag = DAG.from_lower_triangular(m)
    rr = dag.reversed().reversed()
    assert np.array_equal(rr.child_ptr, dag.child_ptr)
    assert np.array_equal(rr.child_idx, dag.child_idx)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=40),
)))
def test_property_csr_lists_sorted_unique_neighbours(case):
    """Unsorted input with repeated edges: each child and parent list is
    the sorted set of that vertex's neighbours."""
    n, pairs = case
    dag = DAG.from_edges(n, pairs)
    for v in range(n):
        kids = sorted({d for s, d in pairs if s == v})
        parents = sorted({s for s, d in pairs if d == v})
        assert dag.children(v).tolist() == kids
        assert dag.parents(v).tolist() == parents
    assert dag.m == len(set(pairs))
    for arr in (dag.child_ptr, dag.child_idx, dag.parent_ptr, dag.parent_idx):
        assert arr.dtype == np.int64
