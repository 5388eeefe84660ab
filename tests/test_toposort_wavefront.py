"""Tests for topological sorting and wavefront analysis."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import InvalidPartitionError
from repro.graph.dag import DAG
from repro.graph.toposort import (
    is_acyclic,
    is_topological_order,
    topological_order,
)
from repro.graph.wavefront import (
    average_wavefront_size,
    critical_path_length,
    wavefront_levels,
    wavefronts,
)
from tests.conftest import dags


class TestToposort:
    def test_chain(self):
        dag = DAG.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        np.testing.assert_array_equal(topological_order(dag), [0, 1, 2, 3])

    def test_detects_cycle(self):
        cyclic = DAG.from_edges(3, [(0, 1), (1, 2)])
        # splice a back edge manually to build a cyclic graph
        cyclic2 = DAG(3, np.array([0, 1, 2]), np.array([1, 2, 0]),
                      check=False)
        with pytest.raises(InvalidPartitionError):
            topological_order(cyclic2)
        assert not is_acyclic(cyclic2)
        assert is_acyclic(cyclic)

    def test_is_topological_order_rejects(self, diamond_dag):
        assert is_topological_order(diamond_dag, np.array([0, 1, 2, 3]))
        assert not is_topological_order(diamond_dag, np.array([3, 1, 2, 0]))
        assert not is_topological_order(diamond_dag, np.array([0, 1, 2]))
        assert not is_topological_order(diamond_dag, np.array([0, 0, 2, 3]))


class TestWavefronts:
    def test_figure_1_1_wavefronts(self, paper_figure_dag):
        """Figure 1.1b: wavefronts {a,b}, {c}, {d,e}, {f}."""
        levels = wavefronts(paper_figure_dag)
        assert [lv.tolist() for lv in levels] == [[0, 1], [2], [3, 4], [5]]
        assert critical_path_length(paper_figure_dag) == 4
        assert average_wavefront_size(paper_figure_dag) == 6 / 4

    def test_level_values(self, diamond_dag):
        np.testing.assert_array_equal(
            wavefront_levels(diamond_dag), [0, 1, 1, 2]
        )

    def test_empty(self):
        dag = DAG.from_edges(0, [])
        assert critical_path_length(dag) == 0
        assert average_wavefront_size(dag) == 0.0
        assert wavefronts(dag) == []

    def test_edgeless(self):
        dag = DAG.from_edges(5, [])
        assert critical_path_length(dag) == 1
        assert average_wavefront_size(dag) == 5.0


@settings(max_examples=40, deadline=None)
@given(dags(max_n=30))
def test_property_toposort_is_valid(dag):
    order = topological_order(dag)
    assert is_topological_order(dag, order)


@settings(max_examples=40, deadline=None)
@given(dags(max_n=30))
def test_property_levels_respect_edges(dag):
    level = wavefront_levels(dag)
    src, dst = dag.edges()
    assert np.all(level[src] < level[dst])


@settings(max_examples=40, deadline=None)
@given(dags(max_n=30))
def test_property_wavefronts_partition_vertices(dag):
    levels = wavefronts(dag)
    combined = np.concatenate(levels) if levels else np.empty(0, dtype=int)
    assert np.array_equal(np.sort(combined), np.arange(dag.n))


def _fifo_kahn(dag: DAG) -> list[int]:
    """Reference: queue-based Kahn, sources enqueued in index order."""
    indeg = dag.in_degrees().tolist()
    queue = deque(v for v in range(dag.n) if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in dag.children(u).tolist():
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return order


@settings(max_examples=60, deadline=None)
@given(dags(max_n=40))
def test_property_toposort_is_fifo_kahn_order(dag):
    """The round-wise implementation reproduces the queue-based Kahn
    order exactly — schedulers' smallest-ID tie-breaking and the
    coarsening relabel depend on it."""
    np.testing.assert_array_equal(topological_order(dag), _fifo_kahn(dag))


@settings(max_examples=60, deadline=None)
@given(dags(max_n=40))
def test_property_levels_are_longest_path_depths(dag):
    expected = [0] * dag.n
    for u in _fifo_kahn(dag):
        for v in dag.children(u).tolist():
            expected[v] = max(expected[v], expected[u] + 1)
    np.testing.assert_array_equal(wavefront_levels(dag), expected)
