"""Tests for cascades, funnel partitioning, quotient graphs and pull-back
(Section 4 of the paper)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidPartitionError, ReproError
from repro.graph.coarsen import (
    coarsen,
    in_funnel_partition,
    is_cascade,
    is_cascade_partition,
    is_in_funnel,
    out_funnel_partition,
    partition_from_parts,
    pull_back_schedule,
)
from repro.graph.dag import DAG
from repro.graph.toposort import is_acyclic, topological_order
from repro.scheduler.growlocal import GrowLocalScheduler
from tests.conftest import dags


def _parts(part_of: np.ndarray) -> list[np.ndarray]:
    """The vertex set of every part of a label array, by part id."""
    return [np.flatnonzero(part_of == k)
            for k in range(int(part_of.max()) + 1 if part_of.size else 0)]


class TestCascade:
    def test_single_vertex_is_cascade(self, diamond_dag):
        for v in range(4):
            assert is_cascade(diamond_dag, [v])

    def test_whole_graph_is_cascade(self, diamond_dag):
        # no cut edges at all -> trivially a cascade
        assert is_cascade(diamond_dag, range(4))

    def test_non_cascade(self):
        # U = {1, 2} in the diamond: 1 and 2 both have incoming and
        # outgoing cut edges but no walk connects them.
        dag = DAG.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert not is_cascade(dag, [1, 2])

    def test_chain_segment_is_cascade(self):
        dag = DAG.from_edges(5, [(i, i + 1) for i in range(4)])
        assert is_cascade(dag, [1, 2, 3])

    def test_partition_checker(self, diamond_dag):
        assert is_cascade_partition(
            diamond_dag, [np.array([0]), np.array([1]), np.array([2]),
                          np.array([3])]
        )
        assert not is_cascade_partition(
            diamond_dag, [np.array([0]), np.array([1, 2]), np.array([3])]
        )
        # not a partition at all
        assert not is_cascade_partition(
            diamond_dag, [np.array([0, 1]), np.array([1, 2, 3])]
        )


class TestFunnelPartition:
    def test_in_tree_collapses(self):
        """An in-tree is an in-funnel (footnote 2 of the paper)."""
        dag = DAG.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        np.testing.assert_array_equal(in_funnel_partition(dag), [0] * 5)

    def test_chain_collapses(self):
        dag = DAG.from_edges(6, [(i, i + 1) for i in range(5)])
        np.testing.assert_array_equal(in_funnel_partition(dag), [0] * 6)

    def test_max_weight_respected(self):
        dag = DAG.from_edges(6, [(i, i + 1) for i in range(5)])
        part_of = in_funnel_partition(dag, max_weight=2)
        # the sweep starts at the sink: parts are numbered from the end
        np.testing.assert_array_equal(part_of, [2, 2, 1, 1, 0, 0])

    def test_out_funnel_on_out_tree(self):
        dag = DAG.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        np.testing.assert_array_equal(out_funnel_partition(dag), [0] * 5)
        # in-funnel partition cannot merge an out-tree into one part
        assert in_funnel_partition(dag).max() > 0

    def test_invalid_max_weight(self):
        dag = DAG.from_edges(2, [(0, 1)])
        with pytest.raises(ReproError):
            in_funnel_partition(dag, max_weight=0)


class TestQuotient:
    def test_weights_summed(self, paper_figure_dag):
        # {0,1,2} is an in-funnel (0,1 feed 2); {3,4,5}: 3->5, 4 isolated
        result = coarsen(paper_figure_dag, np.array([0, 0, 0, 1, 1, 1]))
        assert result.coarse.n == 2
        assert sorted(result.coarse.weights.tolist()) == [5, 6]

    def test_cycle_detected(self):
        # contracting {0, 2} with 0 -> 1 -> 2 creates a 2-cycle
        dag = DAG.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidPartitionError):
            coarsen(dag, np.array([0, 1, 0]))

    def test_partition_from_parts_validation(self):
        with pytest.raises(InvalidPartitionError):
            partition_from_parts(3, [np.array([0, 1])])  # missing 2
        with pytest.raises(InvalidPartitionError):
            partition_from_parts(3, [np.array([0, 1]), np.array([1, 2])])
        with pytest.raises(InvalidPartitionError):
            partition_from_parts(2, [np.array([0, 5])])

    @pytest.mark.parametrize("part_of, message", [
        ([0, 0], "one label per vertex"),
        ([0, 0, 0, 0], "one label per vertex"),
        ([[0, 0, 0]], "one label per vertex"),
        ([0, -1, 0], "out of range"),
        ([0, 1, 3], "out of range"),
        ([0, 2, 2], "empty part"),
        ([1, 1, 1], "empty part"),
        ([0.0, 1.0, 1.0], "integers"),
    ])
    def test_invalid_labels(self, part_of, message):
        dag = DAG.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidPartitionError, match=message):
            coarsen(dag, np.array(part_of))

    def test_labels_need_not_follow_vertex_order(self):
        # 2 -> 1 -> 0: part 0 = {2}, part 1 = {0, 1}
        dag = DAG.from_edges(3, [(2, 1), (1, 0)])
        result = coarsen(dag, np.array([1, 1, 0]))
        # relabelled topologically: the source part {2} becomes part 0
        np.testing.assert_array_equal(result.part_of, [1, 1, 0])
        np.testing.assert_array_equal(result.coarse.weights, [1, 2])
        assert result.coarse.has_edge(0, 1)

    def test_empty_dag(self):
        result = coarsen(DAG.from_edges(0, []), np.empty(0, dtype=np.int64))
        assert result.coarse.n == 0
        assert result.part_of.size == 0

    def test_coarse_ids_topologically_ordered(self, paper_figure_dag):
        parts = in_funnel_partition(paper_figure_dag)
        result = coarsen(paper_figure_dag, parts)
        src, dst = result.coarse.edges()
        assert np.all(src < dst)


class TestPullback:
    def test_pullback_is_valid_schedule(self, paper_figure_dag):
        parts = in_funnel_partition(paper_figure_dag, max_weight=5)
        result = coarsen(paper_figure_dag, parts)
        coarse_schedule = GrowLocalScheduler().schedule(result.coarse, 2)
        fine = pull_back_schedule(result, coarse_schedule)
        fine.validate(paper_figure_dag)
        assert fine.n == paper_figure_dag.n


@settings(max_examples=30, deadline=None)
@given(dags(max_n=25))
def test_property_funnel_partition_is_cascade_partition(dag):
    part_of = in_funnel_partition(dag)
    parts = _parts(part_of)
    assert is_cascade_partition(dag, parts)
    assert all(is_in_funnel(dag, p) for p in parts)
    # parts are numbered in creation order: each part's seed, its member
    # latest in topological order, comes earlier than the last part's
    position = np.empty(dag.n, dtype=np.int64)
    position[topological_order(dag)] = np.arange(dag.n)
    seeds = [int(position[p].max()) for p in parts]
    assert seeds == sorted(seeds, reverse=True)


@settings(max_examples=30, deadline=None)
@given(dags(max_n=25))
def test_property_funnel_partition_with_cap(dag):
    cap = max(int(dag.weights.max()), 3)
    parts = _parts(in_funnel_partition(dag, max_weight=cap))
    assert is_cascade_partition(dag, parts)
    assert all(dag.weights[p].sum() <= cap or p.size == 1 for p in parts)


@settings(max_examples=30, deadline=None)
@given(dags(max_n=25))
def test_property_coarsen_preserves_acyclicity(dag):
    """Proposition 4.3: contracting cascades keeps the DAG acyclic."""
    part_of = in_funnel_partition(dag)
    result = coarsen(dag, part_of)
    assert is_acyclic(result.coarse)
    assert result.coarse.total_weight() == dag.total_weight()
    # relabelling renames parts and keeps them whole
    k = result.coarse.n
    assert k == part_of.max() + 1
    assert np.unique(np.stack([part_of, result.part_of]), axis=1).shape[1] == k


@settings(max_examples=30, deadline=None)
@given(dags(max_n=25))
def test_property_out_funnels_are_cascades(dag):
    assert is_cascade_partition(dag, _parts(out_funnel_partition(dag)))


def _part_of_reference(n: int, parts: list[list[int]]):
    """Part-by-part reference for :func:`partition_from_parts`: the
    first part with an out-of-range vertex or a vertex of an earlier
    part decides the error."""
    part_of = np.full(n, -1, dtype=np.int64)
    for pid, part in enumerate(parts):
        arr = np.asarray(part, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            return "part contains out-of-range vertex"
        if np.any(part_of[arr] >= 0):
            return "parts overlap"
        part_of[arr] = pid
    if np.any(part_of < 0):
        return "parts do not cover all vertices"
    return part_of.tolist()


@settings(max_examples=100, deadline=None)
@example((3, [[0, 1], [1], [2, 7]]))  # overlap before a later bad vertex
@example((3, [[0], [0, 7]]))  # both in one part: out-of-range first
@example((2, [[1, 1], [0]]))  # a repeat inside one part is no overlap
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-1, n), max_size=4), max_size=5)
    | st.permutations(range(n)).flatmap(lambda perm: st.just(
        [perm[: len(perm) // 2], perm[len(perm) // 2:]])),
)))
def test_property_partition_from_parts_matches_part_by_part_check(case):
    n, parts = case
    try:
        got = partition_from_parts(
            n, [np.array(p, dtype=np.int64) for p in parts]
        ).tolist()
    except InvalidPartitionError as exc:
        got = str(exc)
    assert got == _part_of_reference(n, parts)
