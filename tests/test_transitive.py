"""Tests for the approximate transitive reduction (SpMP preprocessing)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dag import DAG
from repro.graph.transitive import (
    approximate_transitive_reduction,
    transitive_edge_mask,
)
from repro.graph.wavefront import wavefront_levels
from tests.conftest import dags


def _reachability(dag: DAG) -> np.ndarray:
    """Dense boolean reachability matrix (test oracle, small graphs)."""
    reach = np.eye(dag.n, dtype=bool)
    from repro.graph.toposort import topological_order

    for u in topological_order(dag)[::-1]:
        u = int(u)
        for c in dag.children(u):
            reach[u] |= reach[int(c)]
    return reach


def test_triangle_edge_removed():
    dag = DAG.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    red = approximate_transitive_reduction(dag)
    assert red.m == 2
    assert not red.has_edge(0, 2)


def test_long_chain_untouched():
    dag = DAG.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    red = approximate_transitive_reduction(dag)
    assert red.m == 3


def test_three_step_shortcut_not_removed():
    """u->v covered only by a THREE-edge path is not a triangle and the
    approximate algorithm keeps it (unlike a full reduction)."""
    dag = DAG.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    red = approximate_transitive_reduction(dag)
    assert red.has_edge(0, 3)


def test_mask_positions_align_with_edges():
    dag = DAG.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mask = transitive_edge_mask(dag)
    src, dst = dag.edges()
    removed = {(int(s), int(d)) for s, d, m in zip(src, dst, mask, strict=True) if m}
    assert removed == {(0, 2)}


def test_max_work_early_exit():
    dag = DAG.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mask = transitive_edge_mask(dag, max_work=0)
    assert not mask.any()


def test_diamond_keeps_all_edges():
    dag = DAG.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert approximate_transitive_reduction(dag).m == 4


@settings(max_examples=40, deadline=None)
@given(dags(max_n=25))
def test_property_reachability_preserved(dag):
    red = approximate_transitive_reduction(dag)
    assert red.m <= dag.m
    np.testing.assert_array_equal(_reachability(red), _reachability(dag))


@settings(max_examples=40, deadline=None)
@given(dags(max_n=25))
def test_property_levels_unchanged(dag):
    """Removing long edges in triangles keeps longest-path levels, the
    property SpMP's level sets rely on."""
    red = approximate_transitive_reduction(dag)
    np.testing.assert_array_equal(
        wavefront_levels(red), wavefront_levels(dag)
    )


@settings(max_examples=40, deadline=None)
@given(dags(max_n=25))
def test_property_idempotent_on_result_edges(dag):
    """Edges removed are exactly those covered by a 2-path (oracle)."""
    src, dst = dag.edges()
    mask = transitive_edge_mask(dag)
    parent_sets = [set(map(int, dag.parents(v))) for v in range(dag.n)]
    for s, d, m in zip(src, dst, mask, strict=True):
        covered = any(
            int(s) in parent_sets[w] for w in parent_sets[int(d)]
        )
        assert bool(m) == covered


def _mask_reference(dag: DAG, max_work: int | None) -> np.ndarray:
    """Vertex-at-a-time reference: probe each vertex's grandparents in
    index order, stopping before the vertex that exceeds the budget."""
    src, dst = dag.edges()
    index = {(int(s), int(d)): i for i, (s, d) in enumerate(
        zip(src, dst, strict=True))}
    mask = np.zeros(src.size, dtype=bool)
    work = 0
    for v in range(dag.n):
        pv = dag.parents(v).tolist()
        if len(pv) < 2:
            continue
        grand = [u for w in pv for u in dag.parents(w).tolist()]
        work += len(grand)
        if max_work is not None and work > max_work:
            break
        for u in set(pv) & set(grand):
            mask[index[(u, v)]] = True
    return mask


@settings(max_examples=60, deadline=None)
@given(dags(max_n=25), st.one_of(st.none(), st.integers(0, 80)))
def test_property_mask_matches_vertex_loop(dag, max_work):
    np.testing.assert_array_equal(
        transitive_edge_mask(dag, max_work=max_work),
        _mask_reference(dag, max_work),
    )
