"""Topological sorting (Kahn's algorithm) and order validation.

Kahn's algorithm [Kah62] is the ``O(|V| + |E|)`` toposort the coarsening
algorithm of the paper (Algorithm 4.1) builds on.  ``topological_order``
also serves as an acyclicity check: a graph with a cycle yields an
incomplete order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidPartitionError
from repro.graph.dag import DAG
from repro.utils.arrays import segmented_gather

__all__ = ["topological_order", "is_topological_order", "is_acyclic"]


def _kahn_rounds(dag: DAG) -> tuple[np.ndarray, np.ndarray]:
    """FIFO Kahn order and wavefront level of every vertex.

    FIFO Kahn processes the DAG in rounds: round ``k`` holds exactly the
    vertices of wavefront ``k`` (a vertex is appended while its last
    parent's round is processed), and within a round a vertex sits where
    its in-degree reached zero, i.e. at its last occurrence in the
    round's concatenated child lists.  Each round is one batch of numpy
    work, so the cost is ``O(|V| + |E|)`` array work plus a constant per
    wavefront.
    """
    ptr, idx = dag.child_ptr, dag.child_idx
    indeg = dag.in_degrees().copy()
    order = np.empty(dag.n, dtype=np.int64)
    level = np.zeros(dag.n, dtype=np.int64)
    # where each vertex last occurs in the child lists of the round that
    # readies it (a vertex is readied once, so one array serves all)
    last = np.full(dag.n, -1, dtype=np.int64)
    batch = np.flatnonzero(indeg == 0)
    count = 0
    depth = 0
    while batch.size:
        order[count:count + batch.size] = batch
        level[batch] = depth
        count += batch.size
        depth += 1
        starts = ptr[batch]
        kids = idx[segmented_gather(starts, ptr[batch + 1] - starts)]
        np.subtract.at(indeg, kids, 1)
        at = np.flatnonzero(indeg[kids] == 0)
        ready = kids[at]
        np.maximum.at(last, ready, at)
        batch = ready[last[ready] == at]  # last occurrences, in order
    if count != dag.n:
        raise InvalidPartitionError("graph contains a cycle")
    return order, level


def topological_order(dag: DAG) -> np.ndarray:
    """Kahn topological order (smallest-index-first tie-breaking).

    Raises
    ------
    InvalidPartitionError
        If the graph contains a cycle (possible for quotient graphs built
        from non-cascade partitions).
    """
    return _kahn_rounds(dag)[0]


def is_acyclic(dag: DAG) -> bool:
    """True iff the directed graph has no cycle."""
    try:
        topological_order(dag)
        return True
    except InvalidPartitionError:
        return False


def is_topological_order(dag: DAG, order: np.ndarray) -> bool:
    """True iff ``order`` lists every vertex once with all edges forward."""
    order = np.asarray(order, dtype=np.int64)
    if order.size != dag.n:
        return False
    position = np.full(dag.n, -1, dtype=np.int64)
    position[order] = np.arange(dag.n, dtype=np.int64)
    if np.any(position < 0):
        return False
    src, dst = dag.edges()
    return bool(np.all(position[src] < position[dst]))
