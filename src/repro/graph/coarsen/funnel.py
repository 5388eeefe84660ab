"""Funnel partitioning — Algorithm 4.1 of the paper.

An *in-funnel* (Definition 4.4) is a cascade with at most one vertex having
an outgoing cut edge.  Algorithm 4.1 builds an in-funnel partition in
``O(|V| + |E|)``: sweeping vertices in reverse topological order, each
unvisited vertex ``v`` seeds a funnel that grows upwards by absorbing any
parent *all* of whose children are already inside the funnel.  By
construction every absorbed vertex has all children inside the set, so only
the seed can have outgoing cut edges, and every member reaches the seed —
the set is an in-funnel, hence a cascade, hence contraction preserves
acyclicity (Proposition 4.3).

Section 4.2 adds a size/weight constraint so that, e.g., a DAG with a single
sink is not collapsed into one vertex; ``max_weight`` implements it.
Out-funnels are obtained by running the same algorithm on the reversed DAG.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.dag import DAG
from repro.graph.toposort import topological_order

__all__ = [
    "in_funnel_partition",
    "out_funnel_partition",
    "funnel_partition",
    "is_in_funnel",
]


def in_funnel_partition(
    dag: DAG, *, max_weight: int | None = None
) -> list[np.ndarray]:
    """Partition the vertices into in-funnels (Algorithm 4.1).

    Parameters
    ----------
    dag:
        The DAG to partition (must be acyclic).
    max_weight:
        Optional cap on the total vertex weight of each funnel
        (Section 4.2's size constraint).  ``None`` means unbounded.

    Returns
    -------
    list of numpy.ndarray
        Vertex sets; every set is an in-funnel, and together they partition
        ``V``.
    """
    if max_weight is not None and max_weight <= 0:
        raise ConfigurationError("max_weight must be positive")
    order = topological_order(dag)
    position = np.empty(dag.n, dtype=np.int64)
    position[order] = np.arange(dag.n, dtype=np.int64)
    # the sweep reads one vertex at a time: Python lists index faster
    # than numpy scalars
    position = position.tolist()
    out_degree = dag.out_degrees().tolist()
    weights = dag.weights.tolist()
    parent_ptr, parent_idx = dag.parent_ptr.tolist(), dag.parent_idx.tolist()
    visited = [False] * dag.n
    partition: list[np.ndarray] = []

    for v in reversed(order.tolist()):  # reverse topological order
        if visited[v]:
            continue
        members: list[int] = []
        weight = 0
        children_count: dict[int, int] = {}
        # pop vertices closest to the seed first (max heap on topo position)
        heap: list[tuple[int, int]] = [(-position[v], v)]
        in_queue = {v}
        while heap:
            _, w = heapq.heappop(heap)
            if max_weight is not None and members and (
                weight + weights[w] > max_weight
            ):
                break  # size constraint: stop growing this funnel
            members.append(w)
            weight += weights[w]
            for u in parent_idx[parent_ptr[w]:parent_ptr[w + 1]]:
                if visited[u] or u in in_queue:
                    continue
                children_count[u] = children_count.get(u, 0) + 1
                if children_count[u] == out_degree[u]:
                    heapq.heappush(heap, (-position[u], u))
                    in_queue.add(u)
        members.sort()
        for w in members:
            visited[w] = True
        partition.append(np.array(members, dtype=np.int64))
    return partition


def out_funnel_partition(
    dag: DAG, *, max_weight: int | None = None
) -> list[np.ndarray]:
    """Partition into out-funnels: Algorithm 4.1 on the reversed DAG."""
    return in_funnel_partition(dag.reversed(), max_weight=max_weight)


def funnel_partition(
    dag: DAG,
    *,
    direction: str = "in",
    max_weight: int | None = None,
) -> list[np.ndarray]:
    """Dispatch helper: ``direction`` is ``"in"`` or ``"out"``."""
    if direction == "in":
        return in_funnel_partition(dag, max_weight=max_weight)
    if direction == "out":
        return out_funnel_partition(dag, max_weight=max_weight)
    raise ConfigurationError(f"unknown funnel direction {direction!r}")


def is_in_funnel(dag: DAG, vertices: np.ndarray) -> bool:
    """Check Definition 4.4 directly: a cascade with at most one vertex
    having an outgoing cut edge."""
    from repro.graph.coarsen.cascade import is_cascade

    members = np.unique(np.asarray(vertices, dtype=np.int64))
    in_set = np.zeros(dag.n, dtype=bool)
    in_set[members] = True
    exits = 0
    for v in members.tolist():
        if any(not in_set[int(c)] for c in dag.children(v)):
            exits += 1
            if exits > 1:
                return False
    return is_cascade(dag, members)
