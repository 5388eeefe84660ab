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

A partition is returned as one label array, ``part_of``, with funnels
numbered in the order the sweep creates them; :func:`coarsen
<repro.graph.coarsen.quotient.coarsen>` takes it as it is.  The sweep's
per-funnel state (how many of a parent's children the funnel holds) lives
in lists stamped with the funnel id, so starting a funnel allocates
nothing.
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
) -> np.ndarray:
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
    numpy.ndarray
        ``part_of``: the funnel of every vertex, numbered in the order the
        sweep creates them.  Every part is an in-funnel, and together they
        partition ``V``.
    """
    if max_weight is not None and max_weight <= 0:
        raise ConfigurationError("max_weight must be positive")
    n = dag.n
    order = topological_order(dag)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    # the sweep reads one vertex at a time: Python lists index faster
    # than numpy scalars
    order = order.tolist()
    position = position.tolist()
    out_degree = dag.out_degrees().tolist()
    weights = dag.weights.tolist()
    parent_ptr, parent_idx = dag.parent_ptr.tolist(), dag.parent_idx.tolist()
    part_of = [-1] * n
    # per-funnel stamps: counted[u] == funnel when count[u] holds how many
    # of u's children the current funnel has absorbed
    counted = [-1] * n
    count = [0] * n

    funnel = 0
    for v in reversed(order):  # reverse topological order
        if part_of[v] >= 0:
            continue
        size = weight = 0
        # pop vertices closest to the seed first: a max heap on topological
        # position, kept as a min heap of negated positions
        heap = [-position[v]]
        while heap:
            w = order[-heapq.heappop(heap)]
            if max_weight is not None and size and (
                weight + weights[w] > max_weight
            ):
                break  # size constraint: stop growing this funnel
            part_of[w] = funnel
            size += 1
            weight += weights[w]
            # a parent is pushed when its last child joins, and no later
            # member is its child, so it needs no "queued" mark
            for u in parent_idx[parent_ptr[w]:parent_ptr[w + 1]]:
                if part_of[u] >= 0:
                    continue
                if counted[u] == funnel:
                    count[u] += 1
                else:
                    counted[u] = funnel
                    count[u] = 1
                if count[u] == out_degree[u]:
                    heapq.heappush(heap, -position[u])
        funnel += 1
    return np.array(part_of, dtype=np.int64)


def out_funnel_partition(
    dag: DAG, *, max_weight: int | None = None
) -> np.ndarray:
    """Partition into out-funnels: Algorithm 4.1 on the reversed DAG."""
    return in_funnel_partition(dag.reversed(), max_weight=max_weight)


def funnel_partition(
    dag: DAG,
    *,
    direction: str = "in",
    max_weight: int | None = None,
) -> np.ndarray:
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
