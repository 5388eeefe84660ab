"""Reverse Cuthill–McKee (RCM) bandwidth-reducing ordering.

Classic breadth-first ordering from a pseudo-peripheral start vertex with
neighbours visited in increasing-degree order, then reversed.  Used as the
leaf ordering inside nested dissection and available directly for
experiments on locality-sensitive schedules.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.matrix.csr import CSRMatrix
from repro.utils.arrays import segmented_gather

__all__ = ["rcm_ordering", "pseudo_peripheral_vertex"]


def _symmetric_adjacency(matrix: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of the symmetrized pattern without the diagonal."""
    rows = np.repeat(np.arange(matrix.n, dtype=np.int64), matrix.row_nnz())
    cols = matrix.indices
    off = rows != cols
    ei = np.concatenate([rows[off], cols[off]])
    ej = np.concatenate([cols[off], rows[off]])
    order = np.lexsort((ej, ei))
    ei, ej = ei[order], ej[order]
    if ei.size:
        dup = np.zeros(ei.size, dtype=bool)
        dup[1:] = (ei[1:] == ei[:-1]) & (ej[1:] == ej[:-1])
        ei, ej = ei[~dup], ej[~dup]
    indptr = np.zeros(matrix.n + 1, dtype=np.int64)
    np.add.at(indptr, ei + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, ej


def _bfs_levels(
    indptr: np.ndarray, adj: np.ndarray, start: int, active: np.ndarray
) -> np.ndarray:
    """BFS level of each vertex reachable from ``start`` within ``active``
    (-1 for unreachable).  ``active`` is a boolean mask.  One numpy batch
    per level: the frontier's neighbour lists are gathered at once."""
    n = indptr.size - 1
    level = np.full(n, -1, dtype=np.int64)
    level[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        nbrs = adj[segmented_gather(starts, indptr[frontier + 1] - starts)]
        frontier = np.unique(nbrs[active[nbrs] & (level[nbrs] < 0)])
        level[frontier] = depth
    return level


def pseudo_peripheral_vertex(
    indptr: np.ndarray,
    adj: np.ndarray,
    start: int,
    active: np.ndarray,
) -> int:
    """George–Liu pseudo-peripheral vertex search.

    Repeatedly BFS from the current candidate and move to a smallest-degree
    vertex in the deepest level until the eccentricity stops growing.
    """
    degree = np.diff(indptr)
    current = start
    best_depth = -1
    for _ in range(16):  # converges in a handful of rounds in practice
        level = _bfs_levels(indptr, adj, current, active)
        depth = int(level.max())
        if depth <= best_depth:
            break
        best_depth = depth
        last = np.nonzero(level == depth)[0]
        current = int(last[np.argmin(degree[last])])
    return current


def rcm_ordering(matrix: CSRMatrix) -> np.ndarray:
    """Reverse Cuthill–McKee ordering of the symmetrized pattern.

    Returns
    -------
    numpy.ndarray
        Old->new permutation ``perm`` such that relabelling vertex ``i`` to
        ``perm[i]`` reduces the bandwidth of ``P A P^T``.
    """
    n = matrix.n
    indptr, adj = _symmetric_adjacency(matrix)
    degree = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    active = np.ones(n, dtype=bool)
    for comp_start in np.argsort(degree, kind="stable"):
        comp_start = int(comp_start)
        if visited[comp_start]:
            continue
        start = pseudo_peripheral_vertex(indptr, adj, comp_start, ~visited)
        visited[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            nbrs = adj[indptr[u]:indptr[u + 1]]
            fresh = [int(v) for v in nbrs if not visited[v]]
            fresh.sort(key=lambda v: (degree[v], v))
            for v in fresh:
                visited[v] = True
                queue.append(v)
    del active  # kept for signature symmetry with callers
    order_arr = np.array(order[::-1], dtype=np.int64)  # the "reverse" in RCM
    perm = np.empty(n, dtype=np.int64)
    perm[order_arr] = np.arange(n, dtype=np.int64)
    return perm
