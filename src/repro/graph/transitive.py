"""Approximate transitive reduction: "remove all long edges in triangles".

This is the SpMP preprocessing of Park et al. [PSSD14, Section 2.3], also
applied before Funnel coarsening in the paper (Section 4.2): an edge
``(u, v)`` is redundant for scheduling whenever a two-edge path
``u -> w -> v`` exists, because the dependency is already enforced
transitively.  Removing exactly these "long edges in triangles" costs
``O(sum_v deg(v)^2)`` and is not a full transitive reduction, but removes
the bulk of redundant synchronization in practice.

The reduction never changes reachability, hence scheduling validity is
preserved (any schedule valid for the reduced DAG is valid for the
original).
"""

from __future__ import annotations

import numpy as np

from repro.graph.dag import DAG
from repro.utils.arrays import segmented_gather

__all__ = ["approximate_transitive_reduction", "transitive_edge_mask"]


#: Parent-pair probes examined per vectorized batch; bounds the memory
#: of the candidate arrays on dense graphs.
_BATCH_PROBES = 1 << 20


def transitive_edge_mask(dag: DAG, *, max_work: int | None = None) -> np.ndarray:
    """Boolean mask (aligned with ``dag.edges()``) marking redundant edges.

    An edge ``(u, v)`` is marked iff some other parent ``w`` of ``v`` has
    ``u`` as a parent (i.e. the triangle ``u -> w -> v`` exists).

    Parameters
    ----------
    max_work:
        Optional early-termination budget on the number of parent-pair
        probes, mirroring the paper's remark that the SpMP reduction "may be
        terminated early if a faster runtime is desired".  Vertices are
        probed in index order and the sweep stops before the first vertex
        that takes the running probe count past the budget.  ``None`` runs
        the full algorithm (the paper's configuration).
    """
    src, dst = dag.edges()
    mask = np.zeros(src.size, dtype=bool)
    if src.size == 0:
        return mask
    n = np.int64(dag.n)
    parent_ptr, parent_idx = dag.parent_ptr, dag.parent_idx
    indeg = np.diff(parent_ptr)
    # edges in parent-CSR order, keyed v * n + u (ascending)
    slot_v = np.repeat(np.arange(dag.n, dtype=np.int64), indeg)
    parent_keys = slot_v * n + parent_idx
    # one probe batch per edge (w, v) into a vertex with >= 2 parents:
    # which parents u of w are also parents of v?
    multi = indeg[slot_v] >= 2
    probe_w, probe_v = parent_idx[multi], slot_v[multi]
    probes = indeg[probe_w]
    if max_work is not None:
        over = np.nonzero(np.cumsum(probes) > max_work)[0]
        if over.size:
            cut = np.searchsorted(probe_v, probe_v[over[0]])
            probe_w, probe_v, probes = (
                probe_w[:cut], probe_v[:cut], probes[:cut]
            )
    covered = np.zeros(parent_keys.size, dtype=bool)
    ends = np.cumsum(probes)
    start = 0
    while start < probes.size:
        stop = int(np.searchsorted(
            ends, ends[start] - probes[start] + _BATCH_PROBES, side="right"
        ))
        stop = max(stop, start + 1)
        counts = probes[start:stop]
        grand = parent_idx[
            segmented_gather(parent_ptr[probe_w[start:stop]], counts)
        ]
        cand = np.repeat(probe_v[start:stop], counts) * n + grand
        if cand.size:
            # look the batch's vertices' parent keys up among the sorted
            # probes: one sort of the probes and a search per edge, not a
            # search per probe
            cand.sort()
            lo, hi = np.searchsorted(
                parent_keys,
                [probe_v[start] * n, (probe_v[stop - 1] + 1) * n],
            )
            keys = parent_keys[lo:hi]
            pos = np.minimum(np.searchsorted(cand, keys), cand.size - 1)
            covered[lo:hi] |= cand[pos] == keys
        start = stop
    # edges() groups by source with sorted targets: its keys are sorted
    mask[np.searchsorted(
        src * n + dst, parent_idx[covered] * n + slot_v[covered]
    )] = True
    return mask


def approximate_transitive_reduction(
    dag: DAG, *, max_work: int | None = None
) -> DAG:
    """Return a new DAG with all "long edges in triangles" removed.

    Reachability (and therefore the set of valid schedules) is unchanged;
    the number of edges — and hence the synchronization the schedulers must
    respect — can drop substantially.
    """
    mask = transitive_edge_mask(dag, max_work=max_work)
    src, dst = dag.edges()
    keep = ~mask
    return DAG(dag.n, src[keep], dst[keep], dag.weights, check=False)
