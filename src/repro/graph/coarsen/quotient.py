"""The coarsened graph ``G // P`` (Definition 4.1).

Vertices of the coarse graph are the parts of the partition; an edge
``(U, W)`` exists iff some fine edge crosses from ``U`` to ``W``
(self-loops removed).  Part weights are the sums of member weights.  When
the partition consists of cascades, ``G // P`` is guaranteed acyclic
(Proposition 4.3); construction verifies acyclicity and raises otherwise,
providing a runtime check of the proposition.

:func:`coarsen` takes the partition as a label array ``part_of`` (the
funnel partitions return one) and checks it in a few vectorized passes;
:func:`partition_from_parts` turns a list of vertex sets into such labels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidPartitionError
from repro.graph.dag import DAG
from repro.graph.toposort import topological_order

__all__ = ["coarsen", "partition_from_parts", "CoarseningResult"]


class CoarseningResult:
    """Outcome of a coarsening step.

    Attributes
    ----------
    coarse:
        The coarse DAG ``G // P`` with summed part weights, relabelled so
        that part ids form a topological order of the coarse DAG (required
        by schedulers that use smallest-ID tie-breaking).
    part_of:
        Array mapping each fine vertex to its (relabelled) part id.
    """

    __slots__ = ("coarse", "part_of")

    def __init__(self, coarse: DAG, part_of: np.ndarray) -> None:
        self.coarse = coarse
        self.part_of = part_of


def partition_from_parts(n: int, parts: Sequence[np.ndarray]) -> np.ndarray:
    """Convert a list of vertex arrays into a part-id map, validating that
    the arrays form a partition of ``0..n-1``.

    Parts are checked in order, as if assigned one after another: the
    first part holding an out-of-range vertex or a vertex of an earlier
    part decides the error."""
    arrays = [np.asarray(part, dtype=np.int64).ravel() for part in parts]
    k = len(arrays)
    flat = np.concatenate(arrays) if k else np.empty(0, dtype=np.int64)
    pids = np.repeat(np.arange(k, dtype=np.int64),
                     [arr.size for arr in arrays])
    valid = (flat >= 0) & (flat < n)
    verts, owners = flat[valid], pids[valid]
    part_of = np.full(n, k, dtype=np.int64)
    np.minimum.at(part_of, verts, owners)  # the first part holding each
    out_of_range = pids[~valid]
    overlapping = owners[owners > part_of[verts]]
    first_out = out_of_range[0] if out_of_range.size else k
    first_overlap = overlapping[0] if overlapping.size else k
    if min(first_out, first_overlap) < k:
        raise InvalidPartitionError(
            "part contains out-of-range vertex"
            if first_out <= first_overlap else "parts overlap"
        )
    if np.any(part_of == k):
        raise InvalidPartitionError("parts do not cover all vertices")
    return part_of


def _check_labels(n: int, part_of) -> tuple[np.ndarray, int]:
    """Validate a part-id map of ``n`` vertices; return it as int64 with
    its part count.  Labels must lie in ``0..n-1`` and every part id up
    to the largest must own a vertex."""
    labels = np.asarray(part_of)
    if labels.shape != (n,):
        raise InvalidPartitionError("part_of must hold one label per vertex")
    if n == 0:
        return labels.astype(np.int64), 0
    if labels.dtype.kind not in "iu":
        raise InvalidPartitionError("part labels must be integers")
    labels = labels.astype(np.int64, copy=False)
    if labels.min() < 0 or labels.max() >= n:
        raise InvalidPartitionError("part label out of range")
    sizes = np.bincount(labels)
    if not sizes.all():
        raise InvalidPartitionError("partition has an empty part")
    return labels, sizes.size


def coarsen(dag: DAG, part_of: np.ndarray) -> CoarseningResult:
    """Contract ``dag`` along the partition ``part_of`` (the part id of
    every vertex; ids ``0..k-1``, each owning at least one vertex).

    Raises
    ------
    InvalidPartitionError
        If ``part_of`` is not such a labelling, or the quotient contains a
        cycle (i.e. the partition was not made of cascades).
    """
    part_of, k = _check_labels(dag.n, part_of)
    src, dst = dag.edges()
    csrc, cdst = part_of[src], part_of[dst]
    keep = csrc != cdst
    csrc, cdst = csrc[keep], cdst[keep]
    # integer weights sum exactly in float64 below 2**53
    weights = np.bincount(part_of, weights=dag.weights, minlength=k)
    weights = np.maximum(weights.astype(np.int64), 1)
    coarse = DAG(k, csrc, cdst, weights, check=False)

    # relabel parts into a topological order of the coarse DAG so that
    # smallest-ID selection remains meaningful after coarsening
    topo = topological_order(coarse)  # raises on cycles
    rank = np.empty(k, dtype=np.int64)
    rank[topo] = np.arange(k, dtype=np.int64)
    coarse2 = DAG(k, rank[csrc], rank[cdst], weights[topo], check=False)
    return CoarseningResult(coarse2, rank[part_of])
