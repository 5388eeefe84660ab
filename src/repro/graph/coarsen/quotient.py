"""The coarsened graph ``G // P`` (Definition 4.1).

Vertices of the coarse graph are the parts of the partition; an edge
``(U, W)`` exists iff some fine edge crosses from ``U`` to ``W``
(self-loops removed).  Part weights are the sums of member weights.  When
the partition consists of cascades, ``G // P`` is guaranteed acyclic
(Proposition 4.3); construction verifies acyclicity and raises otherwise,
providing a runtime check of the proposition.
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
    parts:
        For each part id, the sorted array of fine member vertices.
    """

    __slots__ = ("coarse", "part_of", "parts")

    def __init__(
        self, coarse: DAG, part_of: np.ndarray, parts: list[np.ndarray]
    ) -> None:
        self.coarse = coarse
        self.part_of = part_of
        self.parts = parts


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


def coarsen(dag: DAG, parts: Sequence[np.ndarray]) -> CoarseningResult:
    """Contract ``dag`` along the partition ``parts``.

    Raises
    ------
    InvalidPartitionError
        If ``parts`` is not a partition, or the quotient contains a cycle
        (i.e. the partition was not made of cascades).
    """
    part_of = partition_from_parts(dag.n, parts)
    k = len(parts)
    src, dst = dag.edges()
    csrc, cdst = part_of[src], part_of[dst]
    keep = csrc != cdst
    weights = np.zeros(k, dtype=np.int64)
    np.add.at(weights, part_of, dag.weights)
    coarse = DAG(k, csrc[keep], cdst[keep], np.maximum(weights, 1),
                 check=False)

    # relabel parts into a topological order of the coarse DAG so that
    # smallest-ID selection remains meaningful after coarsening
    topo = topological_order(coarse)  # raises on cycles
    rank = np.empty(k, dtype=np.int64)
    rank[topo] = np.arange(k, dtype=np.int64)
    csrc2, cdst2 = rank[csrc[keep]], rank[cdst[keep]]
    coarse2 = DAG(k, csrc2, cdst2, np.maximum(weights[topo], 1), check=False)
    part_of2 = rank[part_of]
    parts2: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * k
    for old_pid, part in enumerate(parts):
        parts2[int(rank[old_pid])] = np.sort(
            np.asarray(part, dtype=np.int64)
        )
    return CoarseningResult(coarse2, part_of2, parts2)
