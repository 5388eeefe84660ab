"""Directed acyclic graph container.

The DAG stores both adjacency directions in CSR-like arrays (parents =
incoming, children = outgoing) because the schedulers sweep one direction
and the ready-set maintenance the other.  Vertex weights default to one and,
for SpTRSV DAGs, equal the row non-zero counts of the *full* matrix
(Section 2.2 of the paper — the paper keeps full-matrix weights even for
block sub-DAGs, cf. Section 3.1).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import MatrixFormatError
from repro.matrix.csr import CSRMatrix

__all__ = ["DAG"]


def _indptr(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of ``n`` rows holding ``keys``' entries."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr


class DAG:
    """A vertex-weighted directed acyclic graph.

    Attributes
    ----------
    n:
        Number of vertices (labelled ``0..n-1``).
    parent_ptr, parent_idx:
        CSR arrays: parents of ``v`` are
        ``parent_idx[parent_ptr[v]:parent_ptr[v+1]]``, sorted.
    child_ptr, child_idx:
        CSR arrays for children, sorted.
    weights:
        Positive vertex weights (compute cost of each vertex).

    Examples
    --------
    >>> from repro import DAG
    >>> from repro.matrix.generators import narrow_band_lower
    >>> dag = DAG.from_lower_triangular(
    ...     narrow_band_lower(100, 0.2, 5.0, seed=0))
    >>> dag.n
    100
    >>> dag.parents(0).size          # row 0 depends on nothing
    0
    """

    __slots__ = (
        "n",
        "parent_ptr",
        "parent_idx",
        "child_ptr",
        "child_idx",
        "weights",
    )

    def __init__(
        self,
        n: int,
        edges_src: np.ndarray,
        edges_dst: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        check: bool = True,
    ) -> None:
        self.n = int(n)
        src = np.asarray(edges_src, dtype=np.int64).ravel()
        dst = np.asarray(edges_dst, dtype=np.int64).ravel()
        if src.size != dst.size:
            raise MatrixFormatError("edge arrays must have equal length")
        if check and src.size:
            if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
                raise MatrixFormatError("edge endpoint out of range")
            if np.any(src == dst):
                raise MatrixFormatError("self-loops are not allowed in a DAG")
        # one sort: the deduplicated (src, dst) keys are the child CSR in
        # order, and a stable sort on dst keeps each parent list sorted
        # (a plain sort: ``np.unique`` costs about 50x more on numpy 2.4)
        if src.size:
            key = np.sort(src * np.int64(self.n) + dst)
            fresh = np.empty(key.size, dtype=bool)
            fresh[0] = True
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            key = key[fresh]
            src = key // self.n
            dst = key - src * self.n
        self.child_ptr = _indptr(src, self.n)
        self.child_idx = dst
        self.parent_ptr = _indptr(dst, self.n)
        self.parent_idx = src[np.argsort(dst, kind="stable")]
        if weights is None:
            self.weights = np.ones(self.n, dtype=np.int64)
        else:
            w = np.asarray(weights, dtype=np.int64)
            if w.shape != (self.n,):
                raise MatrixFormatError("weights must have length n")
            if check and np.any(w <= 0):
                raise MatrixFormatError("vertex weights must be positive")
            self.weights = w

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_lower_triangular(cls, lower: CSRMatrix) -> "DAG":
        """Build the SpTRSV dependence DAG of a lower-triangular matrix.

        Vertex ``i`` is row ``i``; edge ``(j, i)`` for each strict-lower
        stored entry ``L[i, j]``.  Vertex weight = stored entries of the row
        (including the diagonal), per Section 2.2.
        """
        lower.require_lower_triangular()
        rows = np.repeat(
            np.arange(lower.n, dtype=np.int64), lower.row_nnz()
        )
        strict = lower.indices < rows
        src = lower.indices[strict]
        dst = rows[strict]
        weights = np.maximum(lower.row_nnz(), 1)
        return cls(lower.n, src, dst, weights, check=False)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[int] | np.ndarray | None = None,
    ) -> "DAG":
        """Build from an iterable of ``(src, dst)`` pairs."""
        pairs = list(edges)
        if pairs:
            src = np.array([e[0] for e in pairs], dtype=np.int64)
            dst = np.array([e[1] for e in pairs], dtype=np.int64)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        return cls(n, src, dst, None if weights is None else np.asarray(weights))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.child_idx.size)

    def parents(self, v: int) -> np.ndarray:
        """Sorted array of parents of ``v``."""
        return self.parent_idx[self.parent_ptr[v]:self.parent_ptr[v + 1]]

    def children(self, v: int) -> np.ndarray:
        """Sorted array of children of ``v``."""
        return self.child_idx[self.child_ptr[v]:self.child_ptr[v + 1]]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex."""
        return np.diff(self.parent_ptr)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.child_ptr)

    def sources(self) -> np.ndarray:
        """Vertices with no parents."""
        return np.nonzero(self.in_degrees() == 0)[0]

    def sinks(self) -> np.ndarray:
        """Vertices with no children."""
        return np.nonzero(self.out_degrees() == 0)[0]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as ``(src, dst)`` arrays (grouped by source)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees())
        return src, self.child_idx.copy()

    def total_weight(self) -> int:
        """Sum of all vertex weights."""
        return int(self.weights.sum())

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the edge ``(u, v)`` exists."""
        ch = self.children(u)
        pos = np.searchsorted(ch, v)
        return bool(pos < ch.size and ch[pos] == v)

    def induced_subgraph(self, vertices: np.ndarray) -> "DAG":
        """Sub-DAG induced by ``vertices`` (relabelled ``0..k-1`` in the
        given order, which must be consistent with a topological order)."""
        verts = np.asarray(vertices, dtype=np.int64)
        label = np.full(self.n, -1, dtype=np.int64)
        label[verts] = np.arange(verts.size, dtype=np.int64)
        src, dst = self.edges()
        keep = (label[src] >= 0) & (label[dst] >= 0)
        return DAG(
            verts.size,
            label[src[keep]],
            label[dst[keep]],
            self.weights[verts],
            check=False,
        )

    def reversed(self) -> "DAG":
        """The DAG with all edges reversed (for backward substitution)."""
        src, dst = self.edges()
        return DAG(self.n, dst, src, self.weights, check=False)

    def __repr__(self) -> str:
        return f"DAG(n={self.n}, m={self.m})"
