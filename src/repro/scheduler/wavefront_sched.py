"""Wavefront (level-set) scheduler [AS89, Sal90].

One superstep per wavefront; within a wavefront, rows are split into
contiguous (by vertex id) weight-balanced chunks, one per core.  This is the
classic scheduler whose "large overhead stemming from frequent global
synchronization" (Section 1) motivates everything else: the barrier count
equals the critical-path length.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dag import DAG
from repro.graph.wavefront import wavefront_levels
from repro.scheduler.base import Scheduler
from repro.scheduler.schedule import Schedule

__all__ = ["WavefrontScheduler", "balanced_contiguous_split"]


def balanced_contiguous_split(
    weights: np.ndarray, n_parts: int
) -> np.ndarray:
    """Split a weight sequence into ``n_parts`` contiguous chunks with
    near-equal weight; returns the part index of each element.

    Uses the prefix-sum quantile rule: element ``i`` goes to part
    ``floor(prefix(i) / total * n_parts)`` — O(m), deterministic, and keeps
    elements in order (the locality-preserving property SpMP relies on).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        return np.empty(0, dtype=np.int64)
    total = w.sum()
    if total <= 0:
        return np.zeros(w.size, dtype=np.int64)
    centered = np.cumsum(w) - 0.5 * w  # midpoint of each element's span
    parts = np.floor(centered / total * n_parts).astype(np.int64)
    return np.clip(parts, 0, n_parts - 1)


class WavefrontScheduler(Scheduler):
    """Level-set scheduling: ``sigma = wavefront level``."""

    name = "wavefront"

    def schedule(self, dag: DAG, n_cores: int) -> Schedule:
        self._check_cores(n_cores)
        if dag.n == 0:
            return Schedule(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                n_cores,
            )
        level = wavefront_levels(dag)
        cores = np.zeros(dag.n, dtype=np.int64)
        # a stable sort lists each level in ascending id
        order = np.argsort(level, kind="stable")
        n_levels = int(level.max()) + 1
        bounds = np.searchsorted(level[order], np.arange(n_levels + 1))
        for k in range(n_levels):
            members = order[bounds[k]:bounds[k + 1]]
            cores[members] = balanced_contiguous_split(
                dag.weights[members], n_cores
            )
        return Schedule(cores, level, n_cores)
