"""Wavefront (level-set) analysis of DAGs.

The *wavefronts* of a DAG are the levels of the longest-path layering:
``level(v) = 0`` for sources and ``1 + max(level(parents))`` otherwise
(the dotted lines of Figure 1.1b).  Wavefront schedulers execute one level
per superstep; the *average wavefront size* ``|V| / (#levels)`` is the
paper's parallelizability metric (Section 6.2, Appendix A), and the barrier
reduction of Table 7.2 is measured relative to the wavefront count.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dag import DAG
from repro.graph.toposort import _kahn_rounds

__all__ = [
    "wavefront_levels",
    "wavefronts",
    "critical_path_length",
    "average_wavefront_size",
]


def wavefront_levels(dag: DAG) -> np.ndarray:
    """Level of every vertex: ``0`` for sources, else
    ``1 + max(level of parents)``."""
    return _kahn_rounds(dag)[1]


def wavefronts(dag: DAG) -> list[np.ndarray]:
    """The wavefronts as a list of sorted vertex arrays, level by level."""
    level = wavefront_levels(dag)
    n_levels = int(level.max()) + 1 if dag.n else 0
    order = np.argsort(level, kind="stable")  # each level in ascending id
    bounds = np.searchsorted(level[order], np.arange(n_levels + 1))
    return [order[bounds[k]:bounds[k + 1]] for k in range(n_levels)]


def critical_path_length(dag: DAG) -> int:
    """Number of wavefronts = length (in vertices) of the longest path."""
    if dag.n == 0:
        return 0
    return int(wavefront_levels(dag).max()) + 1


def average_wavefront_size(dag: DAG) -> float:
    """``|V| / #wavefronts`` — the parallelizability proxy of Appendix A."""
    if dag.n == 0:
        return 0.0
    return dag.n / critical_path_length(dag)
