"""Shared flat-array indexing helpers.

The segmented gather — "for each segment ``i``, the consecutive indices
``starts[i] .. starts[i] + counts[i]``, concatenated" — underlies the
execution-plan compiler's gather layout, the plan verifier's source
cross-check, the cache model's access streams, and the frontier-at-a-time
graph sweeps (Kahn rounds, BFS levels, triangle probes, HDagg's bundle
unions).  One implementation keeps the subtle index arithmetic in one
place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["segmented_gather"]


def segmented_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i] + counts[i])``.

    Fully vectorized: no per-segment Python loop.  Returns an empty array
    when all counts are zero.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    prefix = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=prefix[1:])
    return (np.repeat(starts, counts)
            + np.arange(total, dtype=np.int64)
            - np.repeat(prefix, counts))
