"""Structural feature extraction for the autotuner.

Which scheduler wins on a matrix is largely decided by a handful of
structural quantities: problem size, density, bandwidth (how far back
rows reach), the wavefront profile (how much parallelism each dependency
level exposes, and how it is distributed), and how many dependency edges
would cross cores under a contiguous row partition.  The tuner computes
these **once per matrix** — every quantity below is derived from the CSR
arrays and the wavefront levels with vectorized NumPy, never a per-row
Python loop — and uses them to key persisted tuning profiles: a stored
decision is only trusted for a matrix whose features match.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from repro.graph.dag import DAG
from repro.graph.profile import profile_statistics

__all__ = ["MatrixFeatures", "extract_features"]


@dataclass(frozen=True)
class MatrixFeatures:
    """Structural fingerprint of one lower-triangular instance.

    Attributes
    ----------
    n, nnz:
        Problem size and stored entries (diagonal included).
    avg_row_nnz, max_row_nnz:
        Row-density statistics.
    avg_bandwidth, max_bandwidth:
        Mean/max distance ``i - j`` over off-diagonal entries — how far
        back rows reach (narrow bands schedule very differently from
        Erdős–Rényi structure at equal density).
    n_wavefronts, avg_wavefront, max_wavefront, median_wavefront:
        The rows-per-level distribution of the dependence DAG: level
        count and mean/max/median width.
    warmup_levels:
        Levels before the width first reaches half the median width (the
        ramp a scheduler must climb; large for single-source grids).
    wavefront_cv:
        Coefficient of variation of the level widths (irregularity).
    cross_edge_fraction:
        Fraction of off-diagonal dependency edges that cross blocks of a
        contiguous ``n_cores``-way row partition — a cheap proxy for the
        synchronization pressure a core-local scheduler faces.
    n_cores:
        Core count the partition-dependent features were computed for.

    Examples
    --------
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.tuner import MatrixFeatures, extract_features
    >>> f = extract_features(narrow_band_lower(100, 0.2, 5.0, seed=0),
    ...                      n_cores=4)
    >>> MatrixFeatures.from_dict(f.as_dict()) == f   # JSON round-trip
    True
    >>> f.matches(f)
    True
    """

    n: int
    nnz: int
    avg_row_nnz: float
    max_row_nnz: int
    avg_bandwidth: float
    max_bandwidth: int
    n_wavefronts: int
    avg_wavefront: float
    max_wavefront: float
    median_wavefront: float
    warmup_levels: int
    wavefront_cv: float
    cross_edge_fraction: float
    n_cores: int

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (profile serialization, tables)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "MatrixFeatures":
        """Inverse of :meth:`as_dict` (profile deserialization)."""
        return cls(**{k: data[k] for k in cls.__dataclass_fields__})

    def matches(self, other: "MatrixFeatures") -> bool:
        """Whether ``other`` describes the same structure (warm-start
        validity check): exact on integer fields, tolerant on floats."""
        for k, v in self.as_dict().items():
            w = getattr(other, k)
            if isinstance(v, float):
                if not math.isclose(v, w, rel_tol=1e-6, abs_tol=1e-9):
                    return False
            elif v != w:
                return False
        return True


def extract_features(
    inst,
    *,
    n_cores: int = 22,
    dag: DAG | None = None,
) -> MatrixFeatures:
    """Compute :class:`MatrixFeatures` for one instance.

    Parameters
    ----------
    inst:
        A :class:`~repro.experiments.datasets.DatasetInstance` (its
        precomputed DAG is reused) or a bare lower-triangular
        :class:`~repro.matrix.csr.CSRMatrix`.
    n_cores:
        Core count for the partition-dependent ``cross_edge_fraction``.
    dag:
        Optional precomputed DAG of the matrix (avoids rebuilding it
        when the caller already has one).

    Examples
    --------
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.tuner import extract_features
    >>> f = extract_features(narrow_band_lower(100, 0.2, 5.0, seed=0),
    ...                      n_cores=4)
    >>> (f.n, f.n_cores, f.n_wavefronts >= 1)
    (100, 4, True)
    """
    matrix = getattr(inst, "lower", inst)
    if dag is None:
        dag = getattr(inst, "dag", None)
    if dag is None:
        dag = DAG.from_lower_triangular(matrix)

    n = matrix.n
    row_nnz = matrix.row_nnz()
    rows_flat = np.repeat(np.arange(n, dtype=np.int64), row_nnz)
    off = matrix.indices != rows_flat
    dist = rows_flat[off] - matrix.indices[off]

    stats = profile_statistics(dag)

    cores = max(int(n_cores), 1)
    if dist.size and n:
        block = max(-(-n // cores), 1)  # ceil(n / cores)
        crossing = (rows_flat[off] // block) != (matrix.indices[off] // block)
        cross_fraction = float(crossing.mean())
    else:
        cross_fraction = 0.0

    return MatrixFeatures(
        n=int(n),
        nnz=int(matrix.nnz),
        avg_row_nnz=float(matrix.nnz / n) if n else 0.0,
        max_row_nnz=int(row_nnz.max()) if n else 0,
        avg_bandwidth=float(dist.mean()) if dist.size else 0.0,
        max_bandwidth=int(dist.max()) if dist.size else 0,
        n_wavefronts=int(stats["levels"]),
        avg_wavefront=float(stats["mean_width"]),
        max_wavefront=float(stats["max_width"]),
        median_wavefront=float(stats["median_width"]),
        warmup_levels=int(stats["warmup_levels"]),
        wavefront_cv=float(stats["width_cv"]),
        cross_edge_fraction=cross_fraction,
        n_cores=cores,
    )
