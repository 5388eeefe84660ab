"""Parallel schedules (Definition 2.1) and their quality metrics.

A schedule assigns every DAG vertex a core ``pi(v)`` and a superstep
``sigma(v)``.  Validity requires, for every edge ``(u, v)``:

* ``sigma(u) <= sigma(v)`` and
* ``sigma(u) < sigma(v)`` whenever ``pi(u) != pi(v)``,

i.e. a synchronization barrier separates computing a value on one core from
consuming it on another.  The metrics exposed here — superstep count
(synchronization barriers), per-superstep work imbalance, and the total
BSP-style cost — are the quantities Tables 7.1–7.7 of the paper are built
from.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, InvalidScheduleError
from repro.graph.dag import DAG

__all__ = ["Schedule"]


class Schedule:
    """Core and superstep assignment for a DAG's vertices.

    Parameters
    ----------
    cores:
        ``pi``: integer core id (``0..n_cores-1``) per vertex.
    supersteps:
        ``sigma``: non-negative superstep index per vertex.  Superstep
        numbering is normalized on construction so that the used supersteps
        are exactly ``0..n_supersteps-1``.
    n_cores:
        Number of cores the schedule targets.
    """

    __slots__ = ("cores", "supersteps", "n_cores")

    def __init__(
        self, cores: np.ndarray, supersteps: np.ndarray, n_cores: int
    ) -> None:
        self.cores = np.asarray(cores, dtype=np.int64).copy()
        self.supersteps = np.asarray(supersteps, dtype=np.int64).copy()
        self.n_cores = int(n_cores)
        if self.cores.shape != self.supersteps.shape or self.cores.ndim != 1:
            raise ConfigurationError("cores/supersteps must be equal-length 1-D")
        if self.n_cores < 1:
            raise ConfigurationError("n_cores must be >= 1")
        if self.cores.size:
            if self.cores.min() < 0 or self.cores.max() >= self.n_cores:
                raise ConfigurationError("core id out of range")
            if self.supersteps.min() < 0:
                raise ConfigurationError("supersteps must be non-negative")
            self._normalize()

    def _normalize(self) -> None:
        """Renumber supersteps densely as ``0..S-1`` preserving order."""
        # the distinct values by a sort and a neighbour mask: np.unique
        # may take a hash path that is several times slower on int64
        ordered = np.sort(self.supersteps)
        first = np.ones(ordered.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        used = ordered[first]
        if used.size and (used[0] != 0 or used[-1] != used.size - 1):
            remap = np.searchsorted(used, self.supersteps)
            self.supersteps = remap.astype(np.int64)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of scheduled vertices."""
        return int(self.cores.size)

    @property
    def n_supersteps(self) -> int:
        """Number of supersteps (== synchronization barriers + 1 trailing)."""
        if self.cores.size == 0:
            return 0
        return int(self.supersteps.max()) + 1

    @property
    def n_barriers(self) -> int:
        """Synchronization barriers between supersteps (``S - 1``)."""
        return max(self.n_supersteps - 1, 0)

    # ------------------------------------------------------------------
    # validity (Definition 2.1)
    # ------------------------------------------------------------------
    def validate(self, dag: DAG) -> None:
        """Raise :class:`InvalidScheduleError` unless valid for ``dag``."""
        if self.n != dag.n:
            raise InvalidScheduleError(
                f"schedule covers {self.n} vertices, DAG has {dag.n}"
            )
        src, dst = dag.edges()
        if src.size == 0:
            return
        s_u, s_v = self.supersteps[src], self.supersteps[dst]
        if np.any(s_u > s_v):
            bad = int(np.nonzero(s_u > s_v)[0][0])
            raise InvalidScheduleError(
                f"edge ({src[bad]}, {dst[bad]}): superstep decreases "
                f"({s_u[bad]} > {s_v[bad]})"
            )
        cross = self.cores[src] != self.cores[dst]
        if np.any(cross & (s_u == s_v)):
            bad = int(np.nonzero(cross & (s_u == s_v))[0][0])
            raise InvalidScheduleError(
                f"edge ({src[bad]}, {dst[bad]}): crosses cores within "
                f"superstep {s_u[bad]}"
            )

    def is_valid(self, dag: DAG) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(dag)
            return True
        except InvalidScheduleError:
            return False

    # ------------------------------------------------------------------
    # work distribution
    # ------------------------------------------------------------------
    def work_matrix(self, dag: DAG) -> np.ndarray:
        """``(n_supersteps, n_cores)`` array of summed vertex weights."""
        out = np.zeros((self.n_supersteps, self.n_cores), dtype=np.int64)
        np.add.at(out, (self.supersteps, self.cores), dag.weights)
        return out

    def superstep_imbalance(self, dag: DAG) -> np.ndarray:
        """Per-superstep ``max_p W_p / mean_p W_p`` (1.0 = perfectly even)."""
        w = self.work_matrix(dag).astype(np.float64)
        mean = w.mean(axis=1)
        mean[mean == 0.0] = 1.0
        return w.max(axis=1) / mean

    def bsp_cost(self, dag: DAG, barrier_cost: float) -> float:
        """Abstract BSP cost: ``sum_s max_p W(s, p) + barriers * L``.

        This is the objective the paper's parallelization score (Eq. 3.1)
        optimizes locally; the machine simulator refines it with cache
        effects.
        """
        w = self.work_matrix(dag)
        return float(w.max(axis=1).sum() + self.n_barriers * barrier_cost)

    # ------------------------------------------------------------------
    # execution layout
    # ------------------------------------------------------------------
    def execution_lists(self, *, order_hint: np.ndarray | None = None
                        ) -> list[list[np.ndarray]]:
        """Vertices grouped as ``[superstep][core] -> sorted vertex array``.

        Vertices within a (superstep, core) cell are sorted by ``order_hint``
        (default: vertex id, which is a topological order for SpTRSV DAGs of
        lower-triangular matrices).
        """
        key = (
            np.arange(self.n, dtype=np.int64)
            if order_hint is None
            else np.asarray(order_hint, dtype=np.int64)
        )
        order = np.lexsort((key, self.cores, self.supersteps))
        steps = self.supersteps[order]
        cores = self.cores[order]
        out: list[list[np.ndarray]] = []
        for s in range(self.n_supersteps):
            lo = np.searchsorted(steps, s)
            hi = np.searchsorted(steps, s + 1)
            row: list[np.ndarray] = []
            for p in range(self.n_cores):
                plo = lo + np.searchsorted(cores[lo:hi], p)
                phi = lo + np.searchsorted(cores[lo:hi], p + 1)
                row.append(order[plo:phi])
            out.append(row)
        return out

    def core_sequences(self) -> list[np.ndarray]:
        """Per-core execution sequence across all supersteps, in
        (superstep, vertex-id) order."""
        out: list[np.ndarray] = []
        for p in range(self.n_cores):
            mine = np.nonzero(self.cores == p)[0]
            order = np.lexsort((mine, self.supersteps[mine]))
            out.append(mine[order])
        return out

    def reorder_vertices(self, perm: np.ndarray) -> "Schedule":
        """Schedule for the relabelled DAG: new vertex ``perm[v]`` inherits
        the assignment of old vertex ``v``."""
        p = np.asarray(perm, dtype=np.int64)
        cores = np.empty_like(self.cores)
        steps = np.empty_like(self.supersteps)
        cores[p] = self.cores
        steps[p] = self.supersteps
        return Schedule(cores, steps, self.n_cores)

    def __repr__(self) -> str:
        return (
            f"Schedule(n={self.n}, n_cores={self.n_cores}, "
            f"n_supersteps={self.n_supersteps})"
        )
