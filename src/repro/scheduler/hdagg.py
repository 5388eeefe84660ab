"""HDagg baseline scheduler (Zarebavani et al., IPDPS 2022).

HDagg "develops efficient schedules by gluing together consecutive
wavefronts if and only if a balanced workload can still be maintained and by
pre-applying a DAG coarsening technique" (Section 1 of the paper).  This
reimplementation follows that description at the level the paper's
evaluation exercises:

1. coarsen the DAG with a funnel partition (the paper notes every in-tree —
   HDagg's aggregation unit — is an in-funnel, so funnels generalize it);
2. sweep wavefronts in order, accumulating consecutive levels into one
   superstep while the accumulated bundle remains *schedulable*: the weakly-
   connected components of the bundle's induced sub-DAG are packed whole
   onto cores (so no dependency crosses cores inside the superstep —
   HDagg's "hybrid aggregation of loop-carried dependence iterations"),
   every core receives work, and the load imbalance ``max / mean`` stays
   below a threshold;
3. pull the coarse schedule back to the original vertices.

The strictness of the balance criterion is what limits HDagg's gluing
(Table 7.2 reports only a 1.24x barrier reduction over plain wavefronts on
SuiteSparse); ``imbalance_threshold`` makes the criterion explicit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.coarsen.funnel import in_funnel_partition
from repro.graph.coarsen.pullback import pull_back_schedule
from repro.graph.coarsen.quotient import coarsen
from repro.graph.dag import DAG
from repro.graph.wavefront import wavefront_levels
from repro.scheduler.base import Scheduler
from repro.scheduler.schedule import Schedule
from repro.scheduler.wavefront_sched import balanced_contiguous_split
from repro.utils.arrays import segmented_gather

__all__ = ["HDaggScheduler"]


class _DSU:
    """Union-find with union by size (used for bundle components).

    The forest lives in Python lists: every operation touches single
    entries, which lists index faster than numpy scalars."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def reset(self, members: np.ndarray) -> None:
        for v in members.tolist():
            self.parent[v] = v
            self.size[v] = 1


class HDaggScheduler(Scheduler):
    """HDagg: coarsening + balance-bounded wavefront gluing.

    Parameters
    ----------
    imbalance_threshold:
        Maximum allowed ``max_p W_p / mean_p W_p`` of a glued superstep.
        Small values (the default 1.1 means at most 10% above the mean)
        reproduce HDagg's characteristic reluctance to glue.
    use_coarsening:
        Apply funnel coarsening first (HDagg's default configuration).
    coarsen_max_weight:
        Weight cap per funnel; ``None`` derives one from the average vertex
        weight so coarsening merges small chains without swallowing levels.
    """

    name = "hdagg"

    def __init__(
        self,
        *,
        imbalance_threshold: float = 1.1,
        use_coarsening: bool = True,
        coarsen_max_weight: int | None = None,
    ) -> None:
        if imbalance_threshold < 1.0:
            raise ConfigurationError("imbalance_threshold must be >= 1")
        self.imbalance_threshold = float(imbalance_threshold)
        self.use_coarsening = bool(use_coarsening)
        self.coarsen_max_weight = coarsen_max_weight

    # ------------------------------------------------------------------
    def schedule(self, dag: DAG, n_cores: int) -> Schedule:
        self._check_cores(n_cores)
        if dag.n == 0:
            empty = np.empty(0, dtype=np.int64)
            return Schedule(empty, empty.copy(), n_cores)

        if self.use_coarsening:
            max_w = self.coarsen_max_weight
            if max_w is None:
                avg_w = max(int(dag.weights.mean()), 1)
                max_w = 8 * avg_w
            part_of = in_funnel_partition(dag, max_weight=max_w)
            result = coarsen(dag, part_of)
            coarse_schedule = self._schedule_flat(result.coarse, n_cores)
            fine = pull_back_schedule(result, coarse_schedule)
            return fine
        return self._schedule_flat(dag, n_cores)

    # ------------------------------------------------------------------
    def _schedule_flat(self, dag: DAG, n_cores: int) -> Schedule:
        """Wavefront gluing with component-wise core assignment."""
        level = wavefront_levels(dag)
        n_levels = int(level.max()) + 1 if dag.n else 0
        # a stable sort lists each level in ascending id
        order = np.argsort(level, kind="stable")
        bounds = np.searchsorted(level[order], np.arange(n_levels + 1))
        levels = [order[bounds[k]:bounds[k + 1]] for k in range(n_levels)]

        cores = np.zeros(dag.n, dtype=np.int64)
        sigma = np.zeros(dag.n, dtype=np.int64)
        weights = dag.weights
        dsu = _DSU(dag.n)
        in_bundle = np.zeros(dag.n, dtype=bool)

        superstep = 0
        bundle_members: list[np.ndarray] = []
        prev_assignment: tuple[np.ndarray, np.ndarray] | None = None

        def union_level(members: np.ndarray) -> None:
            """Union new level members with their in-bundle parents."""
            starts = dag.parent_ptr[members]
            counts = dag.parent_ptr[members + 1] - starts
            us = dag.parent_idx[segmented_gather(starts, counts)]
            vs = np.repeat(members, counts)
            inside = in_bundle[us]
            for u, v in zip(us[inside].tolist(), vs[inside].tolist()):
                dsu.union(u, v)

        for members in levels:
            in_bundle[members] = True
            union_level(members)
            bundle_members.append(members)
            candidate = np.concatenate(bundle_members)
            assignment = self._try_pack(candidate, weights, dsu, n_cores)
            if assignment is not None:
                prev_assignment = assignment
                continue
            # flush: commit everything except the level that broke balance
            if len(bundle_members) > 1 and prev_assignment is not None:
                committed = prev_assignment[0]
                cores[committed] = prev_assignment[1]
                sigma[committed] = superstep
                superstep += 1
                in_bundle[committed] = False
                dsu.reset(members)  # restart components from this level
                bundle_members = [members]
                candidate = members
                assignment = self._try_pack(candidate, weights, dsu, n_cores)
            if assignment is None:
                # the level alone is unbalanced; it still becomes its own
                # superstep with a best-effort component packing
                assignment = self._pack(candidate, weights, dsu, n_cores)
                cores[assignment[0]] = assignment[1]
                sigma[assignment[0]] = superstep
                superstep += 1
                in_bundle[candidate] = False
                dsu.reset(candidate)
                bundle_members = []
                prev_assignment = None
            else:
                prev_assignment = assignment

        if bundle_members:
            remaining = np.concatenate(bundle_members)
            if prev_assignment is None or prev_assignment[0].size != remaining.size:
                prev_assignment = self._pack(remaining, weights, dsu, n_cores)
            cores[prev_assignment[0]] = prev_assignment[1]
            sigma[prev_assignment[0]] = superstep
        return Schedule(cores, sigma, n_cores)

    # ------------------------------------------------------------------
    def _pack(
        self,
        members: np.ndarray,
        weights: np.ndarray,
        dsu: _DSU,
        n_cores: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pack the bundle's components onto cores, components whole.

        Components are ordered by their smallest vertex id (locality) and
        split contiguously by weight.  Returns ``(members, core_of_member)``
        aligned with ``members``.
        """
        members = np.sort(members)
        # number components by first appearance, i.e. by smallest id
        comp_id: dict[int, int] = {}
        find = dsu.find
        comp_of = np.array(
            [comp_id.setdefault(find(v), len(comp_id))
             for v in members.tolist()],
            dtype=np.int64,
        )
        comp_weight = np.bincount(comp_of, weights=weights[members])
        split_of_comp = balanced_contiguous_split(comp_weight, n_cores)
        return members, split_of_comp[comp_of]

    def _try_pack(
        self,
        members: np.ndarray,
        weights: np.ndarray,
        dsu: _DSU,
        n_cores: int,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Pack and test the balance criterion; ``None`` when violated."""
        packed_members, core_of = self._pack(members, weights, dsu, n_cores)
        loads = np.bincount(core_of, weights=weights[packed_members],
                            minlength=n_cores)
        if np.any(loads == 0.0):
            return None
        if float(loads.max() / loads.mean()) > self.imbalance_threshold:
            return None
        return packed_members, core_of
