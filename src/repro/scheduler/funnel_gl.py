"""Funnel+GrowLocal composite scheduler ("Funnel+GL" in Tables 7.1-7.2).

Pipeline (Section 4.2): approximate transitive reduction (increases funnel
sizes), in-funnel coarsening with a weight cap, GrowLocal on the coarse DAG,
pull-back to the original vertices.  The paper finds this does not improve
solve time over plain GrowLocal but reduces both the scheduling time and
the number of barriers further (Section 7.3).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.coarsen.funnel import in_funnel_partition
from repro.graph.coarsen.pullback import pull_back_schedule
from repro.graph.coarsen.quotient import coarsen
from repro.graph.dag import DAG
from repro.graph.transitive import approximate_transitive_reduction
from repro.scheduler.base import Scheduler
from repro.scheduler.growlocal import GrowLocalScheduler
from repro.scheduler.schedule import Schedule

__all__ = ["FunnelGrowLocalScheduler"]


class FunnelGrowLocalScheduler(Scheduler):
    """GrowLocal on a funnel-coarsened DAG.

    Parameters
    ----------
    inner:
        The GrowLocal instance run on the coarse DAG (default configuration
        of the paper when ``None``).
    max_weight_factor:
        Funnel weight cap as a multiple of the average vertex weight; keeps
        the coarse DAG from collapsing (Section 4.2's size constraint).
    transitive_reduction:
        Remove long edges in triangles before coarsening (the paper's
        configuration; "this increases the likelihood of finding larger
        components").
    """

    name = "funnel+gl"
    reorders_by_default = True

    def __init__(
        self,
        inner: GrowLocalScheduler | None = None,
        *,
        max_weight_factor: float = 16.0,
        transitive_reduction: bool = True,
    ) -> None:
        if max_weight_factor <= 0:
            raise ConfigurationError("max_weight_factor must be positive")
        self.inner = inner if inner is not None else GrowLocalScheduler()
        self.max_weight_factor = float(max_weight_factor)
        self.transitive_reduction = bool(transitive_reduction)

    def schedule(self, dag: DAG, n_cores: int) -> Schedule:
        self._check_cores(n_cores)
        if dag.n == 0:
            empty = np.empty(0, dtype=np.int64)
            return Schedule(empty, empty.copy(), n_cores)
        work_dag = (
            approximate_transitive_reduction(dag)
            if self.transitive_reduction
            else dag
        )
        max_w = max(
            int(self.max_weight_factor * max(dag.weights.mean(), 1.0)), 1
        )
        part_of = in_funnel_partition(work_dag, max_weight=max_w)
        result = coarsen(work_dag, part_of)
        coarse_schedule = self.inner.schedule(result.coarse, n_cores)
        fine = pull_back_schedule(result, coarse_schedule)
        fine.validate(dag)  # defensive: must hold for the *original* DAG
        return fine
