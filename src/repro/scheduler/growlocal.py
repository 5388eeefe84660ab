"""The GrowLocal scheduler — Algorithm 3.1 of the paper.

GrowLocal forms supersteps one by one, each through *iterations* with a
growing length parameter ``alpha``:

1. assign up to ``alpha`` ready vertices to core 0 (Rule I), total weight
   ``Omega_1``;
2. fill each further core with ready vertices until its weight reaches
   ``Omega_1``;
3. score the iteration with the parallelization score
   ``beta = sum_p Omega_p / (max_p Omega_p + L)`` (Eq. 3.1);
4. if ``beta`` is within a factor (0.97, Appendix B) of the best score
   observed in this superstep, the iteration is *worthy*: save it, undo the
   assignments, grow ``alpha`` by 1.5x and try again; otherwise finalize the
   last worthy iteration as the superstep.  The first iteration
   (``alpha = 20``) is always worthy.

Rule I (vertex selection for core ``p``): prefer vertices *exclusively*
computable on ``p`` in this superstep — all parents finalized in earlier
supersteps except at least one assigned to ``p`` in the current iteration —
then fall back to the smallest-ID *free* vertex (all parents finalized
before the superstep).  ID-based selection keeps per-core blocks of
consecutive rows, the locality property Section 3 highlights.

Complexity is ``O(|E| log |V|)`` under the assumptions of Theorem 3.1: the
iteration sizes form a geometric series, so speculative assignments total a
constant factor of the finalized superstep size.

Implementation notes
--------------------
* The set of *free* vertices (all parents finalized) is static during a
  superstep — tentative assignments can only produce *exclusive* or
  *blocked* vertices, never free ones — so it is materialized once per
  superstep as a sorted list walked by a cursor.
* The per-vertex state is read and written one vertex at a time, so it
  lives in Python lists rather than numpy arrays (scalar list access is
  several times cheaper than numpy scalar indexing).
* Exclusive vertices are kept in per-core min-heaps keyed by vertex id;
  entries are invalidated lazily when a vertex becomes blocked (a second
  parent lands on a different core).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.dag import DAG
from repro.scheduler.base import Scheduler
from repro.scheduler.schedule import Schedule

__all__ = ["GrowLocalScheduler"]

_BLOCKED = -2
_NONE = -1


class GrowLocalScheduler(Scheduler):
    """GrowLocal barrier scheduler (Section 3).

    Parameters
    ----------
    sync_penalty:
        The parameter ``L`` of Eq. 3.1 — the time cost of a synchronization
        barrier in vertex-weight units.  The paper uses ``L = 500``
        (footnote 1, Appendix C.2).
    alpha0:
        Initial superstep length parameter (paper: 20).
    growth:
        Multiplicative ``alpha`` growth per iteration (paper: 1.5).
    acceptance:
        Worthiness factor: an iteration is accepted while its score is at
        least ``acceptance`` times the best score observed in the current
        superstep (paper/Appendix B: 0.97).
    min_improvement:
        Additional acceptance requirement: growing ``alpha`` must improve
        ``beta`` by at least this relative amount over the last accepted
        iteration.  The literal Appendix-B rule (``min_improvement = 0``)
        never terminates a superstep whose score increases monotonically —
        which it does on single-source DAGs (e.g. grid Laplacians like
        ``ecology2``), where core-exclusivity would let core 0 swallow the
        entire DAG in one serial superstep.  Since ``beta`` approaches its
        ceiling hyperbolically, a small improvement floor stops growth once
        a superstep holds roughly ``10 L`` weight per busy core, preserving
        the intended "grow while parallelization is sufficient" dynamics in
        the balanced regime and preventing the degenerate one.  Set to 0 to
        reproduce the literal rule in ablations.
    adaptive_alpha0:
        Scale the first iteration's length to ``ready_count / n_cores``
        (clamped to ``[1, alpha0]``).  The paper's fixed ``alpha0 = 20``
        assumes frontiers of several hundred vertices (its matrices are
        25-50x larger than the proxies used here); when the ready set is
        narrower than ``n_cores * alpha0``, a fixed floor hands the whole
        frontier to the first few cores and starves the rest before the
        score can react.  With wide frontiers this option is a no-op, so
        it coincides with the paper's configuration at the paper's scale.
    """

    name = "growlocal"
    reorders_by_default = True

    def __init__(
        self,
        *,
        sync_penalty: float = 500.0,
        alpha0: int = 20,
        growth: float = 1.5,
        acceptance: float = 0.97,
        min_improvement: float = 0.03,
        adaptive_alpha0: bool = True,
    ) -> None:
        if sync_penalty < 0:
            raise ConfigurationError("sync_penalty must be non-negative")
        if alpha0 < 1:
            raise ConfigurationError("alpha0 must be >= 1")
        if growth <= 1.0:
            raise ConfigurationError("growth factor must exceed 1")
        if not (0.0 < acceptance <= 1.0):
            raise ConfigurationError("acceptance must lie in (0, 1]")
        if min_improvement < 0.0:
            raise ConfigurationError("min_improvement must be >= 0")
        self.sync_penalty = float(sync_penalty)
        self.alpha0 = int(alpha0)
        self.growth = float(growth)
        self.acceptance = float(acceptance)
        self.min_improvement = float(min_improvement)
        self.adaptive_alpha0 = bool(adaptive_alpha0)

    # ------------------------------------------------------------------
    def schedule(self, dag: DAG, n_cores: int) -> Schedule:
        self._check_cores(n_cores)
        n = dag.n
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return Schedule(empty, empty.copy(), n_cores)

        weights = dag.weights.tolist()
        in_deg = dag.in_degrees().tolist()
        child_ptr, child_idx = dag.child_ptr.tolist(), dag.child_idx.tolist()

        pi = [-1] * n
        sigma = [-1] * n

        # parents not yet finalized; a vertex is "free" when this hits 0
        remaining = list(in_deg)
        finalized = [False] * n
        free_sorted = [v for v in range(n) if in_deg[v] == 0]

        # iteration-scratch state (reset via touched lists, O(iteration))
        tent_core = [_NONE] * n
        tent_done = [0] * n  # tentatively-satisfied deps
        excl_core = [_NONE] * n

        n_assigned = 0
        superstep = 0
        while n_assigned < n:
            best_assignment, free_used = self._form_superstep(
                n_cores,
                weights,
                in_deg,
                child_ptr,
                child_idx,
                remaining,
                finalized,
                free_sorted,
                tent_core,
                tent_done,
                excl_core,
            )
            if not best_assignment:  # no ready vertex: cannot happen on a DAG
                raise ConfigurationError("deadlock: graph has a cycle?")

            # finalize: commit assignments, update readiness
            newly_ready: list[int] = []
            for v, p in best_assignment:
                pi[v] = p
                sigma[v] = superstep
                finalized[v] = True
            for v, _ in best_assignment:
                for c in child_idx[child_ptr[v]:child_ptr[v + 1]]:
                    remaining[c] -= 1
                    # children assigned in this very superstep (via the
                    # exclusivity rule) are already finalized - skip them
                    if remaining[c] == 0 and not finalized[c]:
                        newly_ready.append(c)
            n_assigned += len(best_assignment)
            superstep += 1

            # rebuild the free list: unconsumed old frees + newly ready
            leftovers = [
                v for v in free_sorted[free_used:] if not finalized[v]
            ]
            free_sorted = (sorted(leftovers + newly_ready) if newly_ready
                           else leftovers)

        return Schedule(
            np.array(pi, dtype=np.int64), np.array(sigma, dtype=np.int64),
            n_cores,
        )

    # ------------------------------------------------------------------
    def _form_superstep(
        self,
        n_cores: int,
        weights: list[int],
        in_deg: list[int],
        child_ptr: list[int],
        child_idx: list[int],
        remaining: list[int],
        finalized: list[bool],
        free_sorted: list[int],
        tent_core: list[int],
        tent_done: list[int],
        excl_core: list[int],
    ) -> tuple[list[tuple[int, int]], int]:
        """Run the inner iteration loop; return the finalized assignment
        (list of ``(vertex, core)``) and how many free-list entries it
        consumed."""
        alpha = float(self.alpha0)
        if self.adaptive_alpha0:
            alpha = float(
                min(self.alpha0, max(1, len(free_sorted) // n_cores))
            )
        best_beta = -np.inf
        last_beta = -np.inf  # beta of the last *accepted* iteration
        best_assignment: list[tuple[int, int]] = []
        best_free_used = 0
        prev_size = -1

        prev_alpha_int = 0
        while True:
            alpha_int = max(int(alpha), prev_alpha_int + 1)
            assignment, free_used, exhausted = self._iterate(
                alpha_int,
                n_cores,
                weights,
                in_deg,
                child_ptr,
                child_idx,
                remaining,
                finalized,
                free_sorted,
                tent_core,
                tent_done,
                excl_core,
            )
            omega = np.zeros(n_cores, dtype=np.float64)
            for v, p in assignment:
                omega[p] += weights[v]
            beta = omega.sum() / (omega.max() + self.sync_penalty)

            first = not best_assignment
            worthy = first or (
                beta >= self.acceptance * best_beta
                and beta >= (1.0 + self.min_improvement) * last_beta
            )
            if worthy:
                best_assignment = assignment
                best_free_used = free_used
                best_beta = max(best_beta, beta)
                last_beta = beta
                # stop when nothing is left to grow into, or growing alpha
                # no longer adds vertices (a deterministic fixed point)
                if exhausted or len(assignment) == prev_size:
                    break
                prev_size = len(assignment)
                prev_alpha_int = alpha_int
                alpha = max(alpha * self.growth, alpha_int + 1.0)
            else:
                break  # last worthy assignment becomes the superstep
        return best_assignment, best_free_used

    # ------------------------------------------------------------------
    def _iterate(
        self,
        alpha: int,
        n_cores: int,
        weights: list[int],
        in_deg: list[int],
        child_ptr: list[int],
        child_idx: list[int],
        remaining: list[int],
        finalized: list[bool],
        free_sorted: list[int],
        tent_core: list[int],
        tent_done: list[int],
        excl_core: list[int],
    ) -> tuple[list[tuple[int, int]], int, bool]:
        """One iteration with parameter ``alpha``.

        Returns ``(assignment, free_entries_consumed, exhausted)`` where
        ``exhausted`` means every core ran out of assignable vertices.
        """
        assignment: list[tuple[int, int]] = []
        touched: list[int] = []  # children whose tent state was modified
        excl_heaps: list[list[int]] = [[] for _ in range(n_cores)]
        free_cursor = 0
        n_free = len(free_sorted)
        exhausted = True

        def assign(v: int, p: int) -> None:
            nonlocal free_cursor
            tent_core[v] = p
            assignment.append((v, p))
            for c in child_idx[child_ptr[v]:child_ptr[v + 1]]:
                if finalized[c]:
                    continue
                if tent_done[c] == 0:
                    touched.append(c)
                tent_done[c] += 1
                if excl_core[c] == _NONE:
                    excl_core[c] = p
                elif excl_core[c] != p:
                    excl_core[c] = _BLOCKED
                # ready within this superstep, exclusive to p?
                if (
                    excl_core[c] == p
                    and tent_done[c] + (in_deg[c] - remaining[c]) == in_deg[c]
                ):
                    heapq.heappush(excl_heaps[p], c)

        def next_vertex(p: int) -> int:
            """Rule I: exclusive-to-p first, then smallest-ID free vertex."""
            nonlocal free_cursor
            heap = excl_heaps[p]
            while heap:
                c = heap[0]
                if tent_core[c] != _NONE or excl_core[c] != p:
                    heapq.heappop(heap)  # stale (assigned or blocked)
                    continue
                return heapq.heappop(heap)
            while free_cursor < n_free:
                v = free_sorted[free_cursor]
                if tent_core[v] != _NONE:
                    free_cursor += 1
                    continue
                free_cursor += 1
                return v
            return -1

        # core 0: up to alpha vertices
        omega1 = 0.0
        count = 0
        while count < alpha:
            v = next_vertex(0)
            if v < 0:
                break
            assign(v, 0)
            omega1 += float(weights[v])
            count += 1
        if count == alpha:
            exhausted = False

        # cores 1..k-1: fill up to weight omega1
        for p in range(1, n_cores):
            omega_p = 0.0
            while omega_p < omega1:
                v = next_vertex(p)
                if v < 0:
                    break
                assign(v, p)
                omega_p += float(weights[v])
            else:
                if omega1 > 0:
                    exhausted = False

        free_used = free_cursor
        # reset scratch state (O(iteration size))
        for v, _ in assignment:
            tent_core[v] = _NONE
        for c in touched:
            tent_done[c] = 0
            excl_core[c] = _NONE
        return assignment, free_used, exhausted
