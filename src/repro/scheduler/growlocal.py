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
  superstep as a sorted list walked by a cursor.  Every entry before the
  cursor was assigned, none after it.
* The per-vertex state is read and written one vertex at a time, so it
  lives in Python lists rather than numpy arrays (scalar list access is
  several times cheaper than numpy scalar indexing), and the child lists
  are sliced once per :meth:`GrowLocalScheduler.schedule` call.  They are
  tuples, built with automatic garbage collection paused: each of the
  ``n`` allocations would otherwise count towards the collector's
  thresholds and set off about ``n / 700`` collections, some of them full
  collections whose cost grows with the whole process heap; paused, the
  collector runs once afterwards, and that pass drops the tuples of ints
  from its view.
  :meth:`GrowLocalScheduler._iterate` does the tentative assignments
  (130,048 for the 31,350 vertices of the benchmark's paper-cold seed 0)
  in one inlined loop, with two invariants:

  - a child of a tentatively assigned vertex is never finalized (it has
    a parent that is not), so no finalized test is needed;
  - a vertex is ready within the superstep when its tentatively assigned
    parents number its remaining unfinalized parents,
    ``tent_done[c] == remaining[c]``.
* A vertex is pushed on the min-heap (by id) of core ``p`` once, when it
  becomes ready with every tentatively assigned parent on ``p``.  It then
  has no unassigned parent left, so it cannot become blocked and every
  heap entry is still valid when popped.
* Each iteration tags its cores with numbers above every earlier
  iteration's, and a vertex's scratch entry records the tag of its
  tentative parents' core, so an entry left by an earlier iteration reads
  as untouched and nothing is reset between iterations.
* Core weights are sums of integer vertex weights kept in Python floats,
  exact below ``2**53``, so ``beta`` is the value Eq. 3.1 gives in any
  summation order.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.dag import DAG
from repro.scheduler.base import Scheduler
from repro.scheduler.schedule import Schedule

__all__ = ["GrowLocalScheduler"]


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

        # core weights are sums of integer weights, exact in floats
        weights = dag.weights.astype(np.float64).tolist()
        child_ptr, child_idx = dag.child_ptr.tolist(), dag.child_idx.tolist()
        # see the implementation notes
        collecting = gc.isenabled()
        gc.disable()
        try:
            children = [
                tuple(child_idx[lo:hi])
                for lo, hi in zip(child_ptr, child_ptr[1:], strict=False)
            ]
        finally:
            if collecting:
                gc.enable()

        pi = [-1] * n  # also marks finalized vertices
        sigma = [-1] * n

        # parents not yet finalized; a vertex is "free" when this hits 0
        remaining = dag.in_degrees().tolist()
        free_sorted = [v for v in range(n) if remaining[v] == 0]

        # iteration scratch, see _iterate
        tent_done = [0] * n
        owner = [-1] * n
        tags = itertools.count(0, n_cores + 1)

        n_assigned = 0
        superstep = 0
        while n_assigned < n:
            verts, ends, free_used = self._form_superstep(
                n_cores, weights, children, remaining, free_sorted,
                tent_done, owner, tags,
            )
            if not verts:  # no ready vertex: cannot happen on a DAG
                raise ConfigurationError("deadlock: graph has a cycle?")

            # finalize: commit assignments, update readiness
            for p in range(n_cores):
                for v in verts[ends[p]:ends[p + 1]]:
                    pi[v] = p
                    sigma[v] = superstep
            newly_ready: list[int] = []
            for v in verts:
                for c in children[v]:
                    left = remaining[c] - 1
                    remaining[c] = left
                    # children assigned in this very superstep (via the
                    # exclusivity rule) are already finalized - skip them
                    if left == 0 and pi[c] < 0:
                        newly_ready.append(c)
            n_assigned += len(verts)
            superstep += 1

            # the free list: the unconsumed old frees + the newly ready
            leftovers = free_sorted[free_used:]
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
        weights: list[float],
        children: list[tuple[int, ...]],
        remaining: list[int],
        free_sorted: list[int],
        tent_done: list[int],
        owner: list[int],
        tags: Iterator[int],
    ) -> tuple[list[int], list[int], int]:
        """Run the inner iteration loop; return the finalized assignment
        (as :meth:`_iterate` lays it out) and how many free-list entries
        it consumed."""
        alpha = float(self.alpha0)
        if self.adaptive_alpha0:
            alpha = float(
                min(self.alpha0, max(1, len(free_sorted) // n_cores))
            )
        best_beta = -math.inf
        last_beta = -math.inf  # beta of the last *accepted* iteration
        best: tuple[list[int], list[int], int] = ([], [], 0)
        prev_size = -1

        prev_alpha_int = 0
        while True:
            alpha_int = max(int(alpha), prev_alpha_int + 1)
            verts, ends, free_used, exhausted, total, heaviest = self._iterate(
                alpha_int, n_cores, weights, children, remaining,
                free_sorted, tent_done, owner, next(tags),
            )
            beta = total / (heaviest + self.sync_penalty)

            first = not best[0]
            worthy = first or (
                beta >= self.acceptance * best_beta
                and beta >= (1.0 + self.min_improvement) * last_beta
            )
            if worthy:
                best = (verts, ends, free_used)
                best_beta = max(best_beta, beta)
                last_beta = beta
                # stop when nothing is left to grow into, or growing alpha
                # no longer adds vertices (a deterministic fixed point)
                if exhausted or len(verts) == prev_size:
                    break
                prev_size = len(verts)
                prev_alpha_int = alpha_int
                alpha = max(alpha * self.growth, alpha_int + 1.0)
            else:
                break  # last worthy assignment becomes the superstep
        return best

    # ------------------------------------------------------------------
    @staticmethod
    def _iterate(
        alpha: int,
        n_cores: int,
        weights: list[float],
        children: list[tuple[int, ...]],
        remaining: list[int],
        free_sorted: list[int],
        tent_done: list[int],
        owner: list[int],
        first_tag: int,
    ) -> tuple[list[int], list[int], int, bool, float, float]:
        """One iteration with parameter ``alpha``.

        Core ``p`` is tagged ``first_tag + p``; ``owner[c]`` holds the tag
        of the core of ``c``'s first tentatively assigned parent, or
        ``first_tag + n_cores`` once a parent lands on another core
        (blocked), and ``tent_done[c]`` counts those parents.  An
        ``owner`` below ``first_tag`` is left from an earlier iteration
        and means no parent yet.

        Returns ``(verts, ends, free_used, exhausted, total, heaviest)``:
        the assigned vertices core by core (core ``p``'s are
        ``verts[ends[p]:ends[p + 1]]``), the free-list entries consumed,
        whether every core ran out of assignable vertices, and the total
        and the largest core weight.
        """
        heappop, heappush = heapq.heappop, heapq.heappush
        verts: list[int] = []
        ends = [0]
        assign = verts.append
        free_cursor = 0
        n_free = len(free_sorted)
        exhausted = True
        omega1 = total = heaviest = 0.0
        blocked = first_tag + n_cores
        for p in range(n_cores):
            heap: list[int] = []  # ready vertices exclusive to p, by id
            tag = first_tag + p
            omega = 0.0
            count = 0
            # core 0 takes up to alpha vertices, each further core
            # vertices until its weight reaches core 0's
            while (count < alpha) if p == 0 else (omega < omega1):
                # Rule I: exclusive-to-p first, then smallest-ID free
                if heap:
                    v = heappop(heap)
                elif free_cursor < n_free:
                    v = free_sorted[free_cursor]
                    free_cursor += 1
                else:
                    break
                assign(v)
                count += 1
                omega += weights[v]
                for c in children[v]:
                    tagged = owner[c]
                    if tagged < first_tag:  # first tentative parent
                        owner[c] = tag
                        done = 1
                    elif tagged == tag:
                        done = tent_done[c] + 1
                    else:  # never ready for one core: stop counting
                        owner[c] = blocked
                        continue
                    tent_done[c] = done
                    if done == remaining[c]:  # ready, exclusive to p
                        heappush(heap, c)
            else:
                if p == 0 or omega1 > 0:
                    exhausted = False
            ends.append(len(verts))
            if p == 0:
                omega1 = omega
            total += omega
            if omega > heaviest:
                heaviest = omega
        return verts, ends, free_cursor, exhausted, total, heaviest
