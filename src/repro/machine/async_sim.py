"""Event-driven asynchronous execution simulator (SpMP's model).

SpMP executes the level-set schedule *asynchronously*: a core "moves onto
the next wavefront if and only if all requisites have already been met for
its portion of the next wavefront" (Section 1).  There are no global
barriers; instead a core busy-waits on the completion flags of exactly the
cross-core dependencies of its next row — in the transitively reduced DAG,
which is where SpMP's reduction pays off.

The simulation processes rows in an order consistent with both each core's
program order and the dependency order, computing

    start(v)  = max(core_clock(pi(v)),
                    max over cross-core deps u of finish(u) + p2p_latency)
    finish(v) = start(v) + row_cost(v) + p2p_check * #cross-core deps

with the same per-row costs (compute + cache) as the BSP simulator, from
the shared kernel of :mod:`repro.machine.cost`.  The makespan is the
maximum core clock.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dag import DAG
from repro.machine.cost import row_cost_and_position
from repro.machine.model import MachineModel
from repro.matrix.csr import CSRMatrix
from repro.scheduler.schedule import Schedule

__all__ = ["AsyncSimResult", "simulate_async"]


class AsyncSimResult:
    """Outcome of an asynchronous execution simulation.

    Attributes
    ----------
    total_cycles:
        Makespan (max core finish time).
    core_finish_cycles:
        Per-core finish times.
    wait_cycles:
        Total cycles cores spent stalled on cross-core dependencies.
    cross_core_deps:
        Number of dependency edges that crossed cores (the synchronization
        the transitive reduction removes).
    """

    __slots__ = (
        "total_cycles",
        "core_finish_cycles",
        "wait_cycles",
        "cross_core_deps",
    )

    def __init__(
        self,
        total_cycles: float,
        core_finish_cycles: np.ndarray,
        wait_cycles: float,
        cross_core_deps: int,
    ) -> None:
        self.total_cycles = total_cycles
        self.core_finish_cycles = core_finish_cycles
        self.wait_cycles = wait_cycles
        self.cross_core_deps = cross_core_deps

    def speedup_over(self, serial_cycles: float) -> float:
        """Speed-up relative to a serial execution time."""
        return serial_cycles / self.total_cycles

    def __repr__(self) -> str:
        return (
            f"AsyncSimResult(total={self.total_cycles:.0f}, "
            f"waits={self.wait_cycles:.0f})"
        )


def simulate_async(
    lower: CSRMatrix,
    schedule: Schedule,
    sync_dag: DAG,
    machine: MachineModel,
) -> AsyncSimResult:
    """Simulate asynchronous execution of ``schedule`` on ``machine``.

    ``schedule`` must be valid for ``lower``'s DAG
    (:meth:`~repro.scheduler.schedule.Schedule.validate`); it is not
    checked here, and a racing schedule is priced as if it were valid.

    Parameters
    ----------
    sync_dag:
        The DAG whose edges require synchronization — for SpMP, the
        transitively reduced DAG (fewer edges, fewer waits).  Must be a
        subgraph of the full dependence DAG covering its reachability.
    """
    n = schedule.n
    core_of = schedule.cores

    # per-core program order and per-row costs from the shared kernel
    cost, seq_pos = row_cost_and_position(lower, schedule, machine)

    # global processing order consistent with program order and deps:
    # (superstep, position within core) — deps sit in earlier supersteps
    # (or earlier on the same core), program order is per-core position.
    order = np.lexsort((seq_pos, schedule.supersteps))

    finish = np.zeros(n)
    core_clock = np.zeros(schedule.n_cores)
    wait_total = 0.0
    cross_total = 0

    parent_ptr, parent_idx = sync_dag.parent_ptr, sync_dag.parent_idx
    p2p_latency = machine.p2p_latency
    p2p_check = machine.p2p_check

    for v in order:
        v = int(v)
        p = int(core_of[v])
        ready = core_clock[p]
        n_cross = 0
        for k in range(parent_ptr[v], parent_ptr[v + 1]):
            u = int(parent_idx[k])
            if core_of[u] != p:
                n_cross += 1
                dep_ready = finish[u] + p2p_latency
                if dep_ready > ready:
                    ready = dep_ready
        wait_total += ready - core_clock[p]
        cross_total += n_cross
        finish[v] = ready + cost[v] + p2p_check * n_cross
        core_clock[p] = finish[v]

    return AsyncSimResult(
        total_cycles=float(core_clock.max()) if n else 0.0,
        core_finish_cycles=core_clock,
        wait_cycles=float(wait_total),
        cross_core_deps=int(cross_total),
    )
