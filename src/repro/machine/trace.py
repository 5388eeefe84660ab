"""Execution traces and utilization analysis of simulated runs.

Beyond the headline numbers, understanding *why* a schedule is slow needs
per-superstep detail: which cores idled, where the critical path ran, how
much of the time went to barriers versus imbalance versus cache misses.
This module produces structured traces from the BSP simulator plus a
plain-text Gantt rendering for terminals and docs.
"""

from __future__ import annotations

import numpy as np

from repro.machine.cost import bsp_cost_matrix
from repro.machine.model import MachineModel
from repro.matrix.csr import CSRMatrix
from repro.scheduler.schedule import Schedule

__all__ = ["ExecutionTrace", "trace_bsp", "render_gantt"]


class ExecutionTrace:
    """Per-superstep, per-core busy times of a simulated BSP execution.

    Attributes
    ----------
    busy:
        ``(n_supersteps, n_cores)`` busy cycles.
    superstep_cycles:
        Per-superstep makespan (``busy.max(axis=1)``).
    barrier_cost:
        Cycles charged per barrier.
    """

    __slots__ = ("busy", "superstep_cycles", "barrier_cost")

    def __init__(self, busy: np.ndarray, barrier_cost: float) -> None:
        self.busy = busy
        self.superstep_cycles = (
            busy.max(axis=1) if busy.size else np.zeros(0)
        )
        self.barrier_cost = barrier_cost

    @property
    def n_supersteps(self) -> int:
        return int(self.busy.shape[0])

    @property
    def n_cores(self) -> int:
        return int(self.busy.shape[1])

    @property
    def total_cycles(self) -> float:
        return float(
            self.superstep_cycles.sum()
            + self.barrier_cost * max(self.n_supersteps - 1, 0)
        )

    def utilization(self) -> float:
        """Fraction of core-time spent busy: ``sum(busy) / (P * T)``."""
        if self.total_cycles == 0.0 or self.n_cores == 0:
            return 1.0
        return float(self.busy.sum()
                     / (self.n_cores * self.total_cycles))

    def idle_fraction_per_core(self) -> np.ndarray:
        """Per-core idle fraction of the compute (non-barrier) time."""
        compute = self.superstep_cycles.sum()
        if compute == 0.0:
            return np.zeros(self.n_cores)
        return 1.0 - self.busy.sum(axis=0) / compute

    def imbalance_cycles(self) -> float:
        """Cycles lost to intra-superstep imbalance:
        ``sum_s (max_p - mean_p)``."""
        if self.busy.size == 0:
            return 0.0
        return float(
            (self.superstep_cycles - self.busy.mean(axis=1)).sum()
        )

    def barrier_cycles(self) -> float:
        return self.barrier_cost * max(self.n_supersteps - 1, 0)


def trace_bsp(
    lower: CSRMatrix,
    schedule: Schedule,
    machine: MachineModel,
) -> ExecutionTrace:
    """Build an :class:`ExecutionTrace` for a synchronous execution.

    Shares the cost kernel (:mod:`repro.machine.cost`) with the
    simulators, so trace totals agree with :func:`simulate_bsp` exactly.
    """
    busy, _, active = bsp_cost_matrix(lower, schedule, machine)
    return ExecutionTrace(busy, machine.barrier_cost(max(active, 1)))


def render_gantt(
    trace: ExecutionTrace,
    *,
    width: int = 60,
    max_supersteps: int = 24,
) -> str:
    """Plain-text Gantt chart: one row per core, one column band per
    superstep, fill proportional to the core's busy share of the
    superstep makespan."""
    n_steps = min(trace.n_supersteps, max_supersteps)
    if n_steps == 0:
        return "(empty trace)"
    total = trace.superstep_cycles[:n_steps].sum()
    if total <= 0.0:
        return "(zero-length trace)"
    # band width proportional to superstep makespan
    bands = np.maximum(
        (trace.superstep_cycles[:n_steps] / total * width).astype(int), 1
    )
    lines = []
    for p in range(trace.n_cores):
        cells = []
        for s in range(n_steps):
            peak = trace.superstep_cycles[s]
            share = trace.busy[s, p] / peak if peak > 0 else 0.0
            fill = int(round(share * bands[s]))
            cells.append("#" * fill + "." * (int(bands[s]) - fill))
        lines.append(f"core {p:3d} |" + "|".join(cells) + "|")
    suffix = (
        f"\n(first {n_steps} of {trace.n_supersteps} supersteps; "
        f"utilization {trace.utilization():.0%})"
    )
    return "\n".join(lines) + suffix
