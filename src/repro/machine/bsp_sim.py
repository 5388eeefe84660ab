"""Synchronous (BSP) execution simulator.

Executes a barrier schedule on the machine model:

    T = sum over supersteps s of  max_p T(s, p)   +   (S - 1) * L_arch

where ``T(s, p)`` sums the per-row costs (compute + cache) of the rows core
``p`` executes in superstep ``s``, with per-core cache state persisting
across supersteps, and ``L_arch`` is the machine's barrier cost at the
number of cores that ever receive work.

Costing runs on the shared kernel of :mod:`repro.machine.cost` (one
implementation for the BSP, asynchronous, serial and trace simulators),
which prices the schedule's own per-core sequences and superstep map:
simulating compiles nothing.

This is the measurement model behind Tables 7.1/7.3/7.4/7.5 and
Figures 1.2/7.1/7.2.
"""

from __future__ import annotations

import numpy as np

from repro.machine.cost import bsp_cost_matrix
from repro.machine.model import MachineModel
from repro.machine.serial_sim import simulate_serial
from repro.matrix.csr import CSRMatrix
from repro.scheduler.schedule import Schedule

__all__ = ["BSPSimResult", "simulate_bsp"]


class BSPSimResult:
    """Outcome of a synchronous execution simulation.

    Attributes
    ----------
    total_cycles:
        End-to-end simulated time.
    compute_cycles:
        ``sum_s max_p T(s, p)`` (the critical compute path).
    barrier_cycles:
        Total barrier cost.
    superstep_cycles:
        Per-superstep ``max_p T(s, p)`` array.
    core_busy_cycles:
        Per-core total busy time (for utilization analyses).
    n_supersteps:
        Superstep count of the schedule.
    """

    __slots__ = (
        "total_cycles",
        "compute_cycles",
        "barrier_cycles",
        "superstep_cycles",
        "core_busy_cycles",
        "n_supersteps",
    )

    def __init__(
        self,
        total_cycles: float,
        compute_cycles: float,
        barrier_cycles: float,
        superstep_cycles: np.ndarray,
        core_busy_cycles: np.ndarray,
        n_supersteps: int,
    ) -> None:
        self.total_cycles = total_cycles
        self.compute_cycles = compute_cycles
        self.barrier_cycles = barrier_cycles
        self.superstep_cycles = superstep_cycles
        self.core_busy_cycles = core_busy_cycles
        self.n_supersteps = n_supersteps

    def speedup_over(self, serial_cycles: float) -> float:
        """Speed-up relative to a serial execution time."""
        return serial_cycles / self.total_cycles

    def __repr__(self) -> str:
        return (
            f"BSPSimResult(total={self.total_cycles:.0f}, "
            f"supersteps={self.n_supersteps})"
        )


def simulate_bsp(
    lower: CSRMatrix,
    schedule: Schedule,
    machine: MachineModel,
) -> BSPSimResult:
    """Simulate the synchronous execution of ``schedule`` on ``machine``.

    ``schedule`` must be valid for ``lower``'s DAG
    (:meth:`~repro.scheduler.schedule.Schedule.validate`); it is not
    checked here, and a racing schedule is priced as if it were valid.
    Callers pricing a schedule from outside the library validate first,
    as ``repro simulate`` does.
    """
    n_steps = schedule.n_supersteps
    step_core, core_busy, active_cores = bsp_cost_matrix(
        lower, schedule, machine
    )

    superstep_cycles = step_core.max(axis=1)
    compute = float(superstep_cycles.sum())
    barrier = machine.barrier_cost(max(active_cores, 1)) * max(
        n_steps - 1, 0
    )
    return BSPSimResult(
        total_cycles=compute + barrier,
        compute_cycles=compute,
        barrier_cycles=barrier,
        superstep_cycles=superstep_cycles,
        core_busy_cycles=core_busy,
        n_supersteps=n_steps,
    )


def simulate_speedup(
    lower: CSRMatrix,
    schedule: Schedule,
    machine: MachineModel,
) -> float:
    """Convenience: speed-up of ``schedule`` over the serial execution."""
    return simulate_bsp(lower, schedule, machine).speedup_over(
        simulate_serial(lower, machine)
    )
