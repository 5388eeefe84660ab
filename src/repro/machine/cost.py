"""The shared cost kernel of the machine simulators.

The BSP, asynchronous, serial and trace simulators all price the same
thing: each core's program-order row sequence under the reuse-distance
cache model of :mod:`repro.machine.cache`.  This module is the single
implementation they share.  It reads the
:class:`~repro.scheduler.schedule.Schedule` itself — the per-core
sequences of :meth:`~repro.scheduler.schedule.Schedule.core_sequences`
and the superstep map ``schedule.supersteps`` — so pricing a schedule
compiles nothing.  The serial price is one core running rows
``0..n-1``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError
from repro.machine.cache import row_costs_for_sequence
from repro.machine.model import MachineModel
from repro.matrix.csr import CSRMatrix
from repro.scheduler.schedule import Schedule

__all__ = [
    "bsp_cost_matrix",
    "row_cost_and_position",
    "serial_costs",
]


def serial_costs(matrix: CSRMatrix, machine: MachineModel) -> np.ndarray:
    """Per-row simulated cycles of one core sweeping rows ``0..n-1``."""
    return row_costs_for_sequence(
        matrix, np.arange(matrix.n, dtype=np.int64), machine
    )


def _per_core_costs(
    matrix: CSRMatrix, schedule: Schedule, machine: MachineModel
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each core's program-order sequence and its per-row cycles.

    Returns ``(sequences, costs)``: ``sequences[p]`` is
    ``schedule.core_sequences()[p]`` and ``costs[p]`` is aligned with
    it; empty cores yield empty arrays.  Per-core cache state persists
    across supersteps.
    """
    if schedule.n != matrix.n:
        raise MatrixFormatError(
            f"schedule covers {schedule.n} rows, matrix has {matrix.n}"
        )
    sequences = schedule.core_sequences()
    return sequences, [
        row_costs_for_sequence(matrix, seq, machine) for seq in sequences
    ]


def bsp_cost_matrix(
    matrix: CSRMatrix, schedule: Schedule, machine: MachineModel
) -> tuple[np.ndarray, np.ndarray, int]:
    """Superstep-by-core busy cycles of a synchronous execution.

    Returns ``(step_core, core_busy, active_cores)`` where ``step_core``
    is ``(max(n_supersteps, 1), n_cores)`` summed busy cycles,
    ``core_busy`` the per-core totals, and ``active_cores`` the number of
    cores that ever receive work (the barrier fan-in).
    """
    n_cores = schedule.n_cores
    step_core = np.zeros((max(schedule.n_supersteps, 1), n_cores))
    core_busy = np.zeros(n_cores)
    active = 0
    sequences, costs = _per_core_costs(matrix, schedule, machine)
    for p, (seq, cost) in enumerate(zip(sequences, costs, strict=True)):
        if seq.size == 0:
            continue
        active += 1
        np.add.at(step_core[:, p], schedule.supersteps[seq], cost)
        core_busy[p] = cost.sum()
    return step_core, core_busy, active


def row_cost_and_position(
    matrix: CSRMatrix, schedule: Schedule, machine: MachineModel
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row-id cost and program-order position (asynchronous model).

    Returns ``(cost, seq_pos)`` indexed by row id: ``cost[v]`` is the
    simulated cycles of row ``v`` on its own core's sequence, ``seq_pos[v]``
    its position within that sequence.
    """
    cost = np.zeros(schedule.n)
    seq_pos = np.zeros(schedule.n, dtype=np.int64)
    sequences, costs = _per_core_costs(matrix, schedule, machine)
    for seq, row_cost in zip(sequences, costs, strict=True):
        if seq.size == 0:
            continue
        cost[seq] = row_cost
        seq_pos[seq] = np.arange(seq.size, dtype=np.int64)
    return cost, seq_pos
