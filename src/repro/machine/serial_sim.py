"""Serial execution model: the denominator of every speed-up.

The serial kernel sweeps rows ``0..n-1`` in storage order — perfect matrix
streaming and whatever x-vector locality the ordering provides — with no
synchronization of any kind.  Costing shares the kernel of
:mod:`repro.machine.cost` with the other simulators: one core running
rows ``0..n-1``, priced without compiling anything.
"""

from __future__ import annotations

from repro.machine.cost import serial_costs
from repro.machine.model import MachineModel
from repro.matrix.csr import CSRMatrix

__all__ = ["simulate_serial"]


def simulate_serial(
    lower: CSRMatrix,
    machine: MachineModel,
) -> float:
    """Simulated cycles of one serial forward substitution."""
    return float(serial_costs(lower, machine).sum())
