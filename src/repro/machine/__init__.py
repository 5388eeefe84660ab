"""Simulated parallel machine: cost models for SpTRSV execution.

This package substitutes the paper's physical testbeds (Section 6.3) with a
deterministic performance model, because the reproduction environment has a
single CPU core and CPython's GIL forbids measuring fine-grained thread
parallelism.  Every quantity the paper reports is a function of the
schedule and machine parameters:

* :mod:`~repro.machine.model` — machine presets (cores, per-nnz compute
  cost, barrier latency, cache geometry) for the Intel Xeon 6238T,
  AMD EPYC 7763 and Kunpeng 920 testbeds, scaled to the proxy problem
  sizes;
* :mod:`~repro.machine.cache` — a vectorized reuse-distance cache model
  that prices the locality effects Sections 3 and 5 rely on;
* :mod:`~repro.machine.bsp_sim` — synchronous (barrier) execution:
  ``sum_s max_p T(s, p) + barriers * L_arch``;
* :mod:`~repro.machine.async_sim` — event-driven asynchronous execution
  with point-to-point waits (SpMP's execution model);
* :mod:`~repro.machine.serial_sim` — the serial baseline;
* :mod:`~repro.machine.trace` — per-superstep, per-core busy times of a
  synchronous execution and a text Gantt chart.

All four cost their workloads through the single kernel of
:mod:`~repro.machine.cost`, which prices a
:class:`~repro.scheduler.schedule.Schedule` directly — its per-core
sequences and superstep map are the program the simulated machine runs
— so simulating compiles no execution plan.
"""

from repro.machine.async_sim import AsyncSimResult, simulate_async
from repro.machine.bsp_sim import BSPSimResult, simulate_bsp
from repro.machine.cache import reuse_distance_misses, row_costs_for_sequence
from repro.machine.model import MachineModel, get_machine, list_machines
from repro.machine.serial_sim import simulate_serial
from repro.machine.trace import ExecutionTrace, render_gantt, trace_bsp

__all__ = [
    "ExecutionTrace",
    "render_gantt",
    "trace_bsp",
    "AsyncSimResult",
    "BSPSimResult",
    "MachineModel",
    "get_machine",
    "list_machines",
    "reuse_distance_misses",
    "row_costs_for_sequence",
    "simulate_async",
    "simulate_bsp",
    "simulate_serial",
]
