"""Concurrent solve service: batched SpTRSV as a long-running system.

The paper's amortization argument (Table 7.6, Eq. 7.1) is that schedule
compilation pays for itself over *many* solves.  This package supplies
the missing serving layer over :mod:`repro.exec`: a
:class:`SolveService` holds registered matrices —
each lowered once into an :class:`~repro.exec.plan.ExecutionPlan`
through a shared thread-safe :class:`~repro.exec.PlanCache` — and
serves keyed solve requests against them.  Concurrent single-RHS
requests for the same system are coalesced into SpTRSM micro-batches
executed through :meth:`~repro.exec.backends.ExecutionBackend
.solve_block`, so ``k`` queued requests cost one sweep over the plan's
dependency layers instead of ``k``.

Per-system latency / throughput / batch-size statistics are exposed via
:meth:`SolveService.stats`.

A service coalesces per system however clients interleave their keys,
and serves the systems with waiting requests in turn.  The
:class:`ServingGateway` routes each key, via a stable hash, to one of
N independent service shards, each with its own worker thread and
admission bound — see :mod:`repro.service.gateway`.  The open-loop
traffic harness that measures both lives in
:mod:`repro.service.loadgen`.
"""

from repro.service.gateway import (
    ServingGateway,
    pick_balanced_keys,
    shard_index,
)
from repro.service.service import SolveService
from repro.service.stats import SystemStats

__all__ = [
    "ServingGateway",
    "SolveService",
    "SystemStats",
    "pick_balanced_keys",
    "shard_index",
]
