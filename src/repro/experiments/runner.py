"""Experiment runner: schedule an instance, simulate, collect metrics.

One :func:`run_instance` call reproduces the full measurement pipeline of
Section 6.1 for one (matrix, scheduler, machine) triple:

1. compute the schedule *and* — for the paper's own algorithms — the
   Section 5 locality reordering (both are scheduling-side work, so both
   are wall-clock timed into the ``scheduling_seconds`` numerator of the
   amortization threshold, Eq. 7.1);
2. take the executed matrix's :class:`~repro.exec.plan.ExecutionPlan`
   (its level set, whatever the schedule) for the solves;
3. simulate the parallel execution of the schedule (BSP simulator, or
   the event-driven asynchronous simulator for SpMP) and the serial
   execution — the simulators price the schedule itself, not the plan;
4. derive speed-up, barrier reduction, flop rate and amortization.

Scheduled triples are memoized in a :class:`~repro.exec.PlanCache` keyed
by ``(instance, scheduler, cores, reorder)``, and plans by executed
matrix: an instance's unpermuted matrix has one plan, shared by every
scheduler without the Section 5 reorder, and each reorder has its own.
:func:`run_suite` shares one cache across the whole suite, so each
triple is scheduled once and each executed matrix lowered once.  Cache
hit/miss counters are surfaced on every :class:`ExperimentResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exec import ExecutionPlan, PlanCache, compile_plan, get_backend
from repro.experiments.datasets import DatasetInstance
from repro.experiments.metrics import (
    amortization_threshold,
    barrier_reduction,
    flops_per_cycle,
)
from repro.machine.async_sim import simulate_async
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.model import MachineModel
from repro.machine.serial_sim import simulate_serial
from repro.scheduler.base import Scheduler
from repro.scheduler.reorder import schedule_reordering
from repro.matrix.permute import permute_symmetric
from repro.utils.timing import Timer

__all__ = ["ExperimentResult", "compiled_entry", "resolve_reorder",
           "run_instance", "run_suite", "REORDERING_SCHEDULERS"]

#: Schedulers that include the Section 5 reordering step by default
#: (the paper applies it to its own algorithms, not to the baselines).
#: Matched by *exact* name as a fallback for duck-typed schedulers; the
#: primary signal is the :attr:`~repro.scheduler.base.Scheduler
#: .reorders_by_default` flag declared on the scheduler itself (wrappers
#: such as :class:`~repro.scheduler.block.BlockScheduler` propagate their
#: inner scheduler's flag).
REORDERING_SCHEDULERS = ("growlocal", "funnel+gl")


@dataclass
class ExperimentResult:
    """All metrics of one (instance, scheduler, machine) run."""

    instance: str
    scheduler: str
    machine: str
    n_cores: int
    speedup: float
    serial_cycles: float
    parallel_cycles: float
    n_supersteps: int
    n_wavefronts: int
    barrier_reduction: float
    scheduling_seconds: float
    amortization: float
    flops_per_cycle: float
    reordered: bool
    #: Cumulative plan-cache counters at the time this result was
    #: produced (suite-wide when :func:`run_suite` shares a cache).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Resolved execution-backend name solves of this run would execute
    #: on (``"numpy"``, ``"numba"``, ``"numba-parallel"``, ...), so suite
    #: rows — including those produced by parallel-suite workers — are
    #: attributable to a kernel tier.
    backend: str = ""
    #: Merged obs metrics snapshot of the suite run that produced this
    #: result (``REPRO_OBS`` on; ``None`` otherwise).  Excluded from
    #: :meth:`as_row` — it is a nested payload, not a table column.
    metrics: dict | None = None

    def as_row(self) -> dict[str, object]:
        """Plain-dict view for table emitters (without the nested
        ``metrics`` snapshot)."""
        row = dict(self.__dict__)
        row.pop("metrics", None)
        return row


@dataclass
class _CompiledTriple:
    """One (instance, scheduler, cores) triple, scheduled once.

    Everything downstream stages need: the schedule, the (possibly
    reordered) executed matrix/schedule, the executed matrix's plan
    (shared with every triple that executes the same matrix), the
    captured sync DAG for asynchronous schedulers, and the scheduling
    wall-clock time (schedule + reordering permutation, per Eq. 7.1)."""

    schedule: object
    exec_matrix: object
    exec_schedule: object
    plan: ExecutionPlan
    sync_dag: object | None
    mode: str
    scheduling_seconds: float
    reordered: bool


def _compile_triple(
    inst: DatasetInstance,
    scheduler: Scheduler,
    cores: int,
    reorder: bool,
    cache: PlanCache,
) -> _CompiledTriple:
    """Schedule and reorder one triple, and take its executed matrix's
    plan from ``cache`` (the cache-miss path)."""
    # The Section 5 reordering permutation is scheduling-side work: its
    # cost belongs in the amortization numerator alongside the scheduler
    # proper, so the timer covers both.
    with Timer() as timer:
        schedule = scheduler.schedule(inst.dag, cores)
        exec_matrix = inst.lower
        exec_schedule = schedule
        reordered = bool(reorder and scheduler.execution_mode == "bsp")
        if reordered:
            perm = schedule_reordering(schedule)
            exec_matrix = permute_symmetric(inst.lower, perm)
            exec_schedule = schedule.reorder_vertices(perm)
    # capture per-call scheduler state before the next schedule() call
    sync_dag = getattr(scheduler, "sync_dag", None)
    # one plan per executed matrix: the unpermuted matrix's entry serves
    # every triple without the reorder, each reorder gets its own
    plan = cache.get_or_build(
        (inst.name, "__plan__", scheduler.name, cores) if reordered
        else (inst.name, "__plan__"),
        lambda: compile_plan(exec_matrix, check_diagonal=False),
    )
    return _CompiledTriple(
        schedule=schedule,
        exec_matrix=exec_matrix,
        exec_schedule=exec_schedule,
        plan=plan,
        sync_dag=sync_dag,
        mode=scheduler.execution_mode,
        scheduling_seconds=timer.elapsed,
        reordered=reordered,
    )


def resolve_reorder(scheduler: Scheduler, reorder: bool | None = None) -> bool:
    """The effective Section 5 reordering flag for one scheduler.

    ``None`` selects the paper's default: the scheduler-declared
    :attr:`~repro.scheduler.base.Scheduler.reorders_by_default` flag,
    with exact-name membership in :data:`REORDERING_SCHEDULERS` as a
    fallback for duck-typed schedulers without the attribute (substring
    matching would misfire on any scheduler whose name merely *contains*
    ``"growlocal"``).
    """
    if reorder is not None:
        return bool(reorder)
    return bool(
        getattr(
            scheduler,
            "reorders_by_default",
            scheduler.name in REORDERING_SCHEDULERS,
        )
    )


def compiled_entry(
    inst: DatasetInstance,
    scheduler: Scheduler,
    cores: int,
    reorder: bool,
    cache: PlanCache,
) -> _CompiledTriple:
    """The cached compiled triple of ``(inst, scheduler, cores, reorder)``.

    This is the single cache-key convention for scheduled triples: the
    experiment runner and, through it, the autotuner's prior go through
    it, so a triple is scheduled and reordered at most once per shared
    cache no matter which consumer asks first, and its executed matrix
    lowered at most once.
    """
    return cache.get_or_build(
        (inst.name, scheduler.name, cores, bool(reorder)),
        lambda: _compile_triple(inst, scheduler, cores, bool(reorder), cache),
    )


def _serial_cycles(
    inst: DatasetInstance, machine: MachineModel, cache: PlanCache
) -> float:
    """Serial execution cycles, cached per (instance, machine): the
    simulated number is memoized (``MachineModel`` is frozen, hence a
    valid key component) and shared by every scheduler in a suite.  It
    is priced without a plan: one core running rows ``0..n-1``."""
    return cache.get_or_build(
        (inst.name, "__serial_cycles__", machine),
        lambda: simulate_serial(inst.lower, machine),
    )


def run_instance(
    inst: DatasetInstance,
    scheduler: Scheduler,
    machine: MachineModel,
    *,
    n_cores: int | None = None,
    reorder: bool | None = None,
    plan_cache: PlanCache | None = None,
) -> ExperimentResult:
    """Measure one scheduler on one instance under one machine model.

    Parameters
    ----------
    n_cores:
        Cores to schedule for; defaults to (and is capped at) the machine's
        core count.
    reorder:
        Apply the Section 5 reordering.  ``None`` selects the paper's
        default: on for GrowLocal/Funnel+GL (and block wrappers around
        them), off for the baselines.
    plan_cache:
        Shared :class:`~repro.exec.PlanCache`; when given, the
        (instance, scheduler, cores) triple is scheduled at most once,
        and its executed matrix lowered at most once, across every call
        using the same cache (instances are identified by name).  A
        private cache is used when omitted.
    """
    cores = machine.n_cores if n_cores is None else min(n_cores,
                                                        machine.n_cores)
    cache = plan_cache if plan_cache is not None else PlanCache()
    # adaptive schedulers (the tuner's "auto" entry) resolve to a
    # concrete scheduler per instance, sharing this run's plan cache and
    # reorder flag so the tuner evaluates exactly the plans this run
    # executes (and their compiles are one set)
    resolver = getattr(scheduler, "resolve_for_instance", None)
    if resolver is not None:
        scheduler = resolver(
            inst, machine, n_cores=cores, plan_cache=cache,
            reorder=reorder,
        )
    reorder = resolve_reorder(scheduler, reorder)
    entry = compiled_entry(inst, scheduler, cores, reorder, cache)

    if entry.mode == "async":
        sync_dag = entry.sync_dag or inst.dag
        sim = simulate_async(
            entry.exec_matrix, entry.exec_schedule, sync_dag, machine
        )
    else:
        sim = simulate_bsp(entry.exec_matrix, entry.exec_schedule, machine)
    parallel_cycles = sim.total_cycles

    serial_cycles = _serial_cycles(inst, machine, cache)
    schedule = entry.schedule
    sched_seconds = entry.scheduling_seconds
    serial_seconds = machine.cycles_to_seconds(serial_cycles)
    parallel_seconds = machine.cycles_to_seconds(parallel_cycles)

    return ExperimentResult(
        instance=inst.name,
        scheduler=scheduler.name,
        machine=machine.name,
        n_cores=cores,
        speedup=serial_cycles / parallel_cycles,
        serial_cycles=serial_cycles,
        parallel_cycles=parallel_cycles,
        n_supersteps=schedule.n_supersteps,
        n_wavefronts=inst.n_wavefronts,
        barrier_reduction=barrier_reduction(
            inst.n_wavefronts, max(schedule.n_supersteps, 1)
        ),
        scheduling_seconds=sched_seconds,
        amortization=amortization_threshold(
            sched_seconds, serial_seconds, parallel_seconds
        ),
        flops_per_cycle=flops_per_cycle(inst.flops, parallel_cycles),
        reordered=entry.reordered,
        plan_cache_hits=cache.hits,
        plan_cache_misses=cache.misses,
        # cheap: backend availability is resolved once per process and
        # cached by the registry
        backend=get_backend().name,
    )


def run_suite(
    instances: tuple[DatasetInstance, ...] | list[DatasetInstance],
    schedulers: dict[str, Scheduler],
    machine: MachineModel,
    *,
    n_cores: int | None = None,
    reorder: bool | None = None,
    plan_cache: PlanCache | None = None,
) -> dict[str, list[ExperimentResult]]:
    """Run every scheduler on every instance; returns results grouped by
    scheduler name (aligned with the instance order).

    One :class:`~repro.exec.PlanCache` spans the whole suite (pass your
    own to span several suites — e.g. the same instances on different
    machine models): each (instance, scheduler, cores) triple is
    scheduled and reordered exactly once, and each executed matrix is
    compiled once — an instance's unpermuted plan is shared by every
    scheduler without the Section 5 reorder."""
    cache = plan_cache if plan_cache is not None else PlanCache()
    out: dict[str, list[ExperimentResult]] = {name: [] for name in schedulers}
    for inst in instances:
        for name, scheduler in schedulers.items():
            out[name].append(
                run_instance(
                    inst, scheduler, machine,
                    n_cores=n_cores, reorder=reorder,
                    plan_cache=cache,
                )
            )
    return out


def geomean_speedups(
    results: dict[str, list[ExperimentResult]],
) -> dict[str, float]:
    """Geometric-mean speed-up per scheduler (the Table 7.1 aggregation)."""
    from repro.utils.stats import geometric_mean

    return {
        name: geometric_mean([r.speedup for r in rows])
        for name, rows in results.items()
        if rows
    }


def speedup_array(results: list[ExperimentResult]) -> np.ndarray:
    """Speed-ups of a result list as an array (figure helpers)."""
    return np.array([r.speedup for r in results], dtype=np.float64)
