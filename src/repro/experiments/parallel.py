"""Sharded experiment suites: one process per chunk of instances.

:func:`~repro.experiments.runner.run_suite` is embarrassingly parallel
across instances — every (instance, scheduler) cell is independent, and
the plan cache only ever shares work *within* an instance (its
unpermuted plan and serial cycles) or across repeat runs.  :func:`run_suite_parallel`
exploits exactly that: instances are sharded across a process pool, each
worker process owns a private :class:`~repro.exec.PlanCache` that
persists across the shards it executes, and the per-shard results are
merged deterministically into the same ``{scheduler: [results]}``
grouping and per-instance order :func:`run_suite` produces.

Cache counters are aggregated across workers and stamped onto every
merged :class:`~repro.experiments.runner.ExperimentResult`, so the
suite-wide compile accounting stays observable no matter how the work
was sharded.  Each worker likewise stamps the execution-backend name it
resolved (``ExperimentResult.backend``) — workers re-probe backend
availability in their own process, so suite rows always name the kernel
tier that actually backed them.

Only the timing-derived fields (``scheduling_seconds``, ``amortization``)
and the cache counters depend on *where* a result was computed; every
simulated metric is deterministic and identical to a sequential run.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from repro.exec import PlanCache
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import ExperimentResult, run_instance
from repro.machine.model import MachineModel
from repro.obs_gate import get_obs
from repro.scheduler.base import Scheduler

__all__ = ["run_suite_parallel"]

#: Per-worker plan cache, created by the pool initializer so it persists
#: across every shard the worker process executes.
_WORKER_CACHE: PlanCache | None = None


def _init_worker(max_cache_entries: int | None) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = PlanCache(max_entries=max_cache_entries)


def _run_shard(
    inst: DatasetInstance,
    schedulers: dict[str, Scheduler],
    machine: MachineModel,
    n_cores: int | None,
    reorder: bool | None,
) -> tuple[dict[str, ExperimentResult], int, int, dict | None]:
    """One instance x all schedulers inside a worker process.

    Returns the per-scheduler results, this shard's cache hit/miss
    *deltas* (the worker cache is long-lived, so absolute counters would
    double-count earlier shards) and, with the ``REPRO_OBS`` gate on,
    this shard's metrics snapshot, recorded through a scoped registry so
    shards never double-count each other.
    """
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else PlanCache()
    hits0, misses0 = cache.hits, cache.misses
    obs = get_obs()
    scope = obs.scoped_registry() if obs is not None else nullcontext()
    with scope as scoped:
        results = {
            name: run_instance(
                inst, scheduler, machine,
                n_cores=n_cores, reorder=reorder, plan_cache=cache,
            )
            for name, scheduler in schedulers.items()
        }
    metrics_snapshot = scoped.snapshot() if scoped is not None else None
    return (results, cache.hits - hits0, cache.misses - misses0,
            metrics_snapshot)


def run_suite_parallel(
    instances: tuple[DatasetInstance, ...] | list[DatasetInstance],
    schedulers: dict[str, Scheduler],
    machine: MachineModel,
    *,
    n_cores: int | None = None,
    reorder: bool | None = None,
    workers: int | None = None,
    max_cache_entries: int | None = None,
) -> dict[str, list[ExperimentResult]]:
    """Run every scheduler on every instance, sharded across processes.

    Drop-in parallel counterpart of
    :func:`~repro.experiments.runner.run_suite`: the returned mapping has
    the same keys (one per scheduler) and the same per-instance order,
    and every simulated metric matches the sequential run exactly — only
    wall-clock-derived fields (``scheduling_seconds``, ``amortization``)
    and the cache counters depend on the sharding.

    Parameters
    ----------
    workers:
        Process count; ``None`` uses ``os.cpu_count()`` (capped at the
        instance count).  ``workers <= 1`` executes in-process through
        the identical shard/merge path, with one long-lived cache
        standing in for the single worker.
    max_cache_entries:
        Optional bound for each worker's :class:`~repro.exec.PlanCache`
        (LRU eviction), capping per-process memory on huge suites.

    Returns
    -------
    Results grouped by scheduler name, aligned with the instance order.
    Every result carries the suite-wide cache counters aggregated across
    all workers.
    """
    instances = list(instances)
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), max(len(instances), 1)))

    if workers == 1:
        _init_worker(max_cache_entries)
        try:
            shards = [
                _run_shard(inst, schedulers, machine, n_cores, reorder)
                for inst in instances
            ]
        finally:
            globals()["_WORKER_CACHE"] = None
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(max_cache_entries,),
        ) as pool:
            futures = [
                pool.submit(
                    _run_shard, inst, schedulers, machine, n_cores,
                    reorder,
                )
                for inst in instances
            ]
            # gather in submission order == instance order: the merge is
            # deterministic regardless of which worker finished first
            shards = [f.result() for f in futures]

    # deterministic merge of the per-shard metrics registries: shards
    # are ingested in instance order (never completion order) into the
    # parent's process-wide registry, and every result carries the same
    # merged snapshot — identical bucket specs make the merged
    # percentiles bit-equal to one registry observing everything
    obs = get_obs()
    merged_metrics = None
    if obs is not None:
        registry = obs.get_registry()
        for _, _, _, snapshot in shards:
            if snapshot is not None:
                registry.ingest(snapshot)
        merged_metrics = registry.snapshot()

    out: dict[str, list[ExperimentResult]] = {name: [] for name in schedulers}
    total_hits = sum(h for _, h, _, _ in shards)
    total_misses = sum(m for _, _, m, _ in shards)
    for results, _, _, _ in shards:
        for name in schedulers:
            result = results[name]
            result.plan_cache_hits = total_hits
            result.plan_cache_misses = total_misses
            result.metrics = merged_metrics
            out[name].append(result)
    return out
