"""Equivalence tests: the sharded suite runner vs the sequential one.

``run_suite_parallel`` must be a drop-in replacement for ``run_suite``:
same grouping keys, same per-instance order, and every simulated metric
identical.  Only wall-clock-derived fields (``scheduling_seconds``,
``amortization``) and the cache counters may differ between runs — they
depend on where and when a shard executed, not on what it computed.
"""

import numpy as np
import pytest

from repro.experiments import run_suite, run_suite_parallel
from repro.experiments.datasets import DatasetInstance
from repro.machine.model import MachineModel
from repro.matrix.generators import erdos_renyi_lower, rcm_mesh
from repro.scheduler import (
    GrowLocalScheduler,
    SpMPScheduler,
    WavefrontScheduler,
)

MACHINE = MachineModel(name="tiny", n_cores=4, barrier_latency=50.0,
                       cache_lines=64)

#: Result fields that legitimately differ between sequential and sharded
#: runs: wall-clock measurements and the (aggregation-dependent) cache
#: counters.
TIMING_FIELDS = {
    "scheduling_seconds",
    "amortization",
    "plan_cache_hits",
    "plan_cache_misses",
}


@pytest.fixture(scope="module")
def instances():
    return [
        DatasetInstance("ps_er_a", erdos_renyi_lower(280, 0.012, seed=4)),
        DatasetInstance("ps_er_b", erdos_renyi_lower(240, 0.016, seed=5)),
        DatasetInstance(
            "ps_mesh",
            rcm_mesh(20, 40, reach=1, lateral_prob=0.3,
                     seed=6).lower_triangle(),
        ),
    ]


def make_schedulers():
    return {
        "gl": GrowLocalScheduler(),
        "wf": WavefrontScheduler(),
        "spmp": SpMPScheduler(),
    }


def assert_equivalent(seq, par):
    assert set(seq) == set(par)
    for name in seq:
        assert len(seq[name]) == len(par[name])
        for a, b in zip(seq[name], par[name], strict=True):
            row_a, row_b = a.as_row(), b.as_row()
            for field, value in row_a.items():
                if field in TIMING_FIELDS:
                    continue
                assert row_b[field] == value, (name, field)


class TestRunSuiteParallel:
    def test_workers2_equals_sequential(self, instances):
        seq = run_suite(instances, make_schedulers(), MACHINE)
        par = run_suite_parallel(instances, make_schedulers(), MACHINE,
                                 workers=2)
        assert_equivalent(seq, par)

    def test_workers1_inprocess_equals_sequential(self, instances):
        seq = run_suite(instances, make_schedulers(), MACHINE)
        par = run_suite_parallel(instances, make_schedulers(), MACHINE,
                                 workers=1)
        assert_equivalent(seq, par)

    def test_per_instance_order_preserved(self, instances):
        par = run_suite_parallel(instances, make_schedulers(), MACHINE,
                                 workers=2)
        for rows in par.values():
            assert [r.instance for r in rows] == [
                inst.name for inst in instances
            ]

    def test_cache_counters_aggregated(self, instances):
        """Aggregated counters are stamped on every result and match the
        work actually done: one triple per (instance, scheduler), one
        plan per executed matrix (GrowLocal's reorder and the unpermuted
        matrix wavefront and SpMP share) and serial cycles per
        instance."""
        schedulers = make_schedulers()
        par = run_suite_parallel(instances, schedulers, MACHINE,
                                 workers=2)
        n_inst, n_sched = len(instances), len(schedulers)
        counters = {
            (r.plan_cache_hits, r.plan_cache_misses)
            for rows in par.values()
            for r in rows
        }
        assert len(counters) == 1  # same totals everywhere
        hits, misses = counters.pop()
        assert misses == n_inst * (n_sched + 2 + 1)
        assert hits == n_inst * ((n_sched - 1) + 1)

    def test_bounded_worker_cache(self, instances):
        seq = run_suite(instances, make_schedulers(), MACHINE)
        par = run_suite_parallel(instances, make_schedulers(), MACHINE,
                                 workers=2, max_cache_entries=2)
        assert_equivalent(seq, par)

    def test_reorder_override_propagates(self, instances):
        par = run_suite_parallel(
            instances, {"gl": GrowLocalScheduler()}, MACHINE,
            workers=2, reorder=False,
        )
        assert all(not r.reordered for r in par["gl"])

    def test_more_workers_than_instances(self, instances):
        par = run_suite_parallel(instances[:1], make_schedulers(),
                                 MACHINE, workers=8)
        seq = run_suite(instances[:1], make_schedulers(), MACHINE)
        assert_equivalent(seq, par)

    def test_speedups_reproducible_across_shardings(self, instances):
        a = run_suite_parallel(instances, make_schedulers(), MACHINE,
                               workers=3)
        b = run_suite_parallel(instances, make_schedulers(), MACHINE,
                               workers=2)
        for name in a:
            np.testing.assert_array_equal(
                [r.speedup for r in a[name]],
                [r.speedup for r in b[name]],
            )
