"""Tests for the plan cache and its integration with the experiment
runner, plus the scheduling-time measurement scope fix."""

import pytest

from repro.exec import PlanCache, compile_count
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import (
    compiled_entry,
    resolve_reorder,
    run_instance,
    run_suite,
)
from repro.machine.model import MachineModel
from repro.matrix.generators import erdos_renyi_lower
from repro.scheduler import (
    GrowLocalScheduler,
    SpMPScheduler,
    WavefrontScheduler,
)
from repro.scheduler.registry import make_scheduler

MACHINE = MachineModel(
    name="tiny", n_cores=4, barrier_latency=50.0, cache_lines=64,
)


@pytest.fixture(scope="module")
def instances():
    return [
        DatasetInstance("pc_er_a", erdos_renyi_lower(300, 0.012, seed=1)),
        DatasetInstance("pc_er_b", erdos_renyi_lower(250, 0.015, seed=2)),
    ]


class TestPlanCache:
    def test_get_or_build_counts(self):
        cache = PlanCache()
        calls = []
        assert cache.get_or_build("a", lambda: calls.append(1) or 10) == 10
        assert cache.get_or_build("a", lambda: calls.append(1) or 20) == 10
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert "a" in cache
        assert len(cache) == 1

    def test_clear(self):
        cache = PlanCache()
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_max_entries_evicts_oldest(self):
        cache = PlanCache(max_entries=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("c", lambda: 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_lru_hit_protects_entry_from_eviction(self):
        """Regression: eviction must be LRU, not FIFO — a hit moves the
        entry to the most-recently-used end, so the oldest-*inserted* but
        recently-*used* entry survives and the stale one goes."""
        cache = PlanCache(max_entries=2)
        cache.get_or_build("hot", lambda: 1)
        cache.get_or_build("cold", lambda: 2)
        cache.get_or_build("hot", lambda: 0)   # hit: hot becomes MRU
        cache.get_or_build("new", lambda: 3)   # evicts LRU = cold
        assert "hot" in cache
        assert "cold" not in cache
        assert "new" in cache

    def test_put_replaces_and_counts_nothing(self):
        cache = PlanCache(max_entries=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        assert cache.put("a", 99) == 99
        assert (cache.hits, cache.misses) == (0, 2)
        assert cache.get_or_build("a", lambda: 0) == 99
        # put moved "a" to MRU, so the next insert evicts "b"
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache

    def test_repr(self):
        assert "PlanCache" in repr(PlanCache())


class TestRunnerIntegration:
    def test_suite_compiles_each_triple_once(self, instances):
        """The acceptance criterion: one schedule per (instance,
        scheduler, cores) triple and one plan per executed matrix;
        everything else is a hit."""
        cache = PlanCache()
        schedulers = {
            "gl": GrowLocalScheduler(),
            "wf": WavefrontScheduler(),
            "spmp": SpMPScheduler(),
        }
        before = compile_count()
        results = run_suite(instances, schedulers, MACHINE,
                            plan_cache=cache)
        n_inst, n_sched = len(instances), len(schedulers)
        # per instance, two executed matrices: GrowLocal's reorder and
        # the unpermuted matrix wavefront and SpMP share
        assert compile_count() - before == 2 * n_inst
        # one miss per triple, per executed matrix's plan and per
        # instance's serial cycles; no serial plan entry
        assert cache.misses == n_inst * (n_sched + 2 + 1)
        assert all((inst.name, "__serial__", 1, False) not in cache
                   for inst in instances)
        # the serial cycles are reused by every scheduler after the
        # first on each instance, the unpermuted plan by SpMP
        assert cache.hits == n_inst * ((n_sched - 1) + 1)
        # counters surface on the results; the last result carries totals
        last = results["spmp"][-1]
        assert last.plan_cache_misses == cache.misses
        assert last.plan_cache_hits == cache.hits

    def test_second_suite_is_all_hits(self, instances):
        cache = PlanCache()
        schedulers = {"gl": GrowLocalScheduler(),
                      "wf": WavefrontScheduler()}
        first = run_suite(instances, schedulers, MACHINE, plan_cache=cache)
        misses_after_first = cache.misses
        second = run_suite(instances, schedulers, MACHINE,
                           plan_cache=cache)
        assert cache.misses == misses_after_first  # nothing recompiled
        # identical numbers out of the cached artifacts
        for name in schedulers:
            for a, b in zip(first[name], second[name], strict=True):
                assert a.speedup == b.speedup
                assert a.parallel_cycles == b.parallel_cycles
                assert a.scheduling_seconds == b.scheduling_seconds

    def test_shared_cache_across_machines(self, instances):
        """Schedules depend only on (instance, scheduler, cores) and
        plans only on the executed matrix — sharing a cache across
        machine models reuses every compile; only the machine-specific
        serial pricing is re-simulated."""
        cache = PlanCache()
        run_instance(instances[0], GrowLocalScheduler(), MACHINE,
                     plan_cache=cache)
        misses = cache.misses
        other = MachineModel(name="tiny8", n_cores=4,
                             barrier_latency=500.0, cache_lines=32)
        r = run_instance(instances[0], GrowLocalScheduler(), other,
                         plan_cache=cache)
        # exactly one new entry: the other machine's serial cycles
        assert cache.misses == misses + 1
        assert r.plan_cache_hits > 0

    def test_private_cache_by_default(self, instances):
        r1 = run_instance(instances[0], WavefrontScheduler(), MACHINE)
        # triple + its executed matrix's plan + serial cycles
        assert r1.plan_cache_misses == 3
        assert r1.plan_cache_hits == 0

    def test_cached_results_match_uncached(self, instances):
        cache = PlanCache()
        warm = run_instance(instances[0], WavefrontScheduler(), MACHINE,
                            plan_cache=cache)
        again = run_instance(instances[0], WavefrontScheduler(), MACHINE,
                             plan_cache=cache)
        fresh = run_instance(instances[0], WavefrontScheduler(), MACHINE)
        assert warm.parallel_cycles == again.parallel_cycles
        assert warm.parallel_cycles == fresh.parallel_cycles
        assert warm.serial_cycles == fresh.serial_cycles

    def test_async_scheduler_cached(self, instances):
        cache = PlanCache()
        a = run_instance(instances[0], SpMPScheduler(), MACHINE,
                         plan_cache=cache)
        b = run_instance(instances[0], SpMPScheduler(), MACHINE,
                         plan_cache=cache)
        assert a.parallel_cycles == b.parallel_cycles
        assert cache.hits > 0

    def test_as_row_includes_counters(self, instances):
        r = run_instance(instances[0], WavefrontScheduler(), MACHINE)
        row = r.as_row()
        assert "plan_cache_hits" in row and "plan_cache_misses" in row

    def test_schedulers_without_reorder_share_one_plan(self, instances):
        """HDagg, SpMP and wavefront execute the unpermuted matrix, so
        their entries hold one plan object; each reorder has its own."""
        cache = PlanCache()
        inst = instances[0]
        entries = {}
        for name in ("hdagg", "spmp", "wavefront", "growlocal",
                     "funnel+gl"):
            scheduler = make_scheduler(name)
            entries[name] = compiled_entry(
                inst, scheduler, 4, resolve_reorder(scheduler), cache
            )
        shared = entries["hdagg"].plan
        assert entries["spmp"].plan is shared
        assert entries["wavefront"].plan is shared
        assert shared.matrix is inst.lower
        assert entries["growlocal"].plan is not shared
        assert entries["funnel+gl"].plan is not shared
        assert entries["growlocal"].plan is not entries["funnel+gl"].plan

    def test_paper_suite_compiles_at_most_three_plans_per_instance(
        self, instances
    ):
        """The five paper schedulers execute three matrices per
        instance: the unpermuted one and the two Section 5 reorders."""
        schedulers = {
            name: make_scheduler(name)
            for name in ("growlocal", "funnel+gl", "hdagg", "spmp",
                         "wavefront")
        }
        before = compile_count()
        run_suite(instances, schedulers, MACHINE, plan_cache=PlanCache())
        assert compile_count() - before <= 3 * len(instances)


class TestBoundedSuite:
    def test_serial_plan_survives_bounded_suite(self, instances):
        """Regression for the FIFO eviction bug: each instance's
        unpermuted plan — the plan a serial run executes — is shared by
        every scheduler without the Section 5 reorder, and its serial
        cycles by every scheduler, so a bounded cache must keep both
        (pure FIFO evicted exactly these hottest entries first)."""
        inst = instances[0]
        cache = PlanCache(max_entries=3)
        from repro.scheduler import HDaggScheduler

        schedulers = {
            "gl": GrowLocalScheduler(),
            "wf": WavefrontScheduler(),
            "spmp": SpMPScheduler(),
            "hd": HDaggScheduler(),
        }
        results = run_suite([inst], schedulers, MACHINE, plan_cache=cache)
        serial_key = (inst.name, "__plan__")
        cycles_key = (inst.name, "__serial_cycles__", MACHINE)
        assert serial_key in cache
        assert cycles_key in cache
        assert len(cache) <= 3
        # the discriminating assertion: under LRU the shared plan and
        # the serial cycles are built exactly once — one miss per
        # triple, one per executed matrix (GrowLocal's reorder and the
        # unpermuted matrix) and one for the serial cycles.  FIFO
        # evicted the shared entries mid-suite and silently rebuilt them.
        assert cache.misses == len(schedulers) + 3
        # the shared serial denominator means every scheduler reports the
        # same serial cycles even under eviction pressure
        serial = {rows[0].serial_cycles for rows in results.values()}
        assert len(serial) == 1

    def test_bounded_suite_matches_unbounded(self, instances):
        schedulers = {"gl": GrowLocalScheduler(),
                      "wf": WavefrontScheduler()}
        bounded = run_suite(instances, schedulers, MACHINE,
                            plan_cache=PlanCache(max_entries=2))
        unbounded = run_suite(instances, schedulers, MACHINE,
                              plan_cache=PlanCache())
        for name in schedulers:
            for a, b in zip(bounded[name], unbounded[name], strict=True):
                assert a.speedup == b.speedup
                assert a.parallel_cycles == b.parallel_cycles


class TestSchedulingTimeScope:
    def test_reordering_counted_in_scheduling_seconds(self, instances):
        """Section 5 reordering is scheduling-side work (Eq. 7.1): with
        reordering on, scheduling_seconds must include the permutation,
        so it can only grow relative to the pure scheduling time."""
        inst = instances[0]
        r = run_instance(inst, GrowLocalScheduler(), MACHINE)
        assert r.reordered
        assert r.scheduling_seconds > 0.0

    def test_amortization_uses_inclusive_time(self, instances):
        inst = instances[0]
        r = run_instance(inst, GrowLocalScheduler(), MACHINE)
        serial_s = MACHINE.cycles_to_seconds(r.serial_cycles)
        parallel_s = MACHINE.cycles_to_seconds(r.parallel_cycles)
        expected = r.scheduling_seconds / (serial_s - parallel_s)
        assert r.amortization == pytest.approx(expected)
