"""Tests for the machine model, cache model, and execution simulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph.dag import DAG
from repro.machine.async_sim import simulate_async
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.cache import (
    reuse_distance_misses,
    row_costs_for_sequence,
    x_access_stream,
)
from repro.machine.model import MachineModel, get_machine, list_machines
from repro.machine.serial_sim import simulate_serial
from repro.scheduler import (
    GrowLocalScheduler,
    SerialScheduler,
    SpMPScheduler,
    WavefrontScheduler,
)
from repro.scheduler.schedule import Schedule


SIMPLE = MachineModel(
    name="simple", n_cores=4, cycles_per_nnz=1.0, row_overhead=0.0,
    barrier_latency=10.0, barrier_per_core=0.0, p2p_latency=5.0,
    p2p_check=0.0, cache_lines=10**9, line_elems=8, miss_penalty=0.0,
)


class TestModel:
    def test_presets_exist(self):
        assert set(list_machines()) == {
            "intel_xeon_6238t", "amd_epyc_7763", "kunpeng_920"
        }
        intel = get_machine("intel_xeon_6238t")
        assert intel.n_cores == 22
        assert get_machine("amd_epyc_7763").n_cores == 64
        assert get_machine("kunpeng_920").n_cores == 48

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            get_machine("cray")

    def test_barrier_cost_scaling(self):
        m = SIMPLE
        assert m.barrier_cost(1) == 0.0
        assert m.barrier_cost(4) == 10.0
        grown = MachineModel(name="x", n_cores=8, barrier_latency=10.0,
                             barrier_per_core=2.0)
        assert grown.barrier_cost(5) == 10.0 + 8.0

    def test_with_cores(self):
        m = get_machine("intel_xeon_6238t").with_cores(4)
        assert m.n_cores == 4
        assert m.barrier_latency == get_machine(
            "intel_xeon_6238t").barrier_latency

    def test_cycles_to_seconds(self):
        m = MachineModel(name="x", n_cores=1, clock_ghz=2.0)
        assert m.cycles_to_seconds(2e9) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MachineModel(name="x", n_cores=0)


class TestCacheModel:
    def test_cold_misses(self):
        lines = np.array([0, 1, 2, 3])
        np.testing.assert_array_equal(
            reuse_distance_misses(lines, window=100),
            [True, True, True, True],
        )

    def test_immediate_reuse_hits(self):
        lines = np.array([0, 0, 1, 1, 0])
        miss = reuse_distance_misses(lines, window=100)
        np.testing.assert_array_equal(miss, [1, 0, 1, 0, 0])

    def test_window_eviction(self):
        # line 0 reused after 3 intervening accesses; window 2 -> miss
        lines = np.array([0, 1, 2, 3, 0])
        assert reuse_distance_misses(lines, window=2)[4]
        assert not reuse_distance_misses(lines, window=10)[4]

    def test_empty(self):
        assert reuse_distance_misses(np.array([], dtype=int), 4).size == 0

    def test_x_access_stream(self, small_er_lower):
        seq = np.arange(small_er_lower.n)
        stream, counts = x_access_stream(small_er_lower, seq)
        assert stream.size == small_er_lower.nnz
        np.testing.assert_array_equal(counts, small_er_lower.row_nnz())

    def test_row_costs_compute_term(self, small_er_lower):
        machine = MachineModel(
            name="x", n_cores=1, cycles_per_nnz=3.0, row_overhead=2.0,
            miss_penalty=0.0,
        )
        seq = np.arange(small_er_lower.n)
        costs = row_costs_for_sequence(small_er_lower, seq, machine)
        expected = 2.0 + 3.0 * small_er_lower.row_nnz()
        np.testing.assert_allclose(costs, expected)

    def test_scattered_sequence_pays_more(self, small_band_lower):
        """Executing rows in a random order must cost more than in storage
        order (the effect Section 5's reordering removes)."""
        machine = MachineModel(
            name="x", n_cores=1, cache_lines=16, miss_penalty=50.0,
        )
        n = small_band_lower.n
        ordered = row_costs_for_sequence(
            small_band_lower, np.arange(n), machine
        ).sum()
        rng = np.random.default_rng(0)
        scattered = row_costs_for_sequence(
            small_band_lower, rng.permutation(n), machine
        ).sum()
        assert scattered > ordered


class TestSerialSim:
    def test_exact_value_no_cache(self, small_er_lower):
        machine = MachineModel(
            name="x", n_cores=1, cycles_per_nnz=2.0, row_overhead=1.0,
            miss_penalty=0.0,
        )
        total = simulate_serial(small_er_lower, machine)
        assert total == pytest.approx(
            2.0 * small_er_lower.nnz + small_er_lower.n
        )


class TestBSPSim:
    def test_serial_schedule_equals_serial_sim(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        s = SerialScheduler().schedule(dag, 1)
        sim = simulate_bsp(small_er_lower, s, SIMPLE)
        assert sim.total_cycles == pytest.approx(
            simulate_serial(small_er_lower, SIMPLE)
        )
        assert sim.barrier_cycles == 0.0

    def test_barrier_accounting(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        s = WavefrontScheduler().schedule(dag, 4)
        sim = simulate_bsp(small_er_lower, s, SIMPLE)
        assert sim.barrier_cycles == pytest.approx(
            10.0 * (s.n_supersteps - 1)
        )
        assert sim.n_supersteps == s.n_supersteps

    def test_speedup_bounded_by_cores(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        serial = simulate_serial(small_er_lower, SIMPLE)
        for sched in (GrowLocalScheduler(), WavefrontScheduler()):
            sim = simulate_bsp(
                small_er_lower, sched.schedule(dag, 4), SIMPLE
            )
            assert 0 < sim.speedup_over(serial) <= 4.0 + 1e-9

    def test_compute_path_is_max_over_cores(self):
        # two independent vertices on two cores in one superstep:
        # compute path = max row cost
        from repro.matrix.csr import CSRMatrix

        m = CSRMatrix.from_coo(2, [0, 1], [0, 1], [1.0, 1.0])
        s = Schedule(np.array([0, 1]), np.array([0, 0]), 2)
        sim = simulate_bsp(m, s, SIMPLE)
        costs = row_costs_for_sequence(m, np.array([0]), SIMPLE)
        assert sim.compute_cycles == pytest.approx(costs[0])


class TestAsyncSim:
    def test_chain_is_serial_plus_waits(self):
        """A two-core schedule of a chain cannot beat serial; the async
        makespan includes p2p latency per cross-core hop."""
        from repro.matrix.csr import CSRMatrix

        n = 6
        rows = [0] + [i for i in range(1, n) for _ in (0, 1)]
        cols = [0] + [c for i in range(1, n) for c in (i - 1, i)]
        vals = [1.0] * len(rows)
        m = CSRMatrix.from_coo(n, rows, cols, vals)
        dag = DAG.from_lower_triangular(m)
        # alternate cores along the chain: every edge crosses cores
        s = Schedule(np.arange(n) % 2, np.arange(n), 2)
        sim = simulate_async(m, s, dag, SIMPLE)
        base = row_costs_for_sequence(m, np.arange(n), SIMPLE).sum()
        assert sim.total_cycles >= base + 5.0 * (n - 1)
        assert sim.cross_core_deps == n - 1

    def test_independent_rows_parallelize(self):
        from repro.matrix.csr import CSRMatrix

        n = 8
        m = CSRMatrix.identity(n)
        dag = DAG.from_lower_triangular(m)
        s = Schedule(np.arange(n) % 4, np.zeros(n, dtype=np.int64), 4)
        sim = simulate_async(m, s, dag, SIMPLE)
        serial = simulate_serial(m, SIMPLE)
        assert sim.total_cycles == pytest.approx(serial / 4)
        assert sim.wait_cycles == 0.0

    def test_spmp_pipeline_beats_bsp_on_band(self, small_band_lower):
        """On a narrow-band matrix the asynchronous execution pipelines
        across levels and beats the barrier execution of the same level
        schedule — SpMP's raison d'etre."""
        dag = DAG.from_lower_triangular(small_band_lower)
        spmp = SpMPScheduler()
        s = spmp.schedule(dag, 4)
        async_t = simulate_async(
            small_band_lower, s, spmp.sync_dag, SIMPLE
        ).total_cycles
        bsp_t = simulate_bsp(small_band_lower, s, SIMPLE).total_cycles
        assert async_t < bsp_t


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**31 - 1))
def test_property_bsp_total_at_least_ideal(n, seed):
    """Simulated parallel time is never below total work / cores."""
    from repro.matrix.generators import erdos_renyi_lower

    lower = erdos_renyi_lower(n, 0.2, seed=seed)
    dag = DAG.from_lower_triangular(lower)
    s = GrowLocalScheduler().schedule(dag, 4)
    sim = simulate_bsp(lower, s, SIMPLE)
    total_work = row_costs_for_sequence(
        lower, np.arange(n), SIMPLE
    ).sum()
    assert sim.total_cycles >= total_work / 4 - 1e-9


#: Totals of three seeded (matrix, scheduler) pairs at 4 cores on
#: ``intel_xeon_6238t``: ``simulate_bsp``, ``simulate_async``,
#: ``simulate_serial`` and ``trace_bsp``, recorded when the simulators
#: still priced a compiled plan's copy of the schedule.  Pricing the
#: Schedule itself must reproduce them exactly.
PINNED_TOTALS = [
    ("narrow-band", "growlocal", (5116.0, 3672.0, 6790.0, 5116.0)),
    ("erdos-renyi", "spmp", (29908.0, 25544.0, 10682.0, 29908.0)),
    ("grid", "hdagg", (30333.0, 30721.0, 4480.0, 30333.0)),
]


def _pinned_case(name, scheduler_name):
    from repro.matrix.generators import (
        erdos_renyi_lower,
        grid_laplacian_2d,
        narrow_band_lower,
    )
    from repro.scheduler.registry import make_scheduler

    lower = {
        "narrow-band": lambda: narrow_band_lower(300, 0.1, 6.0, seed=0),
        "erdos-renyi": lambda: erdos_renyi_lower(200, 0.05, seed=1),
        "grid": lambda: grid_laplacian_2d(12, 12).lower_triangle(),
    }[name]()
    dag = DAG.from_lower_triangular(lower)
    scheduler = make_scheduler(scheduler_name)
    schedule = scheduler.schedule(dag, 4)
    sync_dag = getattr(scheduler, "sync_dag", None) or dag
    return lower, schedule, sync_dag


class TestPinnedTotals:
    @pytest.mark.parametrize(
        "name, scheduler_name, totals", PINNED_TOTALS,
        ids=[f"{n}-{s}" for n, s, _ in PINNED_TOTALS],
    )
    def test_totals_are_exact(self, name, scheduler_name, totals):
        from repro.machine.trace import trace_bsp

        machine = get_machine("intel_xeon_6238t")
        lower, schedule, sync_dag = _pinned_case(name, scheduler_name)
        assert (
            simulate_bsp(lower, schedule, machine).total_cycles,
            simulate_async(lower, schedule, sync_dag, machine).total_cycles,
            simulate_serial(lower, machine),
            trace_bsp(lower, schedule, machine).total_cycles,
        ) == totals

    def test_simulators_compile_nothing(self):
        from repro.exec import compile_count
        from repro.machine.trace import trace_bsp

        machine = get_machine("intel_xeon_6238t")
        lower, schedule, sync_dag = _pinned_case("narrow-band", "growlocal")
        before = compile_count()
        simulate_bsp(lower, schedule, machine)
        simulate_async(lower, schedule, sync_dag, machine)
        simulate_serial(lower, machine)
        trace_bsp(lower, schedule, machine)
        assert compile_count() == before
