"""Tests for execution traces and the Gantt renderer."""

import numpy as np
import pytest

from repro.graph.dag import DAG
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.model import MachineModel
from repro.machine.trace import ExecutionTrace, render_gantt, trace_bsp
from repro.scheduler import GrowLocalScheduler, WavefrontScheduler

MACHINE = MachineModel(
    name="t", n_cores=4, cycles_per_nnz=1.0, row_overhead=0.0,
    barrier_latency=7.0, barrier_per_core=0.0, miss_penalty=0.0,
)


class TestTrace:
    def test_total_matches_bsp_sim(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        s = GrowLocalScheduler().schedule(dag, 4)
        trace = trace_bsp(small_er_lower, s, MACHINE)
        sim = simulate_bsp(small_er_lower, s, MACHINE)
        assert trace.total_cycles == pytest.approx(sim.total_cycles)
        assert trace.barrier_cycles() == pytest.approx(sim.barrier_cycles)

    def test_utilization_bounds(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        s = WavefrontScheduler().schedule(dag, 4)
        trace = trace_bsp(small_er_lower, s, MACHINE)
        assert 0.0 < trace.utilization() <= 1.0

    def test_perfect_balance_utilization(self):
        busy = np.full((2, 2), 5.0)
        trace = ExecutionTrace(busy, barrier_cost=0.0)
        assert trace.utilization() == pytest.approx(1.0)
        assert trace.imbalance_cycles() == 0.0

    def test_imbalance_accounting(self):
        busy = np.array([[10.0, 0.0]])
        trace = ExecutionTrace(busy, barrier_cost=0.0)
        assert trace.imbalance_cycles() == pytest.approx(5.0)
        np.testing.assert_allclose(
            trace.idle_fraction_per_core(), [0.0, 1.0]
        )

    def test_empty_trace(self):
        trace = ExecutionTrace(np.zeros((0, 4)), barrier_cost=1.0)
        assert trace.total_cycles == 0.0
        assert trace.utilization() == 1.0


class TestGantt:
    def test_renders_rows_per_core(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        s = GrowLocalScheduler().schedule(dag, 3)
        trace = trace_bsp(small_er_lower, s, MACHINE)
        art = render_gantt(trace)
        assert art.count("core ") == 3
        assert "utilization" in art

    def test_empty(self):
        assert "(empty trace)" in render_gantt(
            ExecutionTrace(np.zeros((0, 2)), 0.0)
        )

    def test_truncation(self):
        busy = np.ones((100, 2))
        art = render_gantt(ExecutionTrace(busy, 0.0), max_supersteps=5)
        assert "first 5 of 100" in art

