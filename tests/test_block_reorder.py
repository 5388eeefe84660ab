"""Tests for block-parallel scheduling (Section 3.1) and the locality
reordering (Section 5)."""

import numpy as np
import pytest

from repro.errors import ReproError
from hypothesis import given, settings

from repro.graph.dag import DAG
from repro.scheduler import (
    BlockScheduler,
    GrowLocalScheduler,
    SerialScheduler,
    split_rows_by_weight,
)
from repro.scheduler.reorder import apply_reordering, schedule_reordering
from repro.solver.sptrsv import forward_substitution
from tests.conftest import dag_and_cores, lower_triangular_matrices


class TestSplitRows:
    def test_equal_weights(self):
        parts = split_rows_by_weight(np.ones(10, dtype=int), 2)
        assert [p.size for p in parts] == [5, 5]
        np.testing.assert_array_equal(np.concatenate(parts), np.arange(10))

    def test_skewed_weights(self):
        w = np.array([100, 1, 1, 1, 1])
        parts = split_rows_by_weight(w, 2)
        # first block carries the heavy row alone-ish
        assert parts[0].size < parts[1].size

    def test_more_blocks_than_rows(self):
        parts = split_rows_by_weight(np.ones(2, dtype=int), 5)
        assert sum(p.size for p in parts) == 2

    def test_invalid(self):
        with pytest.raises(ReproError):
            split_rows_by_weight(np.ones(3), 0)


class TestBlockScheduler:
    def test_name(self):
        b = BlockScheduler(GrowLocalScheduler(), 4)
        assert b.name == "block4+growlocal"

    def test_single_block_equals_inner(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        inner = GrowLocalScheduler()
        direct = inner.schedule(dag, 4)
        block = BlockScheduler(GrowLocalScheduler(), 1).schedule(dag, 4)
        np.testing.assert_array_equal(direct.cores, block.cores)
        np.testing.assert_array_equal(direct.supersteps, block.supersteps)

    def test_superstep_offsets_increase(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        s = BlockScheduler(SerialScheduler(), 3).schedule(dag, 2)
        # serial inner gives one superstep per block -> 3 supersteps
        assert s.n_supersteps == 3
        # rows of later blocks sit in later supersteps
        assert s.supersteps[0] <= s.supersteps[-1]

    def test_more_blocks_more_supersteps(self, small_band_lower):
        dag = DAG.from_lower_triangular(small_band_lower)
        s1 = BlockScheduler(GrowLocalScheduler(), 1).schedule(dag, 4)
        s4 = BlockScheduler(GrowLocalScheduler(), 4).schedule(dag, 4)
        assert s4.n_supersteps >= s1.n_supersteps

    def test_timing_attributes(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        b = BlockScheduler(GrowLocalScheduler(), 4)
        b.schedule(dag, 2)
        assert len(b.last_block_times) == 4
        assert b.parallel_scheduling_time <= b.total_scheduling_time + 1e-12

    def test_invalid_blocks(self):
        with pytest.raises(ReproError):
            BlockScheduler(SerialScheduler(), 0)


@settings(max_examples=25, deadline=None)
@given(dag_and_cores(max_n=35, max_cores=4))
def test_property_block_schedules_valid(dc):
    dag, cores = dc
    for n_blocks in (2, 3):
        s = BlockScheduler(GrowLocalScheduler(), n_blocks).schedule(
            dag, cores
        )
        s.validate(dag)
        assert s.n == dag.n


class TestReordering:
    def test_permutation_is_topological(self, small_er_lower):
        dag = DAG.from_lower_triangular(small_er_lower)
        s = GrowLocalScheduler().schedule(dag, 4)
        perm = schedule_reordering(s)
        # permuted matrix must stay lower triangular (Section 5)
        from repro.matrix.permute import permute_symmetric

        permuted = permute_symmetric(small_er_lower, perm)
        assert permuted.is_lower_triangular()

    def test_solution_equivalence(self, small_er_lower):
        """Solving the reordered problem gives the same solution after
        mapping back (the permuted problem is equivalent)."""
        dag = DAG.from_lower_triangular(small_er_lower)
        s = GrowLocalScheduler().schedule(dag, 4)
        b = np.arange(small_er_lower.n, dtype=np.float64) + 1.0
        x_ref = forward_substitution(small_er_lower, b)
        mat2, b2, s2, perm = apply_reordering(small_er_lower, b, s)
        s2.validate(DAG.from_lower_triangular(mat2))
        x2 = forward_substitution(mat2, b2)
        np.testing.assert_allclose(x2[perm], x_ref, rtol=1e-10)

    def test_reordered_rows_consecutive_per_cell(self, small_er_lower):
        """After reordering, each (superstep, core) cell holds a
        consecutive id range — the locality property."""
        dag = DAG.from_lower_triangular(small_er_lower)
        s = GrowLocalScheduler().schedule(dag, 4)
        perm = schedule_reordering(s)
        s2 = s.reorder_vertices(perm)
        for row in s2.execution_lists():
            for cell in row:
                if cell.size > 1:
                    assert np.array_equal(
                        cell, np.arange(cell[0], cell[0] + cell.size)
                    )


@settings(max_examples=25, deadline=None)
@given(lower_triangular_matrices(max_n=30))
def test_property_reordering_preserves_solutions(m):
    dag = DAG.from_lower_triangular(m)
    s = GrowLocalScheduler().schedule(dag, 3)
    b = np.ones(m.n)
    x_ref = forward_substitution(m, b)
    mat2, b2, s2, perm = apply_reordering(m, b, s)
    x2 = forward_substitution(mat2, b2)
    np.testing.assert_allclose(x2[perm], x_ref, rtol=1e-9, atol=1e-12)
