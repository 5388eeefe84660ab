"""Regression tests for the cost-model and backend-kernel bug fixes.

Each test here encodes a bug that shipped with the execution-plan
subsystem (PR 1) and the fix that removed it:

* ``row_costs_for_sequence`` crashed with ``IndexError`` when the last
  rows of a sequence had zero stored entries (``np.add.reduceat`` with a
  segment bound equal to the stream length) — reachable through
  ``check_diagonal=False`` simulator plans on matrices with missing
  diagonals;
* ``NumpyBackend.solve_block`` allocated its output with
  ``np.zeros_like(b_block)``, so integer right-hand-side blocks were
  silently truncated to integer results; neither ``solve`` nor
  ``solve_block`` validated the RHS shape against the plan.
"""

import numpy as np
import pytest

from repro.errors import MatrixFormatError
from repro.exec import compile_plan, get_backend
from repro.machine.cache import row_costs_for_sequence
from repro.machine.model import MachineModel
from repro.machine.serial_sim import simulate_serial
from repro.matrix.csr import CSRMatrix
from repro.matrix.generators import erdos_renyi_lower

MACHINE = MachineModel(name="t", n_cores=2, barrier_latency=10.0,
                       cache_lines=16)


def _matrix_with_empty_tail_rows() -> CSRMatrix:
    """Lower-triangular matrix whose last two rows store no entries."""
    return CSRMatrix(
        4,
        np.array([0, 1, 3, 3, 3]),
        np.array([0, 0, 1]),
        np.array([2.0, 0.5, 3.0]),
    )


class TestRowCostsZeroNnzRows:
    def test_trailing_empty_rows_do_not_crash(self):
        """Regression: reduceat raised IndexError when trailing rows of
        the sequence contributed zero accesses."""
        m = _matrix_with_empty_tail_rows()
        costs = row_costs_for_sequence(m, np.arange(4), MACHINE)
        assert costs.shape == (4,)
        assert np.all(np.isfinite(costs))
        # empty rows pay the row overhead only (no x-vector misses, no
        # per-nnz cycles, and — being successors of the previous row —
        # no matrix-stream jump line)
        assert costs[2] == pytest.approx(MACHINE.row_overhead)
        assert costs[3] == pytest.approx(MACHINE.row_overhead)

    def test_empty_rows_in_the_middle(self):
        m = _matrix_with_empty_tail_rows()
        costs = row_costs_for_sequence(m, np.array([2, 0, 3, 1]), MACHINE)
        assert costs.shape == (4,)
        assert np.all(np.isfinite(costs))

    def test_matches_previous_behavior_on_dense_rows(self):
        """The bounds-safe segment sum is bit-identical to the old
        reduceat path whenever every row stores entries."""
        lower = erdos_renyi_lower(300, 0.02, seed=5)
        seq = np.arange(300)
        from repro.machine.cache import (
            reuse_distance_misses,
            x_access_stream,
        )

        stream, counts = x_access_stream(lower, seq)
        misses = reuse_distance_misses(
            stream // MACHINE.line_elems, MACHINE.cache_lines
        )
        bounds = np.zeros(seq.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        x_miss_old = np.add.reduceat(misses.astype(np.float64), bounds[:-1])
        jumps = np.ones(seq.size)
        jumps[1:] = (seq[1:] != seq[:-1] + 1).astype(np.float64)
        expected = (
            MACHINE.row_overhead
            + MACHINE.cycles_per_nnz * counts
            + MACHINE.miss_penalty
            * (x_miss_old + counts / MACHINE.line_elems + jumps)
        )
        got = row_costs_for_sequence(lower, seq, MACHINE)
        np.testing.assert_array_equal(got, expected)

    def test_simulator_prices_missing_diagonal_plan(self):
        """End-to-end reachability: a matrix with missing diagonals
        compiles as a ``check_diagonal=False`` plan and simulates, not
        crashes."""
        m = _matrix_with_empty_tail_rows()
        assert compile_plan(m, check_diagonal=False).singular_row >= 0
        cycles = simulate_serial(m, MACHINE)
        assert cycles > 0.0


class TestSolveBlockDtypeAndValidation:
    @pytest.fixture(scope="class")
    def plan(self):
        return compile_plan(erdos_renyi_lower(150, 0.03, seed=2))

    def test_integer_rhs_block_not_truncated(self, plan):
        """Regression: ``np.zeros_like`` inherited the integer dtype of
        the RHS block, truncating every result toward zero."""
        backend = get_backend("numpy")
        b_int = np.arange(1, 151, dtype=np.int64)
        b_block = np.stack([b_int, 2 * b_int], axis=1)
        x_block = backend.solve_block(plan, b_block)
        assert x_block.dtype == np.float64
        expected = np.stack(
            [backend.solve(plan, b_int.astype(np.float64)),
             backend.solve(plan, 2.0 * b_int)],
            axis=1,
        )
        np.testing.assert_array_equal(x_block, expected)
        assert not np.allclose(x_block, np.trunc(x_block))  # fractional

    def test_integer_single_rhs_coerced(self, plan):
        backend = get_backend("numpy")
        x = backend.solve(plan, np.arange(1, 151, dtype=np.int32))
        np.testing.assert_array_equal(
            x, backend.solve(plan, np.arange(1, 151, dtype=np.float64))
        )

    def test_solve_rejects_wrong_length(self, plan):
        backend = get_backend("numpy")
        with pytest.raises(MatrixFormatError):
            backend.solve(plan, np.ones(149))

    def test_solve_block_rejects_wrong_shape(self, plan):
        backend = get_backend("numpy")
        with pytest.raises(MatrixFormatError):
            backend.solve_block(plan, np.ones((149, 3)))
        with pytest.raises(MatrixFormatError):
            backend.solve_block(plan, np.ones(150))  # 1-D is not a block

    def test_integer_output_buffer_rejected(self, plan):
        """An out-param cannot be coerced (results must land in the
        caller's buffer), so a truncating dtype raises instead."""
        backend = get_backend("numpy")
        with pytest.raises(MatrixFormatError):
            backend.solve(plan, np.ones(150),
                          x=np.zeros(150, dtype=np.int64))
        with pytest.raises(MatrixFormatError):
            backend.solve_block(plan, np.ones((150, 2)),
                                x_block=np.zeros((150, 2),
                                                 dtype=np.int32))
        with pytest.raises(MatrixFormatError):
            backend.solve(plan, np.ones(150), x=np.zeros(149))

    def test_valid_output_buffer_filled_in_place(self, plan):
        backend = get_backend("numpy")
        out = np.zeros(150)
        result = backend.solve(plan, np.ones(150), x=out)
        assert result is out
        np.testing.assert_array_equal(out, backend.solve(plan,
                                                         np.ones(150)))

    def test_block_columns_bit_equal_single_solves(self, plan):
        """The invariant the coalescing service relies on: every column
        of a block solve is bit-equal to the single-RHS solve."""
        backend = get_backend("numpy")
        rng = np.random.default_rng(3)
        b_block = rng.standard_normal((150, 7))
        x_block = backend.solve_block(plan, b_block)
        for j in range(7):
            np.testing.assert_array_equal(
                x_block[:, j], backend.solve(plan, b_block[:, j])
            )
