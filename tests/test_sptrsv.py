"""Tests for the serial SpTRSV kernels and the threaded schedule executor."""

import numpy as np
import pytest
from hypothesis import given, settings

import scipy.sparse.linalg as spla

from repro.errors import (
    InvalidScheduleError,
    MatrixFormatError,
    ReproError,
    SingularMatrixError,
)
from repro.graph.dag import DAG
from repro.matrix.csr import CSRMatrix
from repro.scheduler.schedule import Schedule
from repro.solver.sptrsv import backward_substitution, forward_substitution
from repro.solver.threaded import threaded_sptrsv
from tests.conftest import all_schedulers, lower_triangular_matrices


class TestForward:
    def test_matches_scipy(self, small_er_lower):
        b = np.arange(small_er_lower.n, dtype=np.float64) + 1.0
        x = forward_substitution(small_er_lower, b)
        expected = spla.spsolve_triangular(
            small_er_lower.to_scipy().tocsr(), b, lower=True
        )
        np.testing.assert_allclose(x, expected, rtol=1e-9)

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(
            forward_substitution(CSRMatrix.identity(3), b), b
        )

    def test_residual_small(self, small_band_lower):
        b = np.ones(small_band_lower.n)
        x = forward_substitution(small_band_lower, b)
        residual = small_band_lower.matvec(x) - b
        assert np.linalg.norm(residual) < 1e-8 * np.linalg.norm(b)

    def test_zero_diagonal_rejected(self):
        m = CSRMatrix.from_coo(2, [0, 1, 1], [0, 0, 1], [1.0, 1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            forward_substitution(m, np.ones(2))

    def test_missing_diagonal_rejected(self):
        m = CSRMatrix.from_coo(2, [0, 1], [0, 0], [1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            forward_substitution(m, np.ones(2))

    def test_wrong_rhs_length(self):
        with pytest.raises(MatrixFormatError):
            forward_substitution(CSRMatrix.identity(3), np.ones(4))

    def test_not_lower_rejected(self):
        m = CSRMatrix.from_coo(2, [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(ReproError):
            forward_substitution(m, np.ones(2))


class TestBackward:
    def test_matches_scipy(self, small_er_lower):
        upper = small_er_lower.transpose()
        b = np.linspace(1, 2, upper.n)
        x = backward_substitution(upper, b)
        expected = spla.spsolve_triangular(
            upper.to_scipy().tocsr(), b, lower=False
        )
        np.testing.assert_allclose(x, expected, rtol=1e-9)

    def test_rejects_lower(self, small_er_lower):
        with pytest.raises(MatrixFormatError):
            backward_substitution(small_er_lower, np.ones(small_er_lower.n))


class TestScheduled:
    def test_all_schedulers_equivalent(self, small_grid_lower):
        """Every scheduler's schedule, run as its barrier program, solves
        the system exactly like the serial kernel."""
        dag = DAG.from_lower_triangular(small_grid_lower)
        b = np.sin(np.arange(small_grid_lower.n))
        x_ref = forward_substitution(small_grid_lower, b)
        for sched in all_schedulers():
            s = sched.schedule(dag, 4)
            x = threaded_sptrsv(small_grid_lower, b, s)
            np.testing.assert_allclose(x, x_ref, rtol=1e-10,
                                       err_msg=sched.name)

    def test_invalid_schedule_detected(self, small_grid_lower):
        """Failure injection: a schedule that races a dependency is
        refused before any thread runs it."""
        n = small_grid_lower.n
        # everything in one superstep split across two cores: guaranteed
        # to race on a connected grid
        s = Schedule(
            np.arange(n) % 2, np.zeros(n, dtype=np.int64), 2
        )
        b = np.ones(n)
        with pytest.raises(InvalidScheduleError):
            threaded_sptrsv(small_grid_lower, b, s)

    def test_schedule_size_mismatch(self, small_grid_lower):
        s = Schedule(np.zeros(3, dtype=int), np.zeros(3, dtype=int), 1)
        with pytest.raises(MatrixFormatError):
            threaded_sptrsv(small_grid_lower, np.ones(small_grid_lower.n),
                            s)


@settings(max_examples=40, deadline=None)
@given(lower_triangular_matrices(max_n=30))
def test_property_forward_matches_dense_solve(m):
    b = np.ones(m.n)
    x = forward_substitution(m, b)
    expected = np.linalg.solve(m.to_dense(), b) if m.n else b
    np.testing.assert_allclose(x, expected, rtol=1e-7, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(lower_triangular_matrices(max_n=30))
def test_property_forward_backward_adjoint(m):
    """Solving L x = b then L^T y = x is (L L^T)^{-1} b."""
    b = np.ones(m.n)
    x = forward_substitution(m, b)
    y = backward_substitution(m.transpose(), x)
    if m.n:
        # random triangles can be badly conditioned; compare with a
        # tolerance proportional to the solution magnitude
        expected = np.linalg.solve(m.to_dense() @ m.to_dense().T, b)
        scale = np.abs(expected).max() or 1.0
        np.testing.assert_allclose(y / scale, expected / scale,
                                   rtol=1e-4, atol=1e-6)
