"""Tests for the real-thread SpTRSV executor."""

import numpy as np
import pytest

from repro.errors import (
    InvalidScheduleError,
    MatrixFormatError,
    SingularMatrixError,
)
from repro.graph.dag import DAG
from repro.matrix.csr import CSRMatrix
from repro.matrix.generators import narrow_band_lower
from repro.scheduler import GrowLocalScheduler, WavefrontScheduler
from repro.scheduler.schedule import Schedule
from repro.solver import threaded
from repro.solver.sptrsv import forward_substitution
from repro.solver.threaded import threaded_sptrsv


def test_matches_serial(small_grid_lower):
    dag = DAG.from_lower_triangular(small_grid_lower)
    b = np.cos(np.arange(small_grid_lower.n))
    x_ref = forward_substitution(small_grid_lower, b)
    for sched in (GrowLocalScheduler(), WavefrontScheduler()):
        s = sched.schedule(dag, 4)
        x = threaded_sptrsv(small_grid_lower, b, s)
        np.testing.assert_allclose(x, x_ref, rtol=1e-10)


def test_single_core(small_er_lower):
    dag = DAG.from_lower_triangular(small_er_lower)
    s = GrowLocalScheduler().schedule(dag, 1)
    b = np.ones(small_er_lower.n)
    x = threaded_sptrsv(small_er_lower, b, s)
    np.testing.assert_allclose(
        x, forward_substitution(small_er_lower, b), rtol=1e-10
    )


def test_worker_error_propagates():
    """A singular row must raise in the caller, not deadlock workers."""
    m = CSRMatrix.from_coo(
        4, [0, 1, 2, 3], [0, 1, 2, 3], [1.0, 1.0, 0.0, 1.0]
    )
    dag = DAG.from_lower_triangular(m)
    s = WavefrontScheduler().schedule(dag, 2)
    with pytest.raises(SingularMatrixError):
        threaded_sptrsv(m, np.ones(4), s)


def test_rhs_length_checked(small_er_lower):
    dag = DAG.from_lower_triangular(small_er_lower)
    s = GrowLocalScheduler().schedule(dag, 2)
    with pytest.raises(MatrixFormatError):
        threaded_sptrsv(small_er_lower, np.ones(3), s)


def test_racing_schedule_refused_before_any_thread_starts(monkeypatch):
    """Every row in superstep 0, split over 2 cores: without the check the
    threads return a wrong ``x`` that varies from run to run."""
    lower = narrow_band_lower(400, 0.2, 6.0, seed=0)
    n = lower.n
    racing = Schedule(np.arange(n) % 2, np.zeros(n, dtype=np.int64), 2)
    assert not racing.is_valid(DAG.from_lower_triangular(lower))

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threaded.threading, "Thread", no_thread)
    with pytest.raises(InvalidScheduleError):
        threaded_sptrsv(lower, np.ones(n), racing)
