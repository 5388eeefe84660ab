"""Tests for the backward dependence DAG, backward schedules and
multi-RHS SpTRSM."""

import numpy as np
import pytest
from hypothesis import given, settings

import scipy.sparse.linalg as spla

from repro.errors import MatrixFormatError
from repro.graph.dag import DAG
from repro.matrix.csr import CSRMatrix
from repro.scheduler import GrowLocalScheduler, WavefrontScheduler
from repro.solver.backward import backward_dag, forward_sptrsm
from repro.solver.sptrsv import backward_substitution, forward_substitution
from tests.conftest import lower_triangular_matrices


class TestBackwardDAG:
    def test_edges_reverse_forward(self, small_er_lower):
        upper = small_er_lower.transpose()
        bdag = backward_dag(upper)
        fdag = DAG.from_lower_triangular(small_er_lower)
        # the backward DAG of L^T is the reverse of L's forward DAG
        assert bdag.m == fdag.m
        src_b, dst_b = bdag.edges()
        rev = fdag.reversed()
        src_r, dst_r = rev.edges()
        assert set(zip(src_b.tolist(), dst_b.tolist(), strict=True)) == set(
            zip(src_r.tolist(), dst_r.tolist(), strict=True)
        )

    def test_rejects_lower(self, small_er_lower):
        with pytest.raises(MatrixFormatError):
            backward_dag(small_er_lower)


class TestScheduledBackward:
    def test_matches_serial_backward(self, small_er_lower):
        """Schedules of the backward DAG are valid for it, and backward
        substitution on ``U`` matches scipy."""
        upper = small_er_lower.transpose()
        bdag = backward_dag(upper)
        for sched in (GrowLocalScheduler(), WavefrontScheduler()):
            sched.schedule(bdag, 4).validate(bdag)
        b = np.linspace(1.0, 2.0, upper.n)
        np.testing.assert_allclose(
            backward_substitution(upper, b),
            spla.spsolve_triangular(upper.to_scipy().tocsr(), b,
                                    lower=False),
            rtol=1e-10,
        )


class TestSpTRSM:
    def test_forward_sptrsm_matches_columnwise(self, small_er_lower):
        rng = np.random.default_rng(0)
        b_block = rng.random((small_er_lower.n, 5))
        x_block = forward_sptrsm(small_er_lower, b_block)
        for k in range(5):
            np.testing.assert_allclose(
                x_block[:, k],
                forward_substitution(small_er_lower, b_block[:, k]),
                rtol=1e-10,
            )

    def test_shape_validation(self, small_er_lower):
        with pytest.raises(MatrixFormatError):
            forward_sptrsm(small_er_lower, np.ones(small_er_lower.n))
        with pytest.raises(MatrixFormatError):
            forward_sptrsm(small_er_lower, np.ones((3, 2)))

    def test_single_column_block(self):
        m = CSRMatrix.identity(4)
        x = forward_sptrsm(m, np.ones((4, 1)))
        np.testing.assert_allclose(x, np.ones((4, 1)))


@settings(max_examples=25, deadline=None)
@given(lower_triangular_matrices(max_n=25))
def test_property_backward_schedule_roundtrip(m):
    """Any GrowLocal schedule of the backward DAG is valid for it, and
    backward substitution on ``U`` matches scipy."""
    upper = m.transpose()
    bdag = backward_dag(upper)
    GrowLocalScheduler().schedule(bdag, 3).validate(bdag)
    b = np.ones(m.n)
    np.testing.assert_allclose(
        backward_substitution(upper, b),
        spla.spsolve_triangular(upper.to_scipy().tocsr(), b, lower=False),
        rtol=1e-7, atol=1e-9,
    )


@settings(max_examples=25, deadline=None)
@given(lower_triangular_matrices(max_n=25))
def test_property_sptrsm_consistent(m):
    b_block = np.ones((m.n, 2))
    x = forward_sptrsm(m, b_block)
    if m.n:
        np.testing.assert_allclose(x[:, 0], x[:, 1])
        np.testing.assert_allclose(
            x[:, 0], forward_substitution(m, b_block[:, 0]), rtol=1e-9
        )