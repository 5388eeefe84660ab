"""Tests for the conjugate-gradient and Gauß–Seidel consumers of SpTRSV."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.matrix.generators import grid_laplacian_2d
from repro.solver.cg import conjugate_gradient, ichol_preconditioner
from repro.solver.gauss_seidel import gauss_seidel


@pytest.fixture(scope="module")
def spd_problem():
    a = grid_laplacian_2d(9, 9)
    rng = np.random.default_rng(0)
    b = rng.random(a.n)
    x_exact = np.linalg.solve(a.to_dense(), b)
    return a, b, x_exact


class TestCG:
    def test_converges_unpreconditioned(self, spd_problem):
        a, b, x_exact = spd_problem
        res = conjugate_gradient(a, b, tol=1e-10, max_iterations=500)
        assert res.converged
        np.testing.assert_allclose(res.x, x_exact, rtol=1e-6, atol=1e-8)
        assert res.sptrsv_count == 0

    def test_ichol_preconditioner_reduces_iterations(self, spd_problem):
        a, b, _ = spd_problem
        plain = conjugate_gradient(a, b, tol=1e-10, max_iterations=500)
        precond, factor = ichol_preconditioner(a)
        pre = conjugate_gradient(a, b, preconditioner=precond,
                                 tol=1e-10, max_iterations=500)
        assert pre.converged
        assert pre.iterations < plain.iterations
        assert pre.sptrsv_count >= 2 * pre.iterations
        assert factor.is_lower_triangular()

    def test_zero_rhs(self, spd_problem):
        a, _, _ = spd_problem
        res = conjugate_gradient(a, np.zeros(a.n))
        assert res.converged
        assert res.iterations == 0

    def test_invalid_args(self, spd_problem):
        a, b, _ = spd_problem
        with pytest.raises(ConfigurationError):
            conjugate_gradient(a, b, max_iterations=0)
        with pytest.raises(ConfigurationError):
            conjugate_gradient(a, np.ones(3))


class TestGaussSeidel:
    def test_residual_decreases(self, spd_problem):
        a, b, _ = spd_problem
        _, norms = gauss_seidel(a, b, sweeps=8)
        assert norms[-1] < norms[0]
        assert np.all(np.diff(norms) <= 1e-12)  # monotone for SPD

    def test_converges_to_solution(self, spd_problem):
        a, b, x_exact = spd_problem
        x, _ = gauss_seidel(a, b, sweeps=400)
        np.testing.assert_allclose(x, x_exact, rtol=1e-4, atol=1e-6)

    def test_initial_guess(self, spd_problem):
        a, b, x_exact = spd_problem
        x, norms = gauss_seidel(a, b, sweeps=3, x0=x_exact)
        assert norms[-1] < 1e-8

    def test_invalid_sweeps(self, spd_problem):
        a, b, _ = spd_problem
        with pytest.raises(ConfigurationError):
            gauss_seidel(a, b, sweeps=0)
