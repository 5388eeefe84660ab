"""Tests for the execution-plan subsystem (:mod:`repro.exec`).

Property-style comparisons of plan-based substitution against
``scipy.sparse.linalg.spsolve_triangular`` on random triangular systems,
edge-case coverage (1x1, diagonal-only, dense last row, missing/zero
diagonal at compile time, empty off-diagonal rows), plan structural
invariants, and equivalence of the plan-based paths with the seed's
per-row reference kernel on real dataset instances.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import scipy.sparse.linalg as spla

from repro.errors import (
    BackendUnavailableError,
    ConfigurationError,
    MatrixFormatError,
    SingularMatrixError,
)
from repro.exec import (
    compile_plan,
    get_backend,
    list_backends,
    register_backend,
)
from repro.exec.backends import NumpyBackend
from repro.graph.dag import DAG
from repro.matrix.csr import CSRMatrix
from repro.solver.sptrsv import (
    backward_substitution,
    forward_substitution,
    solve_rows,
)
from tests.conftest import all_schedulers, lower_triangular_matrices


def _legacy_forward(lower, b):
    """The seed's per-row forward substitution (reference semantics)."""
    x = np.zeros(lower.n)
    solve_rows(lower, b, x, np.arange(lower.n, dtype=np.int64))
    return x


class TestPlanStructure:
    def test_batches_partition_rows(self, small_er_lower):
        plan = compile_plan(small_er_lower)
        assert plan.n == small_er_lower.n
        assert plan.batch_ptr[0] == 0
        assert plan.batch_ptr[-1] == plan.n
        assert np.all(np.diff(plan.batch_ptr) > 0)
        # rows is a permutation
        assert np.array_equal(np.sort(plan.rows), np.arange(plan.n))
        # pos is its inverse
        assert np.array_equal(plan.rows[plan.pos], np.arange(plan.n))

    def test_batch_rows_mutually_independent(self, small_er_lower):
        """No row of a batch may depend on another row of the same batch."""
        plan = compile_plan(small_er_lower)
        for t in range(plan.n_batches):
            lo, hi = plan.batch_ptr[t], plan.batch_ptr[t + 1]
            batch = set(plan.rows[lo:hi].tolist())
            s0, s1 = plan.off_ptr[lo], plan.off_ptr[hi]
            deps = set(plan.off_cols[s0:s1].tolist())
            assert not (batch & deps)

    def test_gather_matches_matrix(self, small_er_lower):
        plan = compile_plan(small_er_lower)
        for k in [0, plan.n // 2, plan.n - 1]:
            i = int(plan.rows[k])
            cols, vals = small_er_lower.row(i)
            off = cols != i
            s0, s1 = plan.off_ptr[k], plan.off_ptr[k + 1]
            np.testing.assert_array_equal(plan.off_cols[s0:s1], cols[off])
            np.testing.assert_array_equal(plan.off_vals[s0:s1], vals[off])
            assert plan.diag[k] == vals[~off][0]

    def test_serial_plan_core_layout(self, small_er_lower):
        plan = compile_plan(small_er_lower)
        assert plan.n_cores == 1
        np.testing.assert_array_equal(
            plan.core_sequence(0), np.arange(plan.n)
        )
        assert plan.n_supersteps == 1

    def test_scheduled_plan_respects_supersteps(self, small_grid_lower):
        dag = DAG.from_lower_triangular(small_grid_lower)
        for sched in all_schedulers():
            s = sched.schedule(dag, 4)
            plan = compile_plan(small_grid_lower, s)
            assert plan.n_supersteps == s.n_supersteps
            assert plan.n_cores == s.n_cores

    def test_repr(self, small_er_lower):
        assert "ExecutionPlan" in repr(compile_plan(small_er_lower))


class TestCompileValidation:
    def test_missing_diagonal_at_compile_time(self):
        m = CSRMatrix.from_coo(3, [0, 1, 2], [0, 0, 2], [1.0, 1.0, 1.0])
        with pytest.raises(SingularMatrixError, match="row 1"):
            compile_plan(m)

    def test_zero_diagonal_at_compile_time(self):
        m = CSRMatrix.from_coo(2, [0, 1, 1], [0, 0, 1], [1.0, 1.0, 0.0])
        with pytest.raises(SingularMatrixError, match="zero diagonal"):
            compile_plan(m)

    def test_check_diagonal_false_defers(self):
        m = CSRMatrix.from_coo(2, [0, 1, 1], [0, 0, 1], [1.0, 1.0, 0.0])
        plan = compile_plan(m, check_diagonal=False)
        assert plan.singular_row == 1
        with pytest.raises(SingularMatrixError):
            get_backend("numpy").solve(plan, np.ones(2))

    def test_not_lower_rejected(self):
        m = CSRMatrix.from_coo(2, [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(MatrixFormatError):
            compile_plan(m)

    def test_not_upper_rejected(self, small_er_lower):
        with pytest.raises(MatrixFormatError):
            compile_plan(small_er_lower, direction="backward")

    def test_unknown_direction(self):
        with pytest.raises(MatrixFormatError):
            compile_plan(CSRMatrix.identity(2), direction="sideways")

    def test_schedule_size_mismatch(self, small_er_lower):
        from repro.scheduler.schedule import Schedule

        s = Schedule(np.zeros(3, dtype=int), np.zeros(3, dtype=int), 1)
        with pytest.raises(MatrixFormatError):
            compile_plan(small_er_lower, s)


class TestEdgeCases:
    def test_1x1(self):
        m = CSRMatrix.from_coo(1, [0], [0], [4.0])
        x = forward_substitution(m, np.array([8.0]))
        np.testing.assert_allclose(x, [2.0])

    def test_diagonal_only(self):
        d = np.array([2.0, 4.0, -8.0, 0.5])
        m = CSRMatrix.from_coo(4, range(4), range(4), d)
        plan = compile_plan(m)
        assert plan.n_batches == 1
        assert plan.nnz_off == 0
        b = np.ones(4)
        np.testing.assert_allclose(
            get_backend("numpy").solve(plan, b), b / d
        )

    def test_dense_last_row(self):
        n = 50
        rows = list(range(n)) + [n - 1] * (n - 1)
        cols = list(range(n)) + list(range(n - 1))
        vals = [2.0] * n + [1.0] * (n - 1)
        m = CSRMatrix.from_coo(n, rows, cols, vals)
        b = np.arange(n, dtype=np.float64)
        np.testing.assert_allclose(
            forward_substitution(m, b), _legacy_forward(m, b), rtol=1e-12
        )

    def test_empty_off_diagonal_rows_mixed(self):
        """Rows with and without off-diagonal entries in the same batch."""
        m = CSRMatrix.from_coo(
            4,
            [0, 1, 2, 3, 3],
            [0, 1, 2, 0, 3],
            [1.0, 2.0, 4.0, 1.0, 2.0],
        )
        b = np.array([1.0, 2.0, 4.0, 3.0])
        np.testing.assert_allclose(
            forward_substitution(m, b), [1.0, 1.0, 1.0, 1.0]
        )

    def test_empty_matrix(self):
        m = CSRMatrix(0, np.zeros(1, dtype=np.int64),
                      np.zeros(0, dtype=np.int64), np.zeros(0))
        plan = compile_plan(m)
        assert plan.n == 0
        assert plan.n_batches == 0
        assert get_backend("numpy").solve(plan, np.zeros(0)).shape == (0,)

    def test_plan_direction_mismatch_rejected(self):
        m = CSRMatrix.identity(3)
        plan = compile_plan(m)
        with pytest.raises(MatrixFormatError):
            backward_substitution(m, np.ones(3), plan=plan)

    def test_foreign_plan_rejected_everywhere(self):
        """Every plan-accepting entry point guards against a plan that
        was compiled for a different system."""
        from repro.scheduler import SerialScheduler
        from repro.solver.backward import (
            forward_sptrsm,
            scheduled_backward_sptrsv,
            scheduled_sptrsm,
        )
        from repro.solver.scheduled import scheduled_sptrsv

        m = CSRMatrix.identity(4)
        wrong = compile_plan(CSRMatrix.identity(5))
        schedule = SerialScheduler().schedule(
            DAG.from_lower_triangular(m), 1
        )
        b = np.ones(4)
        with pytest.raises(MatrixFormatError):
            forward_substitution(m, b, plan=wrong)
        with pytest.raises(MatrixFormatError):
            scheduled_sptrsv(m, b, schedule, plan=wrong)
        with pytest.raises(MatrixFormatError):
            forward_sptrsm(m, np.ones((4, 2)), plan=wrong)
        with pytest.raises(MatrixFormatError):
            scheduled_sptrsm(m, np.ones((4, 2)), schedule, plan=wrong)
        with pytest.raises(MatrixFormatError):
            scheduled_backward_sptrsv(m, b, schedule, plan=wrong)


@settings(max_examples=40, deadline=None)
@given(lower_triangular_matrices(max_n=40))
def test_property_plan_forward_matches_scipy(m):
    b = np.linspace(1.0, 2.0, m.n)
    x = forward_substitution(m, b)
    expected = spla.spsolve_triangular(m.to_scipy().tocsr(), b, lower=True)
    np.testing.assert_allclose(x, expected, rtol=1e-7, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(lower_triangular_matrices(max_n=40))
def test_property_plan_backward_matches_scipy(m):
    upper = m.transpose()
    b = np.cos(np.arange(upper.n, dtype=np.float64))
    x = backward_substitution(upper, b)
    expected = spla.spsolve_triangular(
        upper.to_scipy().tocsr(), b, lower=False
    )
    np.testing.assert_allclose(x, expected, rtol=1e-7, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(lower_triangular_matrices(max_n=40))
def test_property_plan_matches_reference_kernel(m):
    """Plan-based execution == the seed's per-row loop (same matrix)."""
    b = np.ones(m.n)
    np.testing.assert_allclose(
        forward_substitution(m, b), _legacy_forward(m, b),
        rtol=1e-10, atol=1e-12,
    )


class TestDatasetEquivalence:
    """Acceptance: plan-based execution reproduces the seed kernels on
    real dataset instances."""

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.experiments.datasets import build_dataset

        return build_dataset("erdos_renyi")[0]

    def test_forward_substitution_matches_seed(self, instance):
        b = np.sin(np.arange(instance.n, dtype=np.float64))
        np.testing.assert_allclose(
            forward_substitution(instance.lower, b),
            _legacy_forward(instance.lower, b),
            rtol=1e-10, atol=1e-12,
        )

    def test_scheduled_matches_verified_reference(self, instance):
        from repro.scheduler import GrowLocalScheduler
        from repro.solver.scheduled import scheduled_sptrsv

        schedule = GrowLocalScheduler().schedule(instance.dag, 4)
        b = np.ones(instance.n)
        ref = scheduled_sptrsv(
            instance.lower, b, schedule, verify_dependencies=True
        )
        out = scheduled_sptrsv(instance.lower, b, schedule)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_simulate_bsp_plan_identical(self, instance):
        from repro.machine.bsp_sim import simulate_bsp
        from repro.machine.model import get_machine
        from repro.scheduler import GrowLocalScheduler

        machine = get_machine("intel_xeon_6238t")
        schedule = GrowLocalScheduler().schedule(instance.dag, 8)
        fresh = simulate_bsp(instance.lower, schedule, machine)
        plan = compile_plan(instance.lower, schedule, check_diagonal=False)
        cached = simulate_bsp(instance.lower, schedule, machine, plan=plan)
        assert fresh.total_cycles == cached.total_cycles
        assert fresh.compute_cycles == cached.compute_cycles
        assert fresh.barrier_cycles == cached.barrier_cycles
        np.testing.assert_array_equal(
            fresh.superstep_cycles, cached.superstep_cycles
        )


#: The paper's five schedulers, as the benchmark runs them.
PAPER_SCHEDULERS = ("growlocal", "funnel+gl", "hdagg", "spmp", "wavefront")


def _reordered(matrix, schedule, direction):
    """The Section 5 reorder of ``(matrix, schedule)``: vertices
    relabelled in (superstep, core, id) order.  A backward sweep runs
    the mirror image, descending ids inside a cell and the first vertex
    taking the last id, so the matrix stays upper triangular."""
    from repro.matrix.permute import permute_symmetric
    from repro.scheduler.reorder import schedule_reordering

    perm = schedule_reordering(schedule)
    if direction == "backward":
        ids = np.arange(schedule.n, dtype=np.int64)
        order = np.lexsort((-ids, schedule.cores, schedule.supersteps))
        perm = np.empty_like(ids)
        perm[order] = ids[::-1]
    return permute_symmetric(matrix, perm), schedule.reorder_vertices(perm)


class TestLevelSetPlan:
    """``compile_plan(L)`` (``schedule=None``) is the level-set plan: one
    batch per dependency level.  Every schedule's plan executes exactly
    its arrays, and keeps only the schedule's per-core program
    (``core_rows`` / ``core_ptr`` / ``row_step``) for the simulators."""

    @pytest.fixture(scope="class")
    def corpus(self):
        """Small instances of the paper's four families (seeded as the
        benchmark seeds them), a chain and a wide-shallow shape."""
        from repro.experiments.bench import (
            make_deep_narrow,
            make_wide_shallow,
        )
        from repro.matrix.generators import (
            erdos_renyi_lower,
            grid_laplacian_2d,
            narrow_band_lower,
            rcm_mesh,
        )

        seeds = [int(s) for s in
                 np.random.default_rng(0).integers(2**31, size=3)]
        return {
            "narrow-band": narrow_band_lower(2_500, 0.05, 20.0,
                                             seed=seeds[0]),
            "erdos-renyi": erdos_renyi_lower(500, 0.1, seed=seeds[1]),
            "grid": grid_laplacian_2d(45, 45).lower_triangle(),
            "mesh": rcm_mesh(38, 75, reach=1, lateral_prob=0.3,
                             long_edge_prob=0.03,
                             seed=seeds[2]).lower_triangle(),
            "chain": make_deep_narrow(n=1_000, seed=0),
            "wide-shallow": make_wide_shallow(levels=16, width=100,
                                              deps=3, seed=0),
        }

    @pytest.mark.parametrize("name", ["narrow-band", "erdos-renyi", "grid",
                                      "mesh", "chain", "wide-shallow"])
    def test_serial_plan_is_the_wavefront_level_set(self, corpus, name):
        from repro.graph.wavefront import wavefront_levels
        from repro.scheduler.registry import make_scheduler
        from repro.solver.backward import backward_dag

        lower = corpus[name]
        levels = wavefront_levels(DAG.from_lower_triangular(lower))
        plan = compile_plan(lower)
        assert plan.n_batches == int(levels.max()) + 1
        assert np.all(np.diff(levels[plan.rows]) >= 0)
        b = np.random.default_rng(0).standard_normal(lower.n)
        backend = get_backend("numpy")
        for direction in ("forward", "backward"):
            source = lower if direction == "forward" else lower.transpose()
            dag = (DAG.from_lower_triangular(source)
                   if direction == "forward" else backward_dag(source))
            for scheduler, n_cores, reorder in itertools.product(
                PAPER_SCHEDULERS, (1, 3, 8), (False, True)
            ):
                schedule = make_scheduler(scheduler).schedule(dag, n_cores)
                matrix = source
                if reorder:
                    matrix, schedule = _reordered(source, schedule,
                                                  direction)
                case = (f"{name}: {scheduler} at {n_cores} cores, "
                        f"{direction}, reorder={reorder}")
                serial = compile_plan(matrix, direction=direction)
                other = compile_plan(matrix, schedule, direction=direction)
                for field in ("rows", "batch_ptr", "off_ptr", "off_cols",
                              "off_vals", "diag", "pos"):
                    np.testing.assert_array_equal(
                        getattr(serial, field), getattr(other, field),
                        err_msg=f"{case}: {field}",
                    )
                np.testing.assert_array_equal(
                    other.row_step, schedule.supersteps, err_msg=case
                )
                sequences = schedule.core_sequences()
                np.testing.assert_array_equal(
                    other.core_rows, np.concatenate(sequences),
                    err_msg=case,
                )
                np.testing.assert_array_equal(
                    np.diff(other.core_ptr), [s.size for s in sequences],
                    err_msg=case,
                )
                np.testing.assert_array_equal(
                    backend.solve(other, b), backend.solve(serial, b),
                    err_msg=case,
                )


class TestBackendRegistry:
    def test_numpy_always_listed(self):
        assert "numpy" in list_backends()
        assert get_backend("numpy").name == "numpy"

    def test_auto_selection_returns_working_backend(self, small_er_lower):
        be = get_backend()
        b = np.ones(small_er_lower.n)
        plan = compile_plan(small_er_lower)
        np.testing.assert_allclose(
            be.solve(plan, b), _legacy_forward(small_er_lower, b),
            rtol=1e-10,
        )

    def test_numba_graceful_fallback(self):
        """Auto-selection never fails, whether or not numba is installed;
        requesting numba by name raises only when it is unavailable.
        With numba present the parallel tier is preferred (the measured
        fastest; see benchmarks/test_exec_plan_bench.py)."""
        try:
            import numba  # noqa: F401
            has_numba = True
        except ImportError:
            has_numba = False
        assert get_backend().name == (
            "numba-parallel" if has_numba else "numpy"
        )
        if not has_numba:
            with pytest.raises(BackendUnavailableError):
                get_backend("numba")
            with pytest.raises(BackendUnavailableError):
                get_backend("numba-parallel")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("tpu")

    def test_env_var_override(self, monkeypatch):
        from repro.exec.backends import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"

    def test_register_custom_backend(self):
        class Doubling(NumpyBackend):
            name = "test-doubling"

            def solve(self, plan, b, x=None):
                return 2.0 * super().solve(plan, b, x)

        register_backend("test-doubling", Doubling, replace=True)
        try:
            assert "test-doubling" in list_backends()
            m = CSRMatrix.identity(3)
            b = np.ones(3)
            out = forward_substitution(m, b, backend="test-doubling")
            np.testing.assert_allclose(out, 2.0 * b)
            with pytest.raises(ConfigurationError):
                register_backend("test-doubling", Doubling)
        finally:
            from repro.exec import backends as _backends

            _backends._FACTORIES.pop("test-doubling", None)
            _backends._INSTANCES.pop("test-doubling", None)


class TestBlockAndCellKernels:
    def test_solve_block_matches_columnwise(self, small_er_lower):
        rng = np.random.default_rng(0)
        B = rng.normal(size=(small_er_lower.n, 3))
        plan = compile_plan(small_er_lower)
        X = get_backend("numpy").solve_block(plan, B)
        for c in range(3):
            np.testing.assert_allclose(
                X[:, c], forward_substitution(small_er_lower, B[:, c]),
                rtol=1e-10,
            )


class TestDiagPositions:
    def test_positions_match_search(self, small_er_lower):
        m = small_er_lower
        pos = m.diag_positions()
        for i in range(m.n):
            cols, _ = m.row(i)
            k = np.searchsorted(cols, i)
            if k < cols.size and cols[k] == i:
                assert pos[i] == m.indptr[i] + k
            else:
                assert pos[i] == -1

    def test_missing_marked(self):
        m = CSRMatrix.from_coo(3, [0, 2], [0, 2], [1.0, 1.0])
        np.testing.assert_array_equal(
            m.diag_positions() >= 0, [True, False, True]
        )
        assert not m.has_full_diagonal()
        np.testing.assert_allclose(m.diagonal(), [1.0, 0.0, 1.0])

    def test_empty_matrix(self):
        m = CSRMatrix(0, np.zeros(1, dtype=np.int64),
                      np.zeros(0, dtype=np.int64), np.zeros(0))
        assert m.diag_positions().shape == (0,)
        assert m.has_full_diagonal()
