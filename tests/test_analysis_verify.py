"""Tests for the static plan verifier (``repro.analysis.verify``).

The heart is the *corrupted-plan corpus*: every mutation class injects
one structural defect into a genuinely compiled plan and asserts the
verifier rejects it with **exactly** the named invariant the corruption
breaks — no IndexError from inside the verifier, no mislabeled report.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    INVARIANTS,
    PlanVerificationReport,
    check_plan,
    validation_enabled,
    verify_plan,
)
from repro.analysis.verify import VALIDATE_ENV_VAR, maybe_check_cached
from repro.errors import PlanVerificationError, ReproError
from repro.exec.plan import ExecutionPlan, compile_plan
from repro.exec.plan_cache import PlanCache
from repro.graph.dag import DAG
from repro.matrix.generators import narrow_band_lower
from repro.scheduler.registry import make_scheduler

from tests.conftest import lower_triangular_matrices
from tests.test_kernels_parallel import irregular_matrices


def scheduled_plan(n=80, seed=0, scheduler="growlocal", cores=4):
    lower = narrow_band_lower(n, 0.35, 5.0, seed=seed)
    schedule = make_scheduler(scheduler).schedule(
        DAG.from_lower_triangular(lower), cores
    )
    return lower, schedule, compile_plan(lower, schedule)


def clone_plan(plan, **overrides):
    """A structurally independent copy with selected fields replaced."""
    fields = {}
    for name in ExecutionPlan.__slots__:
        value = getattr(plan, name)
        if isinstance(value, np.ndarray):
            value = value.copy()
        fields[name] = value
    fields.update(overrides)
    return ExecutionPlan(**fields)


class TestCleanPlans:
    def test_serial_plan_verifies(self):
        lower = narrow_band_lower(100, 0.3, 6.0, seed=3)
        report = verify_plan(compile_plan(lower), matrix=lower)
        assert report.ok and report.violations == []
        assert report.n == 100

    def test_scheduled_plan_verifies_with_sources(self):
        lower, schedule, plan = scheduled_plan()
        report = verify_plan(plan, matrix=lower, schedule=schedule)
        assert report.ok, report.violations

    @pytest.mark.parametrize(
        "name,matrix", irregular_matrices(),
        ids=[name for name, _ in irregular_matrices()],
    )
    def test_irregular_corpus_verifies(self, name, matrix):
        plan = compile_plan(matrix)
        report = verify_plan(plan, matrix=matrix)
        assert report.ok, (name, report.violations)

    def test_backward_plan_verifies(self):
        upper = narrow_band_lower(70, 0.3, 5.0, seed=5).transpose()
        plan = compile_plan(upper, direction="backward")
        assert verify_plan(plan, matrix=upper).ok

    def test_cost_model_plan_needs_require_solvable_false(self):
        # check_diagonal=False plans may legally carry zero diagonals
        lower = narrow_band_lower(40, 0.3, 4.0, seed=7)
        lower.data[lower.diag_positions()[3]] = 0.0
        plan = compile_plan(lower, check_diagonal=False, validate=False)
        assert not verify_plan(plan).ok
        assert verify_plan(plan, require_solvable=False).ok

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_compiled_plans_always_verify(self, seed):
        lower = narrow_band_lower(60, 0.4, 4.0, seed=seed)
        schedule = make_scheduler("growlocal").schedule(
            DAG.from_lower_triangular(lower), 3
        )
        plan = compile_plan(lower, schedule)
        report = verify_plan(plan, matrix=lower, schedule=schedule)
        assert report.ok, report.violations


def _swap_dependent_pair(plan):
    """Swap a dependent (owner, dependency) pair across batches."""
    rank = np.repeat(
        np.arange(plan.n_batches, dtype=np.int64), np.diff(plan.batch_ptr)
    )
    owner = np.repeat(
        np.arange(plan.n, dtype=np.int64), np.diff(plan.off_ptr)
    )
    # pick the first gather edge: position owner[0] reads row off_cols[0]
    assert plan.off_cols.size > 0
    k = int(owner[0])
    dep_pos = int(plan.pos[plan.off_cols[0]])
    assert rank[dep_pos] < rank[k]
    rows = plan.rows.copy()
    rows[k], rows[dep_pos] = rows[dep_pos], rows[k]
    pos = plan.pos.copy()
    pos[rows[k]], pos[rows[dep_pos]] = k, dep_pos
    # swap the per-position payloads so only the *order* is corrupt
    diag = plan.diag.copy()
    diag[k], diag[dep_pos] = diag[dep_pos], diag[k]
    return clone_plan(plan, rows=rows, pos=pos, diag=diag)


def _sorted_source_match(plan, matrix):
    """Reference: the sorted source comparison the verifier used to run.

    Each row's gather entries are compared with the matrix's
    off-diagonals after sorting by (row, column), so the order inside
    a segment is ignored."""
    n = matrix.n
    rows_flat = np.repeat(np.arange(n, dtype=np.int64), matrix.row_nnz())
    off = matrix.indices != rows_flat
    owner_rows = plan.rows[
        np.repeat(np.arange(n, dtype=np.int64), np.diff(plan.off_ptr))
    ]
    plan_order = np.lexsort((plan.off_cols, owner_rows))
    src_order = np.lexsort((matrix.indices[off], rows_flat[off]))
    return (
        np.array_equal(plan.off_cols[plan_order],
                       matrix.indices[off][src_order])
        and np.array_equal(plan.off_vals[plan_order],
                           matrix.data[off][src_order])
    )


@settings(max_examples=60, deadline=None)
@given(
    matrix=lower_triangular_matrices(min_n=2, max_n=40),
    scheduler=st.sampled_from([None, "growlocal", "hdagg", "wavefront"]),
    cores=st.integers(1, 4),
    backward=st.booleans(),
    mutation=st.sampled_from(["none", "value", "column", "cross-row"]),
    pick=st.integers(0, 10**6),
)
def test_property_source_verdict_matches_sorted_check(
    matrix, scheduler, cores, backward, mutation, pick
):
    """Except for in-segment order, the CSR-order check accepts and
    rejects exactly what the sorted comparison did."""
    if backward:
        matrix = matrix.transpose()
        plan = compile_plan(matrix, direction="backward")
    else:
        schedule = (
            None if scheduler is None
            else make_scheduler(scheduler).schedule(
                DAG.from_lower_triangular(matrix), cores
            )
        )
        plan = compile_plan(matrix, schedule)
    cols, vals = plan.off_cols.copy(), plan.off_vals.copy()
    if mutation != "none" and cols.size:
        e = pick % cols.size
        if mutation == "value":
            vals[e] += 1.0
        elif mutation == "column":
            cols[e] = (cols[e] + 1 + pick % (matrix.n - 1)) % matrix.n
        else:
            owner = np.repeat(np.arange(plan.n), np.diff(plan.off_ptr))
            other = np.flatnonzero(owner != owner[e])
            if other.size:
                f = other[pick % other.size]
                cols[[e, f]] = cols[[f, e]]
                vals[[e, f]] = vals[[f, e]]
    mutated = clone_plan(plan, off_cols=cols, off_vals=vals)
    report = verify_plan(mutated, matrix=matrix, require_solvable=False)
    assert ("source-consistency" not in report.invariants) == (
        _sorted_source_match(mutated, matrix)
    )


class TestCorruptedPlanCorpus:
    """Each mutation class must be rejected with exactly its invariant."""

    @pytest.fixture()
    def compiled(self):
        return scheduled_plan(n=90, seed=1)

    def assert_exactly(self, plan, invariant, **verify_kwargs):
        report = verify_plan(plan, **verify_kwargs)
        assert not report.ok
        assert report.invariants == {invariant}, report.violations
        assert all(v.invariant in INVARIANTS for v in report.violations)
        return report

    def test_swapped_batch_order(self, compiled):
        _, _, plan = compiled
        bad = _swap_dependent_pair(plan)
        report = self.assert_exactly(bad, "dependency-safety")
        v = report.violations[0]
        assert v.row is not None and v.batch is not None

    def test_out_of_bounds_gather(self, compiled):
        _, _, plan = compiled
        cols = plan.off_cols.copy()
        cols[cols.size // 2] = plan.n + 5
        self.assert_exactly(clone_plan(plan, off_cols=cols),
                            "gather-bounds")

    def test_negative_gather_index(self, compiled):
        _, _, plan = compiled
        cols = plan.off_cols.copy()
        cols[0] = -1
        self.assert_exactly(clone_plan(plan, off_cols=cols),
                            "gather-bounds")

    def test_dropped_diagonal(self, compiled):
        _, _, plan = compiled
        diag = plan.diag.copy()
        diag[plan.n // 2] = 0.0
        self.assert_exactly(clone_plan(plan, diag=diag),
                            "diagonal-coverage")

    def test_phantom_singular_row(self, compiled):
        _, _, plan = compiled
        bad = clone_plan(plan, singular_row=3)
        self.assert_exactly(bad, "diagonal-coverage")

    def test_dtype_downcast(self, compiled):
        _, _, plan = compiled
        bad = clone_plan(plan, rows=plan.rows.astype(np.int32))
        report = verify_plan(bad)
        assert not report.ok
        assert "dtype-contract" in report.invariants

    def test_duplicate_row(self, compiled):
        _, _, plan = compiled
        rows = plan.rows.copy()
        rows[1] = rows[0]  # row executed twice, another never
        self.assert_exactly(clone_plan(plan, rows=rows), "row-coverage")

    def test_corrupt_pos_inverse(self, compiled):
        _, _, plan = compiled
        pos = plan.pos.copy()
        pos[plan.rows[0]], pos[plan.rows[1]] = (
            pos[plan.rows[1]], pos[plan.rows[0]],
        )
        self.assert_exactly(clone_plan(plan, pos=pos), "row-coverage")

    def test_non_monotone_batch_ptr(self, compiled):
        _, _, plan = compiled
        assert plan.n_batches >= 2
        batch_ptr = plan.batch_ptr.copy()
        batch_ptr[1] = batch_ptr[2] + 1  # overlap the first two batches
        bad = clone_plan(plan, batch_ptr=batch_ptr)
        report = verify_plan(bad)
        assert "batch-pointer" in report.invariants
        # downstream batch-indexed checks were gated, not crashed
        assert "dependency-safety" not in report.invariants

    def test_corrupt_gather_ptr_end(self, compiled):
        _, _, plan = compiled
        off_ptr = plan.off_ptr.copy()
        off_ptr[-1] = plan.off_cols.size + 3
        self.assert_exactly(clone_plan(plan, off_ptr=off_ptr),
                            "gather-pointer")

    def test_out_of_bounds_core_rows(self, compiled):
        _, _, plan = compiled
        core_rows = plan.core_rows.copy()
        core_rows[0] = plan.n + 2
        self.assert_exactly(clone_plan(plan, core_rows=core_rows),
                            "core-coverage")

    def test_nonfinite_gather_value(self, compiled):
        _, _, plan = compiled
        vals = plan.off_vals.copy()
        vals[0] = np.nan
        self.assert_exactly(clone_plan(plan, off_vals=vals),
                            "gather-bounds")

    def test_matrix_mismatch_is_source_consistency(self, compiled):
        lower, _, plan = compiled
        vals = plan.off_vals.copy()
        vals[0] += 1.0  # finite, in-bounds, structurally fine...
        bad = clone_plan(plan, off_vals=vals)
        assert verify_plan(bad).ok  # ...but not what the matrix says
        report = verify_plan(bad, matrix=lower)
        assert report.invariants == {"source-consistency"}

    def test_in_segment_permutation_is_source_consistency(self, compiled):
        # the same entries in another order inside one row's segment:
        # the kernels add a segment in stored order, so the result's
        # bits can change although the content, as a set, matches
        lower, _, plan = compiled
        seg = np.diff(plan.off_ptr)
        k = int(np.flatnonzero(seg >= 2)[0])
        lo = int(plan.off_ptr[k])
        cols, vals = plan.off_cols.copy(), plan.off_vals.copy()
        cols[[lo, lo + 1]] = cols[[lo + 1, lo]]
        vals[[lo, lo + 1]] = vals[[lo + 1, lo]]
        bad = clone_plan(plan, off_cols=cols, off_vals=vals)
        assert verify_plan(bad).ok
        assert _sorted_source_match(bad, lower)
        report = self.assert_exactly(bad, "source-consistency",
                                     matrix=lower)
        assert report.violations[0].row == int(plan.rows[k])

    def test_schedule_mismatch_is_source_consistency(self, compiled):
        _, schedule, plan = compiled
        step = plan.row_step.copy()
        step[0] += 1
        bad = clone_plan(plan, row_step=step)
        report = verify_plan(bad, schedule=schedule)
        assert "source-consistency" in report.invariants


class TestCheckPlanRaises:
    def test_check_plan_raises_with_report(self):
        _, _, plan = scheduled_plan(n=60, seed=2)
        cols = plan.off_cols.copy()
        cols[0] = plan.n + 1
        bad = clone_plan(plan, off_cols=cols)
        with pytest.raises(PlanVerificationError) as exc_info:
            check_plan(bad)
        exc = exc_info.value
        assert isinstance(exc, ReproError)
        assert isinstance(exc.report, PlanVerificationReport)
        assert exc.report.invariants == {"gather-bounds"}
        assert "gather-bounds" in str(exc)

    def test_compile_plan_validate_true(self):
        lower = narrow_band_lower(50, 0.3, 4.0, seed=4)
        plan = compile_plan(lower, validate=True)
        assert verify_plan(plan, matrix=lower).ok


class TestEnvGate:
    def test_gate_off_by_default(self, monkeypatch):
        monkeypatch.delenv(VALIDATE_ENV_VAR, raising=False)
        assert not validation_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_gate_on_values(self, monkeypatch, value):
        monkeypatch.setenv(VALIDATE_ENV_VAR, value)
        assert validation_enabled()

    @pytest.mark.parametrize("value", ["", "0", "off", "no"])
    def test_gate_off_values(self, monkeypatch, value):
        monkeypatch.setenv(VALIDATE_ENV_VAR, value)
        assert not validation_enabled()

    def test_compile_plan_env_gate_validates(self, monkeypatch):
        monkeypatch.setenv(VALIDATE_ENV_VAR, "1")
        lower = narrow_band_lower(50, 0.3, 4.0, seed=8)
        # a good compile passes under the gate
        compile_plan(lower)
        # explicit validate=False overrides the env gate
        compile_plan(lower, validate=False)

    def test_cache_insertion_rejects_corrupt_plan(self, monkeypatch):
        monkeypatch.setenv(VALIDATE_ENV_VAR, "1")
        _, _, plan = scheduled_plan(n=50, seed=9)
        cols = plan.off_cols.copy()
        cols[0] = plan.n + 1
        bad = clone_plan(plan, off_cols=cols)
        cache = PlanCache()
        with pytest.raises(PlanVerificationError):
            cache.get_or_build("k", lambda: bad)
        assert "k" not in cache
        with pytest.raises(PlanVerificationError):
            cache.put("k2", bad)
        assert "k2" not in cache

    def test_cache_insertion_accepts_good_plan_and_non_plans(
        self, monkeypatch
    ):
        monkeypatch.setenv(VALIDATE_ENV_VAR, "1")
        _, _, plan = scheduled_plan(n=50, seed=10)
        cache = PlanCache()
        assert cache.get_or_build("p", lambda: plan) is plan
        assert cache.put("other", {"not": "a plan"}) == {"not": "a plan"}

    def test_cache_gate_off_skips_validation(self, monkeypatch):
        monkeypatch.delenv(VALIDATE_ENV_VAR, raising=False)
        _, _, plan = scheduled_plan(n=50, seed=11)
        cols = plan.off_cols.copy()
        cols[0] = plan.n + 1
        bad = clone_plan(plan, off_cols=cols)
        cache = PlanCache()
        assert cache.get_or_build("k", lambda: bad) is bad

    def test_maybe_check_cached_direct(self, monkeypatch):
        monkeypatch.setenv(VALIDATE_ENV_VAR, "1")
        maybe_check_cached("not a plan")  # no-op for non-plan artifacts
        _, _, plan = scheduled_plan(n=40, seed=12)
        maybe_check_cached(plan)
        bad = clone_plan(plan, singular_row=-1,
                         diag=np.zeros_like(plan.diag))
        # zero diagonals alone are fine on the cache path (cost-model
        # plans), so corrupt the structure instead
        cols = plan.off_cols.copy()
        if cols.size:
            cols[0] = -4
        with pytest.raises(PlanVerificationError):
            maybe_check_cached(clone_plan(plan, off_cols=cols))
        maybe_check_cached(bad)  # structurally sound singular plan: ok


class TestReportShapes:
    def test_violation_as_dict(self):
        _, _, plan = scheduled_plan(n=40, seed=13)
        diag = plan.diag.copy()
        diag[0] = 0.0
        report = verify_plan(clone_plan(plan, diag=diag))
        payload = report.as_dict()
        assert payload["ok"] is False
        assert payload["violations"][0]["invariant"] == (
            "diagonal-coverage"
        )
        assert isinstance(payload["violations"][0]["row"], int)

    def test_invariant_catalogue_complete(self):
        # every id the verifier can emit is documented
        assert len(INVARIANTS) == 9
        assert set(INVARIANTS) == {
            "dtype-contract", "batch-pointer", "row-coverage",
            "gather-pointer", "gather-bounds",
            "dependency-safety", "diagonal-coverage", "core-coverage",
            "source-consistency",
        }
