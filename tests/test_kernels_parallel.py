"""The parallel kernel tier: fusion, dispatch, registry, equality.

The tier's contracts, in the order the module tests them:

* the pure-Python kernel sources of :mod:`repro.exec.kernels_numba`
  match :class:`~repro.exec.backends.NumpyBackend` to rounding — they
  run interpreted here, so the kernel *logic* is verified even where
  numba is absent;
* within the tier, parallel/fused/block variants are **bitwise**
  identical to the sequential sweep (shared scalar accumulation order):
  the ``prange`` kernels run over explicit spans, every batch its own
  span, against one whole-plan sequential span; vs NumpyBackend the
  contract is tight ``allclose`` — NumPy 2.x pairwise/SIMD summation
  follows an architecture-dependent reduction order scalar code cannot
  portably replicate;
* the parallel backend's dispatch policy (``fused_dispatch``) is pure
  plan arithmetic, derived once per plan and never carried over into a
  rebuilt or store-loaded plan; it is tested on crafted batch layouts
  and against an independent loop over the batches;
* the numpy backend's split into scalar and vectorized spans is pure
  plan arithmetic too; its solves match the scipy oracle, its block
  columns are bitwise equal to single-RHS solves, and neither the split
  nor the per-plan program of batch steps is carried over into a plan
  rebuilt from another plan's fields; the program is built once per
  plan, chooses each batch's sum recipe at ``RANK_SUM_MAX``, and where
  every vectorized batch is rank-summed ``solve`` equals the scalar
  sweep bit for bit;
* the backend registry probes availability once per process, and env
  misconfiguration fails loudly naming ``REPRO_EXEC_BACKEND``;
* the resolved backend name is reported by the service and experiment
  layers (stats attribution);
* with numba installed, the JIT tier itself is exercised over irregular
  plans — trailing zero-nnz rows, single-batch plans, all-small-batch
  chains that fuse end-to-end, wide layers that take ``prange`` spans,
  and k=1 blocks — plus the persistent artifact cache's two-process
  zero-recompile warm start.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from scipy.sparse.linalg import spsolve_triangular

from repro.errors import BackendUnavailableError, ConfigurationError
from repro.exec import compile_plan, get_backend, register_backend
from repro.exec import backends as backends_mod
from repro.exec.backends import (
    BACKEND_ENV_VAR,
    PARALLEL_BATCH_ROWS,
    RANK_SUM_MAX,
    SCALAR_BATCH_WORK,
    NumpyBackend,
    _group_runs,
    _numpy_program,
    fused_dispatch,
    numpy_dispatch,
)
from repro.exec.kernels_numba import (
    JIT_CACHE_ENV_VAR,
    _psweep,
    _psweep_block,
    _sweep,
    _sweep_block,
    jit_cache_dir,
    jit_cache_key,
    jit_kernels,
    warm_kernels,
)
from repro.exec.plan import ExecutionPlan
from repro.experiments.bench import make_deep_narrow, make_wide_shallow
from repro.graph.dag import DAG
from repro.matrix.csr import CSRMatrix
from repro.matrix.generators import (
    erdos_renyi_lower,
    grid_laplacian_2d,
    narrow_band_lower,
)
from repro.scheduler import GrowLocalScheduler
from repro.store.plan_store import ARRAY_FIELDS, PlanStore, plan_store_key
from repro.utils.arrays import segmented_gather
from tests.conftest import lower_triangular_matrices

HAS_NUMBA = importlib.util.find_spec("numba") is not None
needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


# ---------------------------------------------------------------------------
# corpus: irregular plan shapes, diagonally dominant (tight tolerances)
# ---------------------------------------------------------------------------
def _lower(n, rows, cols, seed=0):
    """Diagonally dominant lower-triangular matrix on a given pattern."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 0.9, size=rows.size) * rng.choice(
        (-1.0, 1.0), size=rows.size
    )
    vals /= np.maximum(np.bincount(rows, minlength=n), 1)[rows]
    d = np.arange(n, dtype=np.int64)
    return CSRMatrix.from_coo(
        n,
        np.concatenate([rows, d]),
        np.concatenate([cols, d]),
        np.concatenate([vals, rng.uniform(1.0, 2.0, size=n)]),
    )


def irregular_matrices() -> list[tuple[str, CSRMatrix]]:
    """Plan shapes that have historically broken batch kernels."""
    # trailing-zero-nnz: a chain head over rows 1..7 leaves rows 8..13
    # diagonal-only — they join batch 0 with *empty* off-diagonal
    # segments at the end of the batch (the reduceat-breaking case the
    # numpy kernel guards explicitly)
    i = np.arange(1, 8, dtype=np.int64)
    return [
        ("single-batch-diagonal", _lower(6, [], [], seed=0)),
        ("trailing-zero-nnz-rows", _lower(14, i, i - 1, seed=1)),
        ("all-small-chain", _lower(40, *chain_n(40), seed=2)),
        ("two-wide-layers", _lower(60, *wide_two(60), seed=3)),
        ("mixed-wide-then-chain", _lower(50, *mixed(50), seed=4)),
        ("wide-layers-then-chain",
         wide_then_chain(levels=2, width=80, chain=30, seed=5)),
    ]


def chain_n(n):
    i = np.arange(1, n, dtype=np.int64)
    return i, i - 1


def wide_two(n):
    half = n // 2
    rng = np.random.default_rng(9)
    r = np.arange(half, n, dtype=np.int64)
    return r, rng.integers(0, half, size=r.size).astype(np.int64)


def mixed(n):
    # one wide layer feeding a chain tail: batches of very different
    # sizes, so fused and parallel groups coexist in one plan
    half = n // 2
    rng = np.random.default_rng(11)
    wide_r = np.arange(half, half + 10, dtype=np.int64)
    wide_c = rng.integers(0, half, size=10).astype(np.int64)
    i = np.arange(half + 10, n, dtype=np.int64)
    return (
        np.concatenate([wide_r, i]),
        np.concatenate([wide_c, i - 1]),
    )


def wide_then_chain(*, levels=4, width=100, chain=40, seed=0):
    """``make_wide_shallow`` layers feeding a chain of one-row batches:
    batches of at least and under ``PARALLEL_BATCH_ROWS`` rows, so
    ``fused_dispatch`` has spans of both kinds."""
    wide = make_wide_shallow(levels=levels, width=width, seed=seed)
    tail = _lower(chain, *chain_n(chain), seed=seed).to_scipy()
    link = sp.coo_matrix(
        ([0.5], ([0], [wide.n - 1])), shape=(chain, wide.n)
    )
    return CSRMatrix.from_scipy(
        sp.bmat([[wide.to_scipy(), None], [link, tail]]).tocsr()
    )


def batch_spans(plan):
    """Every batch its own ``prange`` span."""
    bounds = plan.batch_ptr.tolist()
    return [(lo, hi, True)
            for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)]


def whole_plan_span(plan):
    """One sequential span over the whole plan (the ``numba`` policy)."""
    return [(0, plan.n, False)]


#: The kernel sources, run interpreted (``jit_kernels()`` wraps them).
PURE_KERNELS = SimpleNamespace(
    sweep=_sweep, sweep_block=_sweep_block,
    psweep=_psweep, psweep_block=_psweep_block,
)


def _pure_solve(plan, b, spans, kernels=PURE_KERNELS):
    """Run ``kernels`` (by default the interpreted sources) over explicit
    ``(lo, hi, parallel)`` spans."""
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(b.shape)
    args = (
        plan.rows, plan.off_ptr, plan.off_cols, plan.off_vals, plan.diag,
        b, x,
    )
    if b.ndim == 2:
        seq, par = kernels.sweep_block, kernels.psweep_block
    else:
        seq, par = kernels.sweep, kernels.psweep
    for lo, hi, parallel in spans:
        (par if parallel else seq)(*args, lo, hi)
    return x


#: The span policies the pure-kernel tests drive: every batch a prange
#: span, one whole-plan sequential span, and the parallel backend's own.
SPAN_POLICIES = (batch_spans, whole_plan_span, fused_dispatch)


# ---------------------------------------------------------------------------
# pure-Python kernel logic (runs with and without numba)
# ---------------------------------------------------------------------------
class TestPureKernels:
    @pytest.mark.parametrize(
        "name,matrix", irregular_matrices(), ids=lambda v: v
        if isinstance(v, str) else ""
    )
    def test_matches_numpy_backend_on_irregular_plans(self, name, matrix):
        rng = np.random.default_rng(5)
        b = rng.standard_normal(matrix.n)
        plan = compile_plan(matrix)
        expected = NumpyBackend().solve(plan, b)
        for spans in SPAN_POLICIES:
            np.testing.assert_allclose(
                _pure_solve(plan, b, spans(plan)), expected,
                rtol=1e-12, atol=1e-13, err_msg=spans.__name__,
            )

    @pytest.mark.parametrize("k", [1, 3])
    def test_block_columns_bitwise_equal_single_rhs(self, k):
        for name, matrix in irregular_matrices():
            rng = np.random.default_rng(6)
            b_block = rng.standard_normal((matrix.n, k))
            plan = compile_plan(matrix)
            for spans in SPAN_POLICIES:
                x_block = _pure_solve(plan, b_block, spans(plan))
                for c in range(k):
                    np.testing.assert_array_equal(
                        x_block[:, c],
                        _pure_solve(plan, b_block[:, c], spans(plan)),
                        err_msg=f"{name} {spans.__name__}: block column "
                                f"{c} != single RHS",
                    )

    def test_parallel_sweep_bitwise_equals_sequential(self):
        for name, matrix in irregular_matrices():
            rng = np.random.default_rng(7)
            b = rng.standard_normal(matrix.n)
            plan = compile_plan(matrix)
            np.testing.assert_array_equal(
                _pure_solve(plan, b, batch_spans(plan)),
                _pure_solve(plan, b, whole_plan_span(plan)),
                err_msg=f"{name}: prange sweep diverged from sequential",
            )

    @given(lower_triangular_matrices(max_n=40))
    def test_matches_numpy_backend_property(self, matrix):
        b = np.linspace(-1.0, 1.0, matrix.n)
        plan = compile_plan(matrix)
        for spans in (batch_spans, whole_plan_span):
            np.testing.assert_allclose(
                _pure_solve(plan, b, spans(plan)),
                NumpyBackend().solve(plan, b),
                rtol=1e-9,
                atol=1e-12,
            )


# ---------------------------------------------------------------------------
# the parallel backend's dispatch policy (pure plan arithmetic)
# ---------------------------------------------------------------------------
def _grouping_by_loop(plan, threshold=64):
    """The compile-time grouping plans used to persist, at its default
    threshold of 64 rows, by a plain loop over the batches: a batch
    joins the previous group when both have fewer than ``threshold``
    rows; a group is parallel when it is one batch of at least
    ``threshold`` rows."""
    sizes = np.diff(plan.batch_ptr).tolist()
    groups = []
    for t, size in enumerate(sizes):
        if t and size < threshold and sizes[t - 1] < threshold:
            groups[-1][1] = t + 1
        else:
            groups.append([t, t + 1])
    ptr = plan.batch_ptr.tolist()
    return tuple(
        (ptr[b0], ptr[b1], b1 - b0 == 1 and ptr[b1] - ptr[b0] >= threshold)
        for b0, b1 in groups
    )


def _dispatch_plans():
    """Plans with batches both at least and under 64 rows, plus the
    irregular corpus, a scheduled plan and a backward plan."""
    lower = narrow_band_lower(600, 0.25, 6.0, seed=1)
    schedule = GrowLocalScheduler().schedule(
        DAG.from_lower_triangular(lower), 4
    )
    cases = [
        ("wide-then-chain", wide_then_chain()),
        ("wide-shallow", make_wide_shallow(levels=4, width=100, seed=2)),
        ("deep-narrow", make_deep_narrow(n=300, seed=3)),
        *irregular_matrices(),
    ]
    return [
        *((name, compile_plan(matrix)) for name, matrix in cases),
        ("growlocal", compile_plan(lower, schedule)),
        ("backward", compile_plan(lower.transpose(), direction="backward")),
    ]


class TestFusion:
    def test_runs_keep_boundaries_next_to_large_batches(self):
        batch_ptr = np.array([0, 100, 101, 102, 200], dtype=np.int64)
        # sizes 100,1,1,98 under 64 rows: only the boundary between the
        # two singleton batches dissolves
        assert _group_runs(
            batch_ptr, np.diff(batch_ptr) < PARALLEL_BATCH_ROWS
        ) == ((0, 100, False), (100, 102, True), (102, 200, False))

    def test_empty_plan(self):
        assert _group_runs(
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=bool)
        ) == ()
        empty = np.zeros(0, dtype=np.int64)
        plan = compile_plan(CSRMatrix.from_coo(0, empty, empty, np.zeros(0)))
        assert fused_dispatch(plan) == ()
        assert plan.n_fused_groups == 0

    def test_chain_fuses_end_to_end(self):
        plan = compile_plan(_lower(40, *chain_n(40)))
        assert plan.n_batches == 40
        assert plan.n_fused_groups == 1
        assert fused_dispatch(plan) == ((0, 40, False),)

    def test_dispatch_spans_tile_all_positions(self):
        for name, plan in _dispatch_plans():
            spans = fused_dispatch(plan)
            assert spans[0][0] == 0 and spans[-1][1] == plan.n, name
            for (_, hi, _p), (lo, _, _q) in zip(spans, spans[1:],
                                                 strict=False):
                assert hi == lo, name
            starts = set(plan.batch_ptr.tolist())
            assert all(lo in starts and hi in starts
                       for lo, hi, _ in spans), name

    def test_dispatch_parallel_only_for_large_single_batches(self):
        plan = compile_plan(wide_then_chain())
        sizes = np.diff(plan.batch_ptr)
        assert sizes.max() >= PARALLEL_BATCH_ROWS > sizes.min()
        spans = fused_dispatch(plan)
        assert {parallel for _, _, parallel in spans} == {True, False}
        starts = plan.batch_ptr.tolist()
        for (_, _, left), (_, _, right) in zip(spans, spans[1:],
                                               strict=False):
            assert left or right, "sequential runs must be maximal"
        for lo, hi, parallel in spans:
            t0, t1 = starts.index(lo), starts.index(hi)
            if parallel:  # exactly one batch, worth a fork/join
                assert t1 == t0 + 1 and hi - lo >= PARALLEL_BATCH_ROWS
            else:
                assert (sizes[t0:t1] < PARALLEL_BATCH_ROWS).all()

    def test_spans_equal_the_former_compile_time_grouping(self):
        assert PARALLEL_BATCH_ROWS == 64  # that grouping's default
        for name, plan in _dispatch_plans():
            assert fused_dispatch(plan) == _grouping_by_loop(plan), name
            assert plan.n_fused_groups == len(fused_dispatch(plan)), name

    def test_spans_are_computed_once_per_plan(self):
        plan = compile_plan(wide_then_chain())
        assert fused_dispatch(plan) is fused_dispatch(plan)

    def test_rebuilt_plan_computes_fresh_spans(self):
        """A plan rebuilt from a dispatched plan's fields — every slot,
        the cached spans included — with another plan's arrays gets the
        other plan's spans: the constructor discards the cache."""
        dispatched = compile_plan(wide_then_chain())
        fresh = compile_plan(_lower(50, *chain_n(50), seed=5))
        fused_dispatch(dispatched)
        fields = {name: getattr(dispatched, name)
                  for name in dispatched.__slots__}
        assert fields["_fused_spans"] is not None
        assert fused_dispatch(ExecutionPlan(**fields)) == fused_dispatch(
            dispatched
        )
        fields.update(
            (name, getattr(fresh, name)) for name in (*ARRAY_FIELDS, "matrix")
        )
        rebuilt = ExecutionPlan(**fields)
        assert rebuilt._fused_spans is None
        assert fused_dispatch(rebuilt) == fused_dispatch(fresh) == (
            (0, 50, False),
        )
        assert rebuilt.n_fused_groups == 1

    def test_store_loaded_plan_computes_fresh_spans(self, tmp_path):
        matrix = wide_then_chain()
        plan = compile_plan(matrix)
        spans = fused_dispatch(plan)
        store = PlanStore(tmp_path)
        key = plan_store_key(matrix, None)
        assert store.save(plan, key) is not None
        loaded = store.load(key, matrix=matrix)
        assert loaded._fused_spans is None
        assert fused_dispatch(loaded) == spans
        assert fused_dispatch(loaded) is not spans


# ---------------------------------------------------------------------------
# the numpy tier: scalar / vectorized span split and its solves
# ---------------------------------------------------------------------------
def _batch_work(plan):
    """Rows plus off-diagonal entries of every batch."""
    return np.diff(plan.batch_ptr) + np.diff(plan.off_ptr[plan.batch_ptr])


def _kinds(plan):
    return {scalar for _, _, scalar in numpy_dispatch(plan)}


def _span_plans():
    """(name, matrix, plan) triples whose numpy split has both span
    kinds: a crafted wide-then-chain plan, a growlocal-scheduled plan
    and a backward (upper-triangular) plan."""
    lower = narrow_band_lower(300, 0.25, 6.0, seed=0)
    schedule = GrowLocalScheduler().schedule(
        DAG.from_lower_triangular(lower), 4
    )
    upper = lower.transpose()
    mixed_lower = _lower(50, *mixed(50), seed=4)
    return [
        ("mixed", mixed_lower, compile_plan(mixed_lower)),
        ("growlocal", lower, compile_plan(lower, schedule)),
        ("backward", upper, compile_plan(upper, direction="backward")),
    ]


def _assert_matches_scipy(matrix, plan, b, name=""):
    """Within 1e-10 of ``spsolve_triangular``, relative to max |x|."""
    expected = spsolve_triangular(
        matrix.to_scipy().tocsr(), b, lower=plan.direction == "forward"
    )
    x = get_backend("numpy").solve(plan, b)
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    error = float(np.max(np.abs(x - expected), initial=0.0))
    assert error <= 1e-10 * scale, (name, error, scale)


def _recipes(plan):
    """The sum recipe of every vectorized step of the numpy program:
    ``"rank"``, ``"reduceat"``, or ``"nz"`` for a reduceat batch with a
    row without entries."""
    return [
        "rank" if batch.ranks is not None
        else "reduceat" if batch.nz is None else "nz"
        for _, _, batch in _numpy_program(plan)
        if batch is not None
    ]


def _rank_boundary():
    """Batch 1 mixes rows of ``RANK_SUM_MAX`` and ``RANK_SUM_MAX + 1``
    entries; batch 2 has rows of 1 to ``RANK_SUM_MAX`` entries, at least
    one of them in batch 1."""
    rng = np.random.default_rng(19)
    rows, cols = [], []
    for i in range(20, 40):
        deps = RANK_SUM_MAX + (i >= 30)
        rows += [i] * deps
        cols += rng.choice(20, deps, replace=False).tolist()
    for i in range(40, 60):
        deps = (i % RANK_SUM_MAX) + 1
        rows += [i] * deps
        cols += [int(rng.integers(20, 40))] + rng.choice(
            20, deps - 1, replace=False
        ).tolist()
    return _lower(60, rows, cols, seed=20)


def _relayout(plan, order, batch_ptr):
    """A hand-built plan of ``plan``'s matrix: its positions taken in
    ``order`` (new position -> old) and cut into ``batch_ptr``."""
    counts = np.diff(plan.off_ptr)[order]
    flat = segmented_gather(plan.off_ptr[order], counts)
    rows = plan.rows[order]
    pos = np.empty_like(rows)
    pos[rows] = np.arange(rows.size)
    fields = {name: getattr(plan, name) for name in plan.__slots__}
    fields.update(
        rows=rows,
        batch_ptr=np.asarray(batch_ptr, dtype=np.int64),
        off_ptr=np.concatenate(([0], np.cumsum(counts))),
        off_cols=plan.off_cols[flat],
        off_vals=plan.off_vals[flat],
        diag=plan.diag[order],
        pos=pos,
    )
    return ExecutionPlan(**fields)


def _late_empty_row():
    """(matrix, hand-built plan): rows 30-59 have 10 entries each on rows
    0-29 other than row 5, and row 5, which has no entries, is moved
    from batch 0 into the middle of batch 1."""
    rng = np.random.default_rng(21)
    rows = np.repeat(np.arange(30, 60), 10)
    sources = np.delete(np.arange(30), 5)
    cols = np.concatenate([rng.choice(sources, 10, replace=False)
                           for _ in range(30)])
    matrix = _lower(60, rows, cols, seed=22)
    plan = compile_plan(matrix)
    assert plan.batch_ptr.tolist() == [0, 30, 60]
    order = [k for k in range(30) if k != 5]
    order = order + list(range(30, 45)) + [5] + list(range(45, 60))
    return matrix, _relayout(plan, np.array(order), [0, 29, 60])


def _recipe_plans():
    """(name, matrix, plan) triples covering every sum recipe: the
    span plans, an Erdős–Rényi plan (reduceat), the rank boundary and
    a hand-built plan with a row without entries in a later batch."""
    er = erdos_renyi_lower(200, 0.08, seed=3)
    boundary = _rank_boundary()
    late_matrix, late_plan = _late_empty_row()
    return _span_plans() + [
        ("erdos-renyi", er, compile_plan(er)),
        ("rank-boundary", boundary, compile_plan(boundary)),
        ("late-empty-row", late_matrix, late_plan),
    ]


class TestNumpySpans:
    @pytest.mark.parametrize(
        "name,matrix", irregular_matrices(), ids=lambda v: v
        if isinstance(v, str) else ""
    )
    def test_spans_tile_plan_and_respect_the_bound(self, name, matrix):
        plan = compile_plan(matrix)
        spans = numpy_dispatch(plan)
        assert spans[0][0] == 0 and spans[-1][1] == plan.n
        starts = plan.batch_ptr.tolist()
        work = _batch_work(plan)
        for (_, hi, left), (lo, _, right) in zip(spans, spans[1:],
                                                 strict=False):
            assert hi == lo
            assert not (left and right), "scalar runs must be maximal"
        for lo, hi, scalar in spans:
            t0, t1 = starts.index(lo), starts.index(hi)
            assert t1 > t0
            if scalar:
                assert (work[t0:t1] <= SCALAR_BATCH_WORK).all()
            else:
                assert t1 == t0 + 1
                assert work[t0] > SCALAR_BATCH_WORK

    def test_deep_narrow_is_one_scalar_span(self):
        plan = compile_plan(make_deep_narrow(n=500, seed=0))
        assert numpy_dispatch(plan) == ((0, plan.n, True),)

    def test_serving_shape_has_no_scalar_span(self):
        plan = compile_plan(
            make_wide_shallow(levels=64, width=100, deps=3, seed=0)
        )
        assert len(numpy_dispatch(plan)) == plan.n_batches
        assert _kinds(plan) == {False}

    def test_mixed_has_both_kinds(self):
        assert _kinds(compile_plan(_lower(50, *mixed(50)))) == {True, False}

    def test_split_does_not_depend_on_fusion(self):
        """The numpy split and the parallel backend's spans are cached
        apart: computing either first leaves the other as on a fresh
        plan."""
        matrix = wide_then_chain()
        numpy_first, fused_first = compile_plan(matrix), compile_plan(matrix)
        expected = numpy_dispatch(numpy_first), fused_dispatch(numpy_first)
        assert fused_dispatch(fused_first) == expected[1]
        assert numpy_dispatch(fused_first) == expected[0]
        assert expected[0] != expected[1]

    def test_empty_plan_has_no_spans(self):
        empty = np.zeros(0, dtype=np.int64)
        plan = compile_plan(CSRMatrix.from_coo(0, empty, empty, np.zeros(0)))
        assert numpy_dispatch(plan) == ()

    def test_split_is_computed_once_per_plan(self):
        plan = compile_plan(_lower(50, *mixed(50)))
        assert numpy_dispatch(plan) is numpy_dispatch(plan)


class TestNumpySpanSolves:
    @pytest.mark.parametrize(
        "name,matrix", irregular_matrices(), ids=lambda v: v
        if isinstance(v, str) else ""
    )
    def test_irregular_corpus_matches_scipy(self, name, matrix):
        b = np.random.default_rng(12).standard_normal(matrix.n)
        _assert_matches_scipy(matrix, compile_plan(matrix), b, name)

    def test_scheduled_and_backward_plans_match_scipy(self):
        for name, matrix, plan in _span_plans():
            assert _kinds(plan) == {True, False}, name
            b = np.random.default_rng(13).standard_normal(matrix.n)
            _assert_matches_scipy(matrix, plan, b, name)

    @given(lower_triangular_matrices(max_n=40))
    def test_matches_scipy_property(self, matrix):
        b = np.linspace(-1.0, 1.0, matrix.n)
        _assert_matches_scipy(matrix, compile_plan(matrix), b)

    @pytest.mark.parametrize("k", range(1, 18))
    def test_block_columns_bitwise_equal_solve(self, k):
        """Every width from 1 to 17 columns, on plans with both kinds
        of span and every sum recipe."""
        backend = get_backend("numpy")
        for name, matrix, plan in _recipe_plans():
            rng = np.random.default_rng(14)
            b_c = rng.standard_normal((matrix.n, k))
            singles = [backend.solve(plan, b_c[:, c]) for c in range(k)]
            b_f = np.asfortranarray(b_c)
            # column views with stride 2k: every other column of a wider
            # block, so neither RHS nor output is contiguous
            wide = np.zeros((matrix.n, 2 * k))
            wide[:, ::2] = b_c
            results = {
                "C-order": backend.solve_block(plan, b_c),
                "F-order": backend.solve_block(plan, b_f),
                "strided": backend.solve_block(plan, wide[:, ::2]),
                "x given": backend.solve_block(
                    plan, b_c, np.full((matrix.n, k), np.nan, order="F")
                ),
            }
            for order in "CF":
                in_place = b_c.copy(order=order)
                assert backend.solve_block(
                    plan, in_place, in_place
                ) is in_place
                results[f"x is b ({order}-order)"] = in_place
            for label, x_block in results.items():
                for c in range(k):
                    np.testing.assert_array_equal(
                        x_block[:, c], singles[c],
                        err_msg=f"{name} {label}: column {c} != solve()",
                    )

    def test_single_rhs_buffers(self):
        backend = get_backend("numpy")
        for name, matrix, plan in _span_plans():
            b = np.random.default_rng(15).standard_normal(matrix.n)
            expected = backend.solve(plan, b)
            strided = np.zeros((matrix.n, 3))
            strided[:, 1] = b
            out = np.full(2 * matrix.n, np.nan)[::2]
            assert backend.solve(plan, strided[:, 1], out) is out
            in_place = b.copy()
            assert backend.solve(plan, in_place, in_place) is in_place
            for label, x in (("strided", out), ("x is b", in_place)):
                np.testing.assert_array_equal(x, expected,
                                              err_msg=f"{name} {label}")

    def test_zero_width_blocks_and_empty_plans(self):
        backend = get_backend("numpy")
        for name, matrix, plan in _recipe_plans():
            assert backend.solve_block(
                plan, np.zeros((matrix.n, 0))
            ).shape == (matrix.n, 0), name
        empty = np.zeros(0, dtype=np.int64)
        plan = compile_plan(CSRMatrix.from_coo(0, empty, empty, np.zeros(0)))
        assert backend.solve(plan, np.zeros(0)).shape == (0,)
        assert backend.solve_block(plan, np.zeros((0, 3))).shape == (0, 3)

    def test_rebuilt_plan_does_not_inherit_the_split(self, tmp_path):
        """A plan rebuilt from a solved plan's fields — every slot, the
        split and the program included — with another plan's arrays
        must solve like that other plan: the constructor discards the
        split and the program, so a rebuilt plan and a store load start
        without them."""
        backend = get_backend("numpy")
        matrix = _lower(50, *mixed(50), seed=4)
        solved = compile_plan(matrix)
        chain = _lower(50, *chain_n(50), seed=5)
        fresh = compile_plan(chain)
        b = np.random.default_rng(16).standard_normal(50)
        backend.solve(solved, b)
        fields = {name: getattr(solved, name) for name in solved.__slots__}
        assert fields["_numpy_spans"] is not None
        assert fields["_numpy_program"] is not None
        same = ExecutionPlan(**fields)
        assert same._numpy_spans is None and same._numpy_program is None
        np.testing.assert_array_equal(
            backend.solve(same, b), backend.solve(solved, b)
        )
        store = PlanStore(tmp_path)
        key = plan_store_key(matrix, None)
        assert store.save(solved, key) is not None
        loaded = store.load(key, matrix=matrix)
        assert loaded._numpy_program is None
        np.testing.assert_array_equal(
            backend.solve(loaded, b), backend.solve(solved, b)
        )
        fields.update(
            (name, getattr(fresh, name))
            for name in (*ARRAY_FIELDS, "matrix")
        )
        rebuilt = ExecutionPlan(**fields)
        assert rebuilt._numpy_program is None
        np.testing.assert_array_equal(
            backend.solve(rebuilt, b), backend.solve(fresh, b)
        )
        np.testing.assert_array_equal(
            backend.solve_block(rebuilt, b[:, None])[:, 0],
            backend.solve(fresh, b),
        )

    def test_concurrent_first_solves_agree(self):
        """Threads racing to compute a fresh plan's split, program and
        parallel spans (the service's shard workers share plans), half
        of them through ``solve_block``, all solve bit-equal and see the
        same spans."""
        backend = get_backend("numpy")
        _, matrix, reference_plan = _span_plans()[1]
        b = np.random.default_rng(18).standard_normal(matrix.n)
        expected = backend.solve(reference_plan, b)
        expected_spans = fused_dispatch(reference_plan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                plan = compile_plan(matrix)
                results = [None] * 8

                def solve(j, plan=plan, results=results):
                    assert fused_dispatch(plan) == expected_spans
                    if j % 2:
                        results[j] = backend.solve_block(
                            plan, b[:, None]
                        )[:, 0]
                    else:
                        results[j] = backend.solve(plan, b)

                workers = [
                    threading.Thread(target=solve, args=(j,))
                    for j in range(len(results))
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                    assert not worker.is_alive()
                for x in results:
                    np.testing.assert_array_equal(x, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_store_loaded_plan_solves_bit_equal(self, tmp_path):
        backend = get_backend("numpy")
        store = PlanStore(tmp_path)
        for name, matrix, plan in _span_plans():
            b = np.random.default_rng(17).standard_normal(matrix.n)
            expected = backend.solve(plan, b)  # the split is now cached
            key = plan_store_key(matrix, direction=plan.direction)
            assert store.save(plan, key) is not None
            loaded = store.load(key, matrix=matrix)
            np.testing.assert_array_equal(
                backend.solve(loaded, b), expected, err_msg=name
            )
            np.testing.assert_array_equal(
                backend.solve_block(loaded, np.tile(b[:, None], 3)),
                np.tile(expected[:, None], 3), err_msg=name,
            )


def _scalar_sweep(plan, b):
    """The interpreted scalar recurrence over the whole plan."""
    y = np.zeros(plan.n)
    _sweep(plan.rows, plan.off_ptr, plan.off_cols, plan.off_vals,
           plan.diag, b, y, 0, plan.n)
    return y


class TestNumpyProgram:
    """The numpy backend's per-plan program of prebuilt batch steps."""

    def test_built_once_on_the_first_solve(self):
        backend = get_backend("numpy")
        _, matrix, plan = _recipe_plans()[3]
        assert plan._numpy_program is None, "compile_plan built it"
        b = np.random.default_rng(23).standard_normal(matrix.n)
        backend.solve(plan, b)
        program = plan._numpy_program
        assert program is not None
        backend.solve(plan, b)
        backend.solve_block(plan, np.tile(b[:, None], 2))
        assert _numpy_program(plan) is program

    def test_rank_sum_boundary(self):
        """A batch with a row of ``RANK_SUM_MAX + 1`` entries sums by
        reduceat; one whose rows have up to ``RANK_SUM_MAX`` is
        rank-summed, one rank per entry, and gives the scalar sweep's
        bits from the same inputs."""
        matrix = _rank_boundary()
        plan = compile_plan(matrix)
        counts = np.diff(plan.off_ptr)
        lo, mid, hi = plan.batch_ptr[1:].tolist()
        assert set(counts[lo:mid].tolist()) == {
            RANK_SUM_MAX, RANK_SUM_MAX + 1
        }
        assert counts[mid:hi].max() == RANK_SUM_MAX
        assert _recipes(plan) == ["nz", "reduceat", "rank"]
        assert len(_numpy_program(plan)[2][2].ranks) == RANK_SUM_MAX
        b = np.random.default_rng(24).standard_normal(matrix.n)
        _assert_matches_scipy(matrix, plan, b)
        x = get_backend("numpy").solve(plan, b)
        y = x.copy()
        _sweep(plan.rows, plan.off_ptr, plan.off_cols, plan.off_vals,
               plan.diag, b, y, mid, hi)
        np.testing.assert_array_equal(y, x)

    def test_row_without_entries_in_a_later_batch(self):
        """A hand-built plan's vectorized batch with a row without
        entries takes the reduceat recipe over its other rows."""
        matrix, plan = _late_empty_row()
        assert _recipes(plan) == ["nz", "nz"]
        assert _numpy_program(plan)[1][2].nz.size == 30
        b = np.random.default_rng(25).standard_normal(matrix.n)
        _assert_matches_scipy(matrix, plan, b)

    @pytest.mark.parametrize("name", ["serving", "narrow-band", "grid"])
    def test_rank_summed_plans_equal_the_scalar_sweep(self, name):
        """Where every vectorized batch with entries is rank-summed,
        ``solve`` gives the bits of the scalar recurrence over the whole
        plan, the sign of every zero included."""
        matrix = {
            "serving": lambda: make_wide_shallow(
                levels=64, width=100, deps=3, seed=0
            ),
            "narrow-band": lambda: narrow_band_lower(
                2_000, 0.05, 20.0, seed=0
            ),
            "grid": lambda: grid_laplacian_2d(40, 40).lower_triangle(),
        }[name]()
        plan = compile_plan(matrix)
        for _, _, batch in _numpy_program(plan):
            if batch is not None and batch.ranks is None:
                assert batch.nz is not None and batch.nz.size == 0, name
        assert "rank" in _recipes(plan)
        rng = np.random.default_rng(26)
        for b in (rng.standard_normal(matrix.n),
                  np.copysign(0.0, rng.standard_normal(matrix.n))):
            x = NumpyBackend().solve(plan, b)
            y = _scalar_sweep(plan, b)
            np.testing.assert_array_equal(x, y, err_msg=name)
            np.testing.assert_array_equal(
                np.signbit(x), np.signbit(y), err_msg=name
            )

# ---------------------------------------------------------------------------
# registry satellites
# ---------------------------------------------------------------------------
class TestRegistrySatellites:
    def _cleanup(self, name):
        backends_mod._FACTORIES.pop(name, None)
        backends_mod._INSTANCES.pop(name, None)
        backends_mod._UNAVAILABLE.pop(name, None)

    def test_unavailability_probed_once(self):
        calls = []

        def failing_factory():
            calls.append(1)
            raise BackendUnavailableError("no hardware here")

        register_backend("test-flaky", failing_factory, replace=True)
        try:
            from repro.exec import available_backends

            assert "test-flaky" not in available_backends()
            assert "test-flaky" not in available_backends()
            with pytest.raises(BackendUnavailableError):
                get_backend("test-flaky")
            assert len(calls) == 1  # probe ran once, verdict cached
        finally:
            self._cleanup("test-flaky")

    def test_reregistering_clears_cached_unavailability(self):
        def failing_factory():
            raise BackendUnavailableError("not yet")

        register_backend("test-comeback", failing_factory, replace=True)
        try:
            with pytest.raises(BackendUnavailableError):
                get_backend("test-comeback")
            register_backend("test-comeback", NumpyBackend, replace=True)
            assert get_backend("test-comeback").name == "numpy"
        finally:
            self._cleanup("test-comeback")

    def test_env_var_unknown_backend_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        with pytest.raises(ConfigurationError, match=BACKEND_ENV_VAR):
            get_backend()

    def test_env_var_known_backend_still_resolves(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"


# ---------------------------------------------------------------------------
# backend attribution in stats (service + experiment layers)
# ---------------------------------------------------------------------------
class TestBackendAttribution:
    def test_service_stats_report_backend(self):
        from repro.service import SolveService

        matrix = _lower(30, *chain_n(30))
        with SolveService(backend="numpy") as service:
            service.register("sys", matrix)
            service.solve("sys", np.ones(30))
            stats = service.stats("sys")
            assert stats.backend == "numpy"
            assert stats.as_row()["backend"] == "numpy"
            final = service.unregister("sys")
        assert final.backend == "numpy"

    def test_experiment_result_reports_backend(self):
        from repro.experiments.datasets import DatasetInstance
        from repro.experiments.runner import run_instance
        from repro.machine.model import get_machine
        from repro.scheduler.registry import make_scheduler

        inst = DatasetInstance("attr", _lower(60, *wide_two(60)))
        result = run_instance(
            inst, make_scheduler("wavefront"),
            get_machine("intel_xeon_6238t"),
        )
        assert result.backend == get_backend().name
        assert result.as_row()["backend"] == result.backend


# ---------------------------------------------------------------------------
# persistent JIT cache keying (runs everywhere)
# ---------------------------------------------------------------------------
class TestJitCacheKeying:
    def test_key_is_stable_and_content_shaped(self):
        key = jit_cache_key()
        assert key == jit_cache_key()
        assert len(key) == 16
        int(key, 16)  # hex digest prefix

    def test_cache_dir_honors_env_override(self, monkeypatch):
        monkeypatch.setenv(JIT_CACHE_ENV_VAR, "/tmp/jit-cache-test")
        path = jit_cache_dir()
        assert str(path).startswith("/tmp/jit-cache-test")
        assert path.name == jit_cache_key()


# ---------------------------------------------------------------------------
# the JIT tier itself (numba only)
# ---------------------------------------------------------------------------
@needs_numba
class TestJitTier:
    @pytest.mark.parametrize("k", [1, 3])
    def test_tier_bitwise_identical_and_close_to_numpy(self, k):
        numpy_backend = get_backend("numpy")
        seq = get_backend("numba")
        par = get_backend("numba-parallel")
        kernels = jit_kernels()
        span_kinds = set()
        for name, matrix in irregular_matrices():
            rng = np.random.default_rng(8)
            b = rng.standard_normal(matrix.n)
            b_block = rng.standard_normal((matrix.n, k))
            plan = compile_plan(matrix)
            span_kinds |= {parallel for _, _, parallel in par.dispatch(plan)}

            x_seq = seq.solve(plan, b)
            np.testing.assert_array_equal(
                par.solve(plan, b), x_seq,
                err_msg=f"{name}: parallel tier != sequential sweep",
            )
            np.testing.assert_array_equal(
                _pure_solve(plan, b, batch_spans(plan), kernels), x_seq,
                err_msg=f"{name}: prange over every batch != sequential",
            )
            np.testing.assert_allclose(
                x_seq, numpy_backend.solve(plan, b),
                rtol=1e-12, atol=1e-13, err_msg=name,
            )

            xb_seq = seq.solve_block(plan, b_block)
            np.testing.assert_array_equal(
                par.solve_block(plan, b_block), xb_seq,
                err_msg=f"{name}: block parallel tier != sequential",
            )
            np.testing.assert_array_equal(
                _pure_solve(plan, b_block, batch_spans(plan), kernels),
                xb_seq,
                err_msg=f"{name}: block prange over every batch",
            )
            for c in range(k):
                np.testing.assert_array_equal(
                    xb_seq[:, c], seq.solve(plan, b_block[:, c]),
                    err_msg=f"{name}: block column {c} != single RHS",
                )
            np.testing.assert_allclose(
                xb_seq, numpy_backend.solve_block(plan, b_block),
                rtol=1e-12, atol=1e-13, err_msg=name,
            )
        # the corpus drives both span kinds of numba-parallel
        assert span_kinds == {True, False}

    def test_auto_selection_prefers_parallel_tier(self):
        assert get_backend().name == "numba-parallel"

    def test_warm_second_process_performs_zero_compiles(self):
        """Warm every kernel signature here (populating the persistent
        artifact cache), then a fresh interpreter warming the same
        kernels must serve every signature from that cache."""
        warm_kernels()
        src_root = Path(backends_mod.__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_root), env.get("PYTHONPATH")) if p
        )
        probe = (
            "import json\n"
            "from repro.exec.kernels_numba import warm_kernels\n"
            "print(json.dumps(warm_kernels()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True, timeout=600, check=True,
        )
        second = json.loads(out.stdout.strip().splitlines()[-1])
        assert second["compiles"] == 0, second
