"""Execution-plan compiler: lower a triangular matrix once.

The paper's thesis is that SpTRSV throughput is decided in the executed
kernel, not in the schedule data structure.  This module separates the two:
:func:`compile_plan` lowers a triangular matrix and a sweep direction into
an :class:`ExecutionPlan` — flat, contiguous NumPy arrays that the backend
kernels of :mod:`repro.exec.backends` consume without ever walking CSR
rows in interpreted Python.  A barrier schedule is not part of the plan:
the :class:`~repro.scheduler.schedule.Schedule` object is itself the
per-core program, and the machine simulators price it directly.

Lowered representation
----------------------
*Batches.*  Rows are grouped into *batches* by global dependency level
(``level(v) = 0`` if ``v`` has no dependency, else ``1 + max`` over its
dependencies): every plan of a matrix is its level set.  All rows of a
batch are mutually independent, so a batch can be solved by one
vectorized gather, multiply, segment sum, subtract, divide and scatter,
and the numpy backend does so for every batch with more than a few rows
plus off-diagonal entries; runs of lower-work batches it solves as one
scalar sweep instead, since a vectorized step costs more than their work
(see :func:`~repro.exec.backends.numpy_dispatch`).  No backend runs a
schedule's per-core program, so a superstep-major layout would only add
a batch at every superstep boundary.

*Gather arrays.*  For every row position the off-diagonal column indices and
values are re-laid-out contiguously in batch order (``off_ptr`` /
``off_cols`` / ``off_vals``), the diagonal is pre-extracted (``diag``), and
missing/zero diagonals are detected once at compile time instead of on
every solve.

*Dispatch spans.*  The plan carries the dependency batches and nothing
about how a backend groups or executes them: each backend derives its
position spans from ``batch_ptr`` once per plan, and the numpy backend
its program of prebuilt batch steps (each batch's views and segment-sum
recipe) on the plan's first numpy solve.  Both are kept on the plan
object, never built by :func:`compile_plan` and never persisted (see
:func:`~repro.exec.backends.numpy_dispatch` and
:func:`~repro.exec.backends.fused_dispatch`).

Compiling is a one-time cost per ``(matrix, direction)`` pair; every
consumer — repeated triangular solves inside CG/Gauss-Seidel, the
experiment runner, the solve service — reuses the plan, and every
schedule of one matrix shares it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError, SingularMatrixError
from repro.matrix.csr import CSRMatrix
from repro.obs_gate import get_obs, validation_enabled
from repro.scheduler.schedule import Schedule
from repro.utils.arrays import segmented_gather

__all__ = ["ExecutionPlan", "compile_count", "compile_plan"]

#: Process-wide count of plan lowerings (:func:`compile_plan` bodies
#: actually executed).  The plan-store warm-start contract is asserted
#: against this: a process that takes every plan from
#: :meth:`~repro.store.plan_store.PlanStore.load` on a warm store
#: performs **zero** compiles (mirroring the persistent-JIT
#: ``jit_compile_stats`` counter).
_N_COMPILES = 0


def compile_count() -> int:
    """Plans lowered by this process so far (cache/store hits excluded).

    Examples
    --------
    >>> from repro.exec import compile_count, compile_plan
    >>> from repro.matrix.generators import narrow_band_lower
    >>> before = compile_count()
    >>> _ = compile_plan(narrow_band_lower(50, 0.2, 5.0, seed=0))
    >>> compile_count() - before
    1
    """
    return _N_COMPILES


class ExecutionPlan:
    """A compiled, backend-ready lowering of one triangular-solve workload.

    Attributes
    ----------
    matrix:
        The source :class:`~repro.matrix.csr.CSRMatrix` (kept for
        staleness checks and debugging; kernels only touch the flat
        arrays below).
    direction:
        ``"forward"`` (lower triangular) or ``"backward"`` (upper).
    rows:
        ``int64[n]`` — row ids in execution order, grouped by batch.
    batch_ptr:
        ``int64[n_batches + 1]`` — batch ``t`` spans
        ``rows[batch_ptr[t]:batch_ptr[t+1]]``; batch ``t`` holds the
        rows of global dependency level ``t``.
    off_ptr / off_cols / off_vals:
        Concatenated off-diagonal gather structure aligned with positions
        in ``rows``: position ``k`` reads
        ``off_cols[off_ptr[k]:off_ptr[k+1]]`` — within a batch these are
        contiguous segments, which is what the backends' segment-sum
        kernels exploit.
    diag:
        ``float64[n]`` — diagonal value per position in ``rows``.
    pos:
        ``int64[n]`` — ``pos[row_id]`` is the row's position in ``rows``.
    singular_row:
        Row id of the first missing/zero diagonal, ``-1`` when the matrix
        is solvable.  :meth:`require_solvable` turns it into a
        :class:`~repro.errors.SingularMatrixError`.

    Examples
    --------
    >>> from repro.exec import compile_plan
    >>> from repro.matrix.generators import narrow_band_lower
    >>> plan = compile_plan(narrow_band_lower(100, 0.1, 5.0, seed=0))
    >>> (plan.n, plan.direction)
    (100, 'forward')
    >>> plan.n_batches >= 1
    True
    """

    __slots__ = (
        "matrix",
        "direction",
        "rows",
        "batch_ptr",
        "off_ptr",
        "off_cols",
        "off_vals",
        "diag",
        "pos",
        "singular_row",
        "_singular_reason",
        "provenance",
        # derived, per process: the backends' span splits
        # (repro.exec.backends.numpy_dispatch / fused_dispatch) and the
        # numpy backend's program of prebuilt batch steps, computed on
        # first use
        "_numpy_spans",
        "_fused_spans",
        "_numpy_program",
    )

    def __init__(self, **fields: object) -> None:
        # where the arrays came from: "compiled" (this process lowered
        # them) or "store" (deserialized from a PlanStore artifact)
        fields.setdefault("provenance", "compiled")
        # never persisted and never taken from ``fields``: a plan rebuilt
        # from another plan's fields (a copy with replaced arrays, a
        # store load) must not inherit a split or program of different
        # arrays
        fields["_numpy_spans"] = fields["_fused_spans"] = None
        fields["_numpy_program"] = None
        for name in self.__slots__:
            setattr(self, name, fields[name])

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of rows covered by the plan."""
        return int(self.rows.size)

    @property
    def n_batches(self) -> int:
        """Number of batches (dependency layers)."""
        return int(self.batch_ptr.size) - 1

    @property
    def n_fused_groups(self) -> int:
        """Number of ``numba-parallel`` spans: one per batch of at least
        :data:`~repro.exec.backends.PARALLEL_BATCH_ROWS` rows, one per
        run of smaller batches (see
        :func:`~repro.exec.backends.fused_dispatch`)."""
        from repro.exec.backends import fused_dispatch

        return len(fused_dispatch(self))

    @property
    def nnz_off(self) -> int:
        """Off-diagonal entries in the gather structure."""
        return int(self.off_cols.size)

    def require_solvable(self) -> None:
        """Raise :class:`SingularMatrixError` if a diagonal entry is
        missing or zero (detected once, at compile time)."""
        if self.singular_row >= 0:
            raise SingularMatrixError(self._singular_reason)

    def require_compatible(self, n: int, direction: str) -> None:
        """Raise :class:`MatrixFormatError` unless this plan was compiled
        for a size-``n`` system in the given sweep ``direction`` — the
        guard every solver entry point applies to caller-supplied plans
        (a mismatched plan would otherwise silently solve the wrong
        system)."""
        if self.direction != direction:
            raise MatrixFormatError(
                f"plan direction mismatch (need {direction}, "
                f"plan is {self.direction})"
            )
        if self.n != n:
            raise MatrixFormatError(
                f"plan covers {self.n} rows, matrix has {n}"
            )

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan(n={self.n}, direction={self.direction!r}, "
            f"batches={self.n_batches})"
        )


#: Rows per block of :func:`_levelize`'s recurrence.  Dependencies on
#: rows of earlier blocks are final when a block starts, so they cost one
#: vectorized max per block; only dependencies inside a block run through
#: the scalar loop.  Timed over the benchmark workloads' plans: larger
#: blocks send more of a scattered matrix's dependencies (Erdős–Rényi)
#: through the scalar loop, smaller ones add per-block calls on wide
#: plans.
_LEVEL_BLOCK = 512


def _levelize(
    n: int,
    dep: np.ndarray,
    consumer: np.ndarray,
    direction: str,
) -> np.ndarray:
    """Longest-path dependency level of every row.

    ``dep[k] -> consumer[k]`` are the dependency edges (off-diagonal
    entries) in CSR order, i.e. grouped by ascending ``consumer``.  A
    row's level is ``0`` without deps, else ``1 + max`` over their
    levels.

    Ascending ids are a topological order of a forward plan and
    descending ids of a backward one, so the recurrence settles every
    row in one pass in that order.  The pass runs in blocks of
    :data:`_LEVEL_BLOCK` rows: deps in earlier blocks are folded in by
    one vectorized segment max per block, and only deps inside the block
    go through a scalar loop.  Cost: ``O(n + nnz)`` array work plus one
    scalar step per in-block dep, whatever the depth.
    """
    level = np.zeros(n, dtype=np.int64)
    if dep.size == 0:
        return level
    src, dst = dep, consumer
    if direction == "backward":
        # mirror the ids: the topological order ascends and, reversed,
        # the edges stay grouped by ascending consumer
        src = (n - 1) - src[::-1]
        dst = (n - 1) - dst[::-1]
    block = _LEVEL_BLOCK
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=ptr[1:])
    has_deps = np.flatnonzero(ptr[1:] != ptr[:-1])
    block_ptr = np.searchsorted(has_deps, np.arange(0, n + block, block))
    for k, lo in enumerate(range(0, n, block)):
        rows = has_deps[block_ptr[k]:block_ptr[k + 1]]
        if rows.size == 0:
            continue
        e0, e1 = ptr[lo], ptr[min(lo + block, n)]
        s = src[e0:e1]
        # deps in earlier blocks are final; deps inside this block
        # still read 0, a lower bound the scalar loop below raises
        level[rows] = np.maximum.reduceat(level[s], ptr[rows] - e0) + 1
        inner = np.flatnonzero(s >= lo)
        if inner.size:
            view = level[lo:lo + block]
            lv = view.tolist()
            for a, b in zip(
                (s[inner] - lo).tolist(),
                (dst[e0:e1][inner] - lo).tolist(),
                strict=True,
            ):
                if lv[a] >= lv[b]:
                    lv[b] = lv[a] + 1
            view[:] = lv
    return level[::-1] if direction == "backward" else level


def compile_plan(
    matrix: CSRMatrix,
    schedule: Schedule | None = None,
    *,
    direction: str = "forward",
    check_diagonal: bool = True,
    validate: bool | None = None,
) -> ExecutionPlan:
    """Lower ``matrix`` into an :class:`ExecutionPlan` of its level set.

    Parameters
    ----------
    matrix:
        Lower-triangular for ``direction="forward"``, upper-triangular for
        ``"backward"``.
    schedule:
        Optional barrier schedule of ``matrix``.  It is only checked to
        cover the matrix's rows (a
        :class:`~repro.errors.MatrixFormatError` otherwise) and is not
        read otherwise: the plan is the same with or without it.  The
        machine simulators price a schedule directly.
    direction:
        Sweep direction; decides triangularity validation and the
        tie-break order inside a batch (ascending ids forward, descending
        backward, matching the seed executors).
    check_diagonal:
        When true (the solver default) a missing or zero diagonal raises
        :class:`~repro.errors.SingularMatrixError` here, at compile time.
        The machine simulators pass ``False`` — cost models only need the
        structure.
    validate:
        Run the static verifier (:func:`repro.analysis.verify_plan`)
        on the compiled plan, raising
        :class:`~repro.errors.PlanVerificationError` on any violation.
        ``None`` (the default) defers to the ``REPRO_VALIDATE_PLANS``
        environment gate and is free when the gate is off — the hot
        compile path never imports the verifier.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.exec import compile_plan, get_backend
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.solver.sptrsv import forward_substitution
    >>> L = narrow_band_lower(200, 0.1, 8.0, seed=0)
    >>> plan = compile_plan(L)     # compile once...
    >>> x = get_backend().solve(plan, np.ones(L.n))  # ...execute many
    >>> np.allclose(x, forward_substitution(L, np.ones(L.n)))
    True
    """
    obs = get_obs()
    if obs is None:
        return _compile_plan_impl(
            matrix, schedule,
            direction=direction, check_diagonal=check_diagonal,
            validate=validate,
        )
    # gate on: wrap lowering in a span and record compile seconds (the
    # clock runs behind the facade, so the disabled path reads no clock
    # at all — the direct-timing-in-hot-path lint invariant)
    with obs.span("exec.compile", n=matrix.n, direction=direction):
        t0 = obs.clock()
        plan = _compile_plan_impl(
            matrix, schedule,
            direction=direction, check_diagonal=check_diagonal,
            validate=validate,
        )
        obs.get_registry().histogram(
            "exec.compile_seconds"
        ).observe(obs.clock() - t0)
        obs.get_registry().counter("exec.compiles").inc()
        return plan


def _compile_plan_impl(
    matrix: CSRMatrix,
    schedule: Schedule | None = None,
    *,
    direction: str = "forward",
    check_diagonal: bool = True,
    validate: bool | None = None,
) -> ExecutionPlan:
    """Instrumentation-free body of :func:`compile_plan`."""
    global _N_COMPILES
    _N_COMPILES += 1
    if direction not in ("forward", "backward"):
        raise MatrixFormatError(f"unknown direction {direction!r}")
    if direction == "forward":
        matrix.require_lower_triangular()
    elif not matrix.is_upper_triangular():
        raise MatrixFormatError("matrix is not upper triangular")
    n = matrix.n
    if schedule is not None and schedule.n != n:
        raise MatrixFormatError("schedule size does not match the matrix")

    row_nnz = matrix.row_nnz()
    rows_flat = np.repeat(np.arange(n, dtype=np.int64), row_nnz)

    # --- diagonal extraction + one-time singularity validation ---------
    dpos = matrix.diag_positions()
    diag_by_row = np.zeros(n)
    stored = dpos >= 0
    diag_by_row[stored] = matrix.data[dpos[stored]]
    singular_row = -1
    reason = ""
    missing = np.flatnonzero(~stored)
    if missing.size:
        singular_row = int(missing[0])
        reason = f"row {singular_row} has no stored diagonal entry"
    else:
        zero = np.flatnonzero(diag_by_row == 0.0)
        if zero.size:
            singular_row = int(zero[0])
            reason = f"zero diagonal at row {singular_row}"
    if check_diagonal and singular_row >= 0:
        raise SingularMatrixError(reason)

    # --- off-diagonal structure in row-id order ------------------------
    off_mask = matrix.indices != rows_flat
    off_cols_all = matrix.indices[off_mask]
    off_vals_all = matrix.data[off_mask]
    off_rows_all = rows_flat[off_mask]
    off_counts_row = np.bincount(off_rows_all, minlength=n).astype(np.int64)
    off_indptr_all = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(off_counts_row, out=off_indptr_all[1:])

    # --- batch layout: (dependency level, id) ---------------------------
    level = _levelize(n, off_cols_all, off_rows_all, direction)
    tie = (
        np.arange(n, dtype=np.int64)
        if direction == "forward"
        else np.arange(n, 0, -1, dtype=np.int64)
    )
    rows = np.lexsort((tie, level)).astype(np.int64)
    srt_level = level[rows]
    if n:
        change = np.flatnonzero(srt_level[1:] != srt_level[:-1]) + 1
        batch_ptr = np.concatenate(
            ([0], change, [n])
        ).astype(np.int64)
    else:
        batch_ptr = np.zeros(1, dtype=np.int64)

    # --- gather arrays re-laid-out in batch order ----------------------
    counts_pos = off_counts_row[rows]
    off_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts_pos, out=off_ptr[1:])
    flat = segmented_gather(off_indptr_all[rows], counts_pos)
    off_cols = off_cols_all[flat]
    off_vals = off_vals_all[flat]

    pos = np.empty(n, dtype=np.int64)
    pos[rows] = np.arange(n, dtype=np.int64)

    plan = ExecutionPlan(
        matrix=matrix,
        direction=direction,
        rows=rows,
        batch_ptr=batch_ptr,
        off_ptr=off_ptr,
        off_cols=off_cols,
        off_vals=off_vals,
        diag=diag_by_row[rows],
        pos=pos,
        singular_row=singular_row,
        _singular_reason=reason,
    )
    if validate is None:
        # cheap env sniff only; the verifier module stays unimported on
        # the hot path unless the gate is actually on
        validate = validation_enabled()
    if validate:
        from repro.analysis.verify import check_plan

        # cost-model plans (check_diagonal=False) may legally carry a
        # zero diagonal; require solvability only when the compiler did
        check_plan(plan, matrix=matrix, require_solvable=check_diagonal)
    return plan
