"""Static verification of compiled :class:`ExecutionPlan` artifacts.

The execution layer stakes correctness on the *structure* of a compiled
plan: kernels trust that ``batch_ptr`` partitions the rows, that every
off-diagonal gather reads a row some strictly-earlier batch already
finished, that diagonals are present where a solve will divide by them.
Until now those properties were only ever exercised *numerically* — a
corrupt plan produced wrong answers, not errors.  This module proves
them **statically, without executing a single sweep**: every invariant
is a vectorized check over the plan's flat arrays, so verification costs
one pass over the plan (amortized once per compile, the same Eq. 7.1
framing the scheduler itself is built on) instead of per-solve faith.

The dependency-safety theorem — *every off-diagonal gather index
references a row completed in a strictly earlier batch* — is checked
via a position→batch rank map: ``rank[k]`` is the batch of position
``k``, and an entry owned by position ``k`` reading row ``j`` is safe
iff ``rank[pos[j]] < rank[k]``.  One ``np.repeat`` and one comparison
verify all ``nnz`` edges at once.

Entry points
------------
:func:`verify_plan` returns a :class:`PlanVerificationReport` listing
every :class:`PlanInvariantViolation` (named invariant + offending
row/batch); :func:`check_plan` raises
:class:`~repro.errors.PlanVerificationError` on the first bad report.
Verification is wired into :func:`~repro.exec.plan.compile_plan` via
its ``validate=`` parameter (env-gated by ``REPRO_VALIDATE_PLANS``) and
into :class:`~repro.exec.plan_cache.PlanCache` insertions, and is the
mandatory integrity gate for any future plan-artifact load path: a
deserialized plan from another process must pass :func:`check_plan`
before it may serve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PlanVerificationError
from repro.obs_gate import VALIDATE_ENV_VAR, validation_enabled
from repro.utils.arrays import segmented_gather

__all__ = [
    "INVARIANTS",
    "VALIDATE_ENV_VAR",
    "PlanInvariantViolation",
    "PlanVerificationReport",
    "check_plan",
    "maybe_check_cached",
    "validation_enabled",
    "verify_plan",
]

#: The verifier's invariant catalogue: ``id -> what it proves``.  Each
#: :class:`PlanInvariantViolation` names exactly one of these.
INVARIANTS = {
    "dtype-contract": (
        "index/pointer arrays are int64 and value arrays float64, the "
        "layout every backend kernel (numpy reduceat, numba JIT "
        "signatures) was compiled against"
    ),
    "batch-pointer": (
        "batch_ptr starts at 0, ends at n, and is strictly increasing: "
        "batches are non-empty, non-overlapping and cover every "
        "position exactly once"
    ),
    "row-coverage": (
        "rows is a permutation of 0..n-1 and pos is its exact inverse: "
        "every row is executed exactly once"
    ),
    "gather-pointer": (
        "off_ptr starts at 0, is non-decreasing and ends at the gather "
        "array length: every position owns a well-formed (possibly "
        "empty) off-diagonal segment"
    ),
    "gather-bounds": (
        "every off-diagonal gather index names an existing row "
        "(0 <= col < n) and gather values are finite"
    ),
    "dependency-safety": (
        "every off-diagonal gather reads a row completed in a strictly "
        "earlier batch (the dependency-safety theorem: executing "
        "batches in order never reads an unsolved entry)"
    ),
    "diagonal-coverage": (
        "the diagonal array covers every position with a finite value, "
        "non-zero for solvable plans, and agrees with the recorded "
        "singular_row"
    ),
    "core-coverage": (
        "core_ptr is well-formed and the concatenated per-core "
        "sequences execute every row exactly once, within bounds"
    ),
    "source-consistency": (
        "(with the source matrix/schedule at hand) the gather "
        "structure, diagonal values and superstep map match the inputs "
        "the plan claims to have been compiled from, each row's gather "
        "segment in the source CSR order"
    ),
}


@dataclass(frozen=True)
class PlanInvariantViolation:
    """One named invariant broken by a plan.

    Attributes
    ----------
    invariant:
        A key of :data:`INVARIANTS`.
    message:
        Human-readable description with the offending values.
    row:
        Offending row id when attributable (else ``None``).
    batch:
        Offending batch index when attributable (else ``None``).
    """

    invariant: str
    message: str
    row: int | None = None
    batch: int | None = None

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "row": self.row,
            "batch": self.batch,
        }


class PlanVerificationReport:
    """The outcome of one :func:`verify_plan` pass.

    Examples
    --------
    >>> from repro.analysis import verify_plan
    >>> from repro.exec import compile_plan
    >>> from repro.matrix.generators import narrow_band_lower
    >>> plan = compile_plan(narrow_band_lower(50, 0.2, 4.0, seed=0))
    >>> report = verify_plan(plan)
    >>> (report.ok, report.violations)
    (True, [])
    """

    def __init__(
        self, violations: list[PlanInvariantViolation], *, n: int = 0
    ) -> None:
        self.violations = violations
        self.n = n

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def invariants(self) -> set[str]:
        """The distinct invariant ids violated."""
        return {v.invariant for v in self.violations}

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.n,
            "violations": [v.as_dict() for v in self.violations],
        }

    def __repr__(self) -> str:
        state = "ok" if self.ok else ",".join(sorted(self.invariants))
        return f"PlanVerificationReport(n={self.n}, {state})"


class _Verifier:
    """One verification pass; accumulates violations.

    Check families that would *crash* on structurally broken inputs
    (anything indexing through ``batch_ptr``/``off_ptr``/``rows``)
    run only when the structure they index through verified clean —
    a corrupt pointer array yields its own named violation, never an
    IndexError from inside the verifier.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
        self.violations: list[PlanInvariantViolation] = []

    def fail(
        self,
        invariant: str,
        message: str,
        *,
        row: int | None = None,
        batch: int | None = None,
    ) -> None:
        self.violations.append(
            PlanInvariantViolation(invariant, message, row=row,
                                   batch=batch)
        )

    # -- dtype contract -------------------------------------------------
    _INT_FIELDS = ("rows", "batch_ptr", "off_ptr", "off_cols", "pos",
                   "core_rows", "core_ptr", "row_step")
    _FLOAT_FIELDS = ("diag", "off_vals")

    def check_dtypes(self) -> None:
        for name in self._INT_FIELDS:
            arr = getattr(self.plan, name)
            if not isinstance(arr, np.ndarray) or arr.dtype != np.int64:
                got = getattr(arr, "dtype", type(arr).__name__)
                self.fail(
                    "dtype-contract",
                    f"{name} must be an int64 ndarray, got {got} "
                    f"(backend kernels were compiled against int64 "
                    f"indices)",
                )
        for name in self._FLOAT_FIELDS:
            arr = getattr(self.plan, name)
            if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
                got = getattr(arr, "dtype", type(arr).__name__)
                self.fail(
                    "dtype-contract",
                    f"{name} must be a float64 ndarray, got {got}",
                )

    # -- pointer structure ----------------------------------------------
    def _check_pointer(
        self,
        invariant: str,
        name: str,
        ptr: np.ndarray,
        end: int,
        *,
        strict: bool,
    ) -> bool:
        """Common monotone-cover check; True when the pointer is sound."""
        if ptr.ndim != 1 or ptr.size < 1:
            self.fail(invariant, f"{name} must be a 1-d array with at "
                                 f"least one entry, got shape "
                                 f"{getattr(ptr, 'shape', None)}")
            return False
        if ptr[0] != 0:
            self.fail(invariant, f"{name}[0] must be 0, got "
                                 f"{int(ptr[0])}")
            return False
        if ptr[-1] != end:
            self.fail(
                invariant,
                f"{name} must end at {end}, got {int(ptr[-1])} — the "
                f"segments do not cover the target exactly once",
            )
            return False
        diffs = np.diff(ptr)
        bad = np.flatnonzero(diffs < 1 if strict else diffs < 0)
        if bad.size:
            b = int(bad[0])
            kind = ("empty or overlapping segment"
                    if strict else "decreasing pointer")
            self.fail(
                invariant,
                f"{name} is not monotone at segment {b} "
                f"({int(ptr[b])} -> {int(ptr[b + 1])}): {kind}",
                batch=b if name == "batch_ptr" else None,
            )
            return False
        return True

    def check_batches(self) -> bool:
        return self._check_pointer(
            "batch-pointer", "batch_ptr", self.plan.batch_ptr,
            self.plan.rows.size, strict=True,
        )

    def check_rows(self) -> bool:
        plan, n = self.plan, self.plan.rows.size
        rows, pos = plan.rows, plan.pos
        if rows.ndim != 1 or pos.shape != rows.shape:
            self.fail("row-coverage",
                      f"rows/pos must be 1-d arrays of equal length, "
                      f"got {rows.shape} and {pos.shape}")
            return False
        if n and (rows.min() < 0 or rows.max() >= n):
            bad = int(rows[(rows < 0) | (rows >= n)][0])
            self.fail("row-coverage",
                      f"rows contains out-of-range id {bad} "
                      f"(valid: 0..{n - 1})", row=bad)
            return False
        counts = np.bincount(rows, minlength=n)
        if not np.all(counts == 1):
            missing = np.flatnonzero(counts == 0)
            dup = np.flatnonzero(counts > 1)
            if dup.size:
                self.fail("row-coverage",
                          f"row {int(dup[0])} appears "
                          f"{int(counts[dup[0]])} times in rows",
                          row=int(dup[0]))
            if missing.size:
                self.fail("row-coverage",
                          f"row {int(missing[0])} never appears in "
                          f"rows", row=int(missing[0]))
            return False
        if not np.array_equal(pos[rows], np.arange(n, dtype=pos.dtype)):
            bad = np.flatnonzero(
                pos[rows] != np.arange(n, dtype=pos.dtype)
            )
            self.fail("row-coverage",
                      f"pos is not the inverse of rows (first mismatch "
                      f"at position {int(bad[0])})",
                      row=int(rows[bad[0]]))
            return False
        return True

    def check_gather_ptr(self) -> bool:
        plan = self.plan
        if plan.off_ptr.size != plan.rows.size + 1:
            self.fail("gather-pointer",
                      f"off_ptr must have n+1 = {plan.rows.size + 1} "
                      f"entries, got {plan.off_ptr.size}")
            return False
        if plan.off_cols.shape != plan.off_vals.shape:
            self.fail("gather-pointer",
                      f"off_cols and off_vals lengths differ "
                      f"({plan.off_cols.size} vs {plan.off_vals.size})")
            return False
        return self._check_pointer(
            "gather-pointer", "off_ptr", plan.off_ptr,
            plan.off_cols.size, strict=False,
        )

    def check_gather_bounds(self) -> bool:
        plan, n = self.plan, self.plan.rows.size
        cols = plan.off_cols
        if cols.size == 0:
            return True
        bad = np.flatnonzero((cols < 0) | (cols >= n))
        if bad.size:
            k = int(bad[0])
            self.fail(
                "gather-bounds",
                f"gather index {int(cols[k])} at entry {k} is out of "
                f"bounds (valid rows: 0..{n - 1})",
            )
            return False
        nonfinite = np.flatnonzero(~np.isfinite(plan.off_vals))
        if nonfinite.size:
            k = int(nonfinite[0])
            self.fail("gather-bounds",
                      f"gather value at entry {k} is not finite "
                      f"({plan.off_vals[k]!r})")
            return False
        return True

    def check_dependency_safety(self) -> None:
        """The theorem: gathers only read strictly-earlier batches.

        ``rank`` maps each *position* to its batch; entry ``e`` owned by
        position ``owner[e]`` reading row ``j = off_cols[e]`` is safe
        iff ``rank[pos[j]] < rank[owner[e]]``.  Vectorized over all
        entries at once.
        """
        plan = self.plan
        n = plan.rows.size
        if plan.off_cols.size == 0:
            return
        n_batches = plan.batch_ptr.size - 1
        rank = np.repeat(
            np.arange(n_batches, dtype=np.int64), np.diff(plan.batch_ptr)
        )
        owner = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(plan.off_ptr)
        )
        dep_rank = rank[plan.pos[plan.off_cols]]
        unsafe = np.flatnonzero(dep_rank >= rank[owner])
        if unsafe.size:
            e = int(unsafe[0])
            k = int(owner[e])
            j = int(plan.off_cols[e])
            self.fail(
                "dependency-safety",
                f"row {int(plan.rows[k])} (batch {int(rank[k])}) "
                f"gathers row {j}, which completes in batch "
                f"{int(dep_rank[e])} — not strictly earlier",
                row=int(plan.rows[k]),
                batch=int(rank[k]),
            )

    def check_diagonal(self, *, require_solvable: bool) -> None:
        plan, n = self.plan, self.plan.rows.size
        if plan.diag.shape != (n,):
            self.fail("diagonal-coverage",
                      f"diag must cover all {n} positions, got shape "
                      f"{plan.diag.shape}")
            return
        nonfinite = np.flatnonzero(~np.isfinite(plan.diag))
        if nonfinite.size:
            k = int(nonfinite[0])
            self.fail("diagonal-coverage",
                      f"diagonal at position {k} is not finite "
                      f"({plan.diag[k]!r})",
                      row=int(plan.rows[k]))
            return
        if not require_solvable:
            return
        zero = np.flatnonzero(plan.diag == 0.0)
        if zero.size:
            k = int(zero[0])
            self.fail(
                "diagonal-coverage",
                f"diagonal at row {int(plan.rows[k])} is zero but the "
                f"plan claims solvability "
                f"(singular_row={int(plan.singular_row)})",
                row=int(plan.rows[k]),
            )
        elif plan.singular_row >= 0:
            self.fail(
                "diagonal-coverage",
                f"plan records singular_row={int(plan.singular_row)} "
                f"but every positional diagonal is non-zero",
                row=int(plan.singular_row),
            )

    def check_cores(self) -> None:
        plan, n = self.plan, self.plan.rows.size
        if not self._check_pointer(
            "core-coverage", "core_ptr", plan.core_ptr,
            plan.core_rows.size, strict=False,
        ):
            return
        if plan.core_rows.size != n:
            self.fail(
                "core-coverage",
                f"per-core sequences cover {plan.core_rows.size} rows, "
                f"plan has {n}",
            )
            return
        if n == 0:
            return
        if plan.core_rows.min() < 0 or plan.core_rows.max() >= n:
            bad = plan.core_rows[
                (plan.core_rows < 0) | (plan.core_rows >= n)
            ]
            self.fail("core-coverage",
                      f"core_rows contains out-of-range id "
                      f"{int(bad[0])}", row=int(bad[0]))
            return
        counts = np.bincount(plan.core_rows, minlength=n)
        off = np.flatnonzero(counts != 1)
        if off.size:
            r = int(off[0])
            self.fail(
                "core-coverage",
                f"row {r} appears {int(counts[r])} times across the "
                f"per-core sequences (must be exactly once)",
                row=r,
            )

    # -- optional cross-checks against the sources ----------------------
    def check_matrix(self, matrix) -> None:
        plan, n = self.plan, self.plan.rows.size
        if matrix.n != n:
            self.fail("source-consistency",
                      f"plan covers {n} rows, source matrix has "
                      f"{matrix.n}")
            return
        # the expected gather content is the matrix's off-diagonals in
        # plan order, each segment in CSR order: the kernels add a
        # segment's entries in stored order (reduceat, _sweep), so that
        # order decides the result's bits and a plan that permutes a
        # segment breaks the bit-equality contracts
        row_nnz = matrix.row_nnz()
        rows_flat = np.repeat(np.arange(n, dtype=np.int64), row_nnz)
        off_mask = matrix.indices != rows_flat
        expect_counts = np.bincount(
            rows_flat[off_mask], minlength=n
        ).astype(np.int64)
        got_counts = np.diff(plan.off_ptr)
        if not np.array_equal(expect_counts[plan.rows], got_counts):
            bad = np.flatnonzero(
                expect_counts[plan.rows] != got_counts
            )
            r = int(plan.rows[bad[0]])
            self.fail(
                "source-consistency",
                f"row {r} owns {int(got_counts[bad[0]])} gather "
                f"entries, matrix has "
                f"{int(expect_counts[plan.rows[bad[0]]])} "
                f"off-diagonals",
                row=r,
            )
            return
        off_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(expect_counts, out=off_ptr[1:])
        flat = segmented_gather(off_ptr[plan.rows], got_counts)
        want_cols = matrix.indices[off_mask][flat]
        want_vals = matrix.data[off_mask][flat]
        if not (
            np.array_equal(plan.off_cols, want_cols)
            and np.array_equal(plan.off_vals, want_vals)
        ):
            e = np.flatnonzero(
                (plan.off_cols != want_cols) | (plan.off_vals != want_vals)
            )[0]
            r = int(plan.rows[np.searchsorted(plan.off_ptr, e, "right") - 1])
            self.fail(
                "source-consistency",
                f"off-diagonal gather entries of row {r} do not match "
                f"the source matrix's off-diagonals in CSR order",
                row=r,
            )
        dpos = matrix.diag_positions()
        expect_diag = np.zeros(n)
        stored = dpos >= 0
        expect_diag[stored] = matrix.data[dpos[stored]]
        if not np.array_equal(plan.diag, expect_diag[plan.rows]):
            bad = np.flatnonzero(plan.diag != expect_diag[plan.rows])
            self.fail(
                "source-consistency",
                f"diagonal values do not match the source matrix "
                f"(first mismatch at row {int(plan.rows[bad[0]])})",
                row=int(plan.rows[bad[0]]),
            )

    def check_schedule(self, schedule) -> None:
        plan = self.plan
        if schedule.n != plan.rows.size:
            self.fail("source-consistency",
                      f"plan covers {plan.rows.size} rows, source "
                      f"schedule has {schedule.n}")
            return
        if not np.array_equal(plan.row_step, schedule.supersteps):
            bad = np.flatnonzero(
                plan.row_step != schedule.supersteps
            )
            self.fail(
                "source-consistency",
                f"row_step disagrees with the schedule's superstep "
                f"map (first mismatch at row {int(bad[0])})",
                row=int(bad[0]),
            )


def verify_plan(
    plan,
    matrix=None,
    schedule=None,
    *,
    require_solvable: bool = True,
) -> PlanVerificationReport:
    """Statically verify every structural invariant of ``plan``.

    Parameters
    ----------
    plan:
        The :class:`~repro.exec.plan.ExecutionPlan` to verify.
    matrix / schedule:
        Optional sources; when given, the gather structure, diagonal
        values and superstep map are cross-checked against them
        (``source-consistency``).
    require_solvable:
        When true (default) a zero diagonal is a violation; pass
        ``False`` for cost-model plans compiled with
        ``check_diagonal=False``, where structure is required but
        solvability is not.

    Returns the full :class:`PlanVerificationReport`; see
    :data:`INVARIANTS` for the catalogue of checks.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.analysis import verify_plan
    >>> from repro.exec import compile_plan
    >>> from repro.matrix.generators import narrow_band_lower
    >>> L = narrow_band_lower(60, 0.2, 4.0, seed=1)
    >>> plan = compile_plan(L)
    >>> verify_plan(plan, matrix=L).ok
    True
    >>> plan.off_cols[:] = L.n + 7   # corrupt the gather indices
    >>> sorted(verify_plan(plan).invariants)
    ['gather-bounds']
    """
    v = _Verifier(plan)
    v.check_dtypes()
    batches_ok = v.check_batches()
    rows_ok = v.check_rows()
    gather_ok = v.check_gather_ptr()
    bounds_ok = gather_ok and v.check_gather_bounds()
    if batches_ok and rows_ok and bounds_ok:
        v.check_dependency_safety()
    v.check_diagonal(require_solvable=require_solvable)
    v.check_cores()
    if rows_ok and gather_ok and bounds_ok and matrix is not None:
        v.check_matrix(matrix)
    if schedule is not None:
        v.check_schedule(schedule)
    return PlanVerificationReport(v.violations, n=plan.rows.size)


def check_plan(
    plan,
    matrix=None,
    schedule=None,
    *,
    require_solvable: bool = True,
) -> None:
    """:func:`verify_plan`, raising on any violation.

    Raises
    ------
    PlanVerificationError
        Carrying the full report (``exc.report``).
    """
    report = verify_plan(
        plan, matrix, schedule, require_solvable=require_solvable
    )
    if not report.ok:
        raise PlanVerificationError(report)


def maybe_check_cached(value: object) -> None:
    """The :class:`~repro.exec.plan_cache.PlanCache` insertion hook.

    Under ``REPRO_VALIDATE_PLANS`` every :class:`ExecutionPlan` inserted
    into a cache is verified before other consumers can observe it;
    non-plan artifacts (reordered matrices, scheduler runs) and the
    gate-off default pass through untouched.  Solvability is *not*
    required here — cost-model plans are legitimately compiled from
    singular structures — only structural soundness is.
    """
    if not validation_enabled():
        return
    from repro.exec.plan import ExecutionPlan

    if isinstance(value, ExecutionPlan):
        check_plan(value, require_solvable=False)
