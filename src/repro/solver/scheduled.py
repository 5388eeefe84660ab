"""Schedule-driven SpTRSV execution (deterministic emulation).

Executes a schedule through the :mod:`repro.exec` subsystem: the
``(matrix, schedule)`` pair is lowered once into an
:class:`~repro.exec.plan.ExecutionPlan`, whose executed batches are the
matrix's global dependency levels whatever the schedule, and a backend
kernel runs one vectorized gather/scatter per batch.  Every row reads
only finished rows, so the result equals, up to rounding, running each
core's rows in vertex-id order between barriers — the semantics of the
seed's per-row emulator.  So the batched execution does not show
whether the schedule is valid.

With ``verify_dependencies=True`` the seed's per-row reference path is
used instead: it asserts before each row that all dependencies were
computed in an earlier superstep or earlier on the same core, catching
invalid schedules at the exact failing row (the test-suite's
failure-injection hook).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError
from repro.exec import ExecutionPlan, compile_plan, get_backend
from repro.matrix.csr import CSRMatrix
from repro.scheduler.schedule import Schedule
from repro.solver.sptrsv import solve_rows

__all__ = ["scheduled_sptrsv"]


def scheduled_sptrsv(
    lower: CSRMatrix,
    b: np.ndarray,
    schedule: Schedule,
    *,
    verify_dependencies: bool = False,
    plan: ExecutionPlan | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Solve ``L x = b`` following ``schedule``.

    Parameters
    ----------
    verify_dependencies:
        When true, run the per-row reference path and assert before each
        row that all of its dependencies were computed in an earlier
        superstep or earlier on the same core — catching invalid
        schedules at the exact failing row (used by the test-suite's
        failure-injection tests).
    plan:
        Precompiled plan for ``(lower, schedule)``; compiled on the fly
        when omitted.  Ignored on the verification path.
    backend:
        Execution backend name (default auto-selection).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DAG, GrowLocalScheduler, scheduled_sptrsv
    >>> from repro.matrix.generators import narrow_band_lower
    >>> L = narrow_band_lower(100, 0.15, 6.0, seed=0)
    >>> sched = GrowLocalScheduler().schedule(
    ...     DAG.from_lower_triangular(L), 4)
    >>> x = scheduled_sptrsv(L, np.ones(100), sched)
    >>> bool(np.allclose(L.matvec(x), np.ones(100)))
    True
    """
    lower.require_lower_triangular()
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (lower.n,):
        raise MatrixFormatError("right-hand side has wrong length")
    if schedule.n != lower.n:
        raise MatrixFormatError("schedule size does not match the matrix")

    if verify_dependencies:
        x = np.zeros(lower.n)
        computed = np.zeros(lower.n, dtype=bool)
        lists = schedule.execution_lists()
        for step, step_cells in enumerate(lists):
            for core, rows in enumerate(step_cells):
                if rows.size == 0:
                    continue
                _verify_cell(lower, schedule, rows, step, core, computed)
                solve_rows(lower, b, x, rows)
        return x

    if plan is None:
        plan = compile_plan(lower, schedule)
    else:
        plan.require_compatible(lower.n, "forward")
    return get_backend(backend).solve(plan, b)


def _verify_cell(
    lower: CSRMatrix,
    schedule: Schedule,
    rows: np.ndarray,
    step: int,
    core: int,
    computed: np.ndarray,
) -> None:
    """Check that each dependency of ``rows`` was produced in an earlier
    superstep, or earlier on the *same* core within this superstep (a
    cross-core same-superstep dependency would race in a real parallel
    execution even if this sequential emulation happens to order it)."""
    from repro.errors import InvalidScheduleError

    for i in rows:
        i = int(i)
        cols = lower.indices[lower.indptr[i]:lower.indptr[i + 1]]
        for j in cols[cols < i]:
            j = int(j)
            earlier_step = schedule.supersteps[j] < step
            same_cell_done = (
                schedule.supersteps[j] == step
                and schedule.cores[j] == core
                and computed[j]
            )
            if not (earlier_step or same_cell_done):
                raise InvalidScheduleError(
                    f"row {i} (core {core}, superstep {step}) would race "
                    f"with dependency {j} (core {int(schedule.cores[j])}, "
                    f"superstep {int(schedule.supersteps[j])})"
                )
        computed[i] = True
