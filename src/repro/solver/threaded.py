"""Real thread-based SpTRSV executor with barrier synchronization.

Mirrors the paper's OpenMP kernel: ``n_cores`` worker threads, each solving
its rows of every superstep, separated by :class:`threading.Barrier`.  Under
CPython's GIL this yields no wall-clock speed-up, but it executes the exact
synchronization structure of the schedule — including the property that
cross-core dependencies are only read after a barrier — so it serves as a
functional/structural test of schedules on a real concurrency substrate.

Each (superstep, core) cell runs the reference per-row kernel
:func:`repro.solver.sptrsv.solve_rows` over the CSR matrix; the
thread/barrier scaffolding is the only part that lives here.

Worker exceptions (e.g. a :class:`~repro.errors.SingularMatrixError` from
a missing or zero diagonal) are captured and re-raised in the caller; the
barrier is broken on error so no thread deadlocks.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import MatrixFormatError
from repro.graph.dag import DAG
from repro.matrix.csr import CSRMatrix
from repro.scheduler.schedule import Schedule
from repro.solver.sptrsv import solve_rows

__all__ = ["threaded_sptrsv"]


def threaded_sptrsv(
    lower: CSRMatrix,
    b: np.ndarray,
    schedule: Schedule,
) -> np.ndarray:
    """Solve ``L x = b`` with one thread per core of the schedule.

    Raises :class:`~repro.errors.InvalidScheduleError` before any thread
    starts when ``schedule`` is not valid for ``lower``'s dependence DAG:
    such a schedule would let a row read a dependency another core has
    not written yet.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DAG, GrowLocalScheduler, threaded_sptrsv
    >>> from repro.matrix.generators import narrow_band_lower
    >>> L = narrow_band_lower(100, 0.15, 6.0, seed=0)
    >>> sched = GrowLocalScheduler().schedule(
    ...     DAG.from_lower_triangular(L), 2)
    >>> x = threaded_sptrsv(L, np.ones(100), sched)
    >>> bool(np.allclose(L.matvec(x), np.ones(100)))
    True
    """
    lower.require_lower_triangular()
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (lower.n,):
        raise MatrixFormatError("right-hand side has wrong length")
    if schedule.n != lower.n:
        raise MatrixFormatError("schedule size does not match the matrix")
    schedule.validate(DAG.from_lower_triangular(lower))

    n_cores = schedule.n_cores
    lists = schedule.execution_lists()  # [superstep][core] -> rows
    x = np.zeros(lower.n)
    barrier = threading.Barrier(n_cores)
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def worker(core: int) -> None:
        try:
            for step_cells in lists:
                rows = step_cells[core]
                if rows.size:
                    solve_rows(lower, b, x, rows)
                barrier.wait()
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            with errors_lock:
                errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(p,), daemon=True)
        for p in range(n_cores)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        first = errors[0]
        if isinstance(first, threading.BrokenBarrierError):
            # secondary failure; surface a primary error if present
            primary = [e for e in errors
                       if not isinstance(e, threading.BrokenBarrierError)]
            if primary:
                raise primary[0]
        raise first
    return x
