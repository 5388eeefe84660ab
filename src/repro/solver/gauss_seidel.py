"""Gauß–Seidel iteration built on SpTRSV.

Gauß–Seidel is one of the paper's motivating applications (Sections 1 and
6.2.2): each sweep solves the lower-triangular part of ``A`` against the
current residual, i.e. repeated SpTRSV with a fixed sparsity pattern —
precisely the reuse scenario that amortizes a good schedule.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.exec import compile_plan, get_backend
from repro.matrix.csr import CSRMatrix

__all__ = ["gauss_seidel"]


def gauss_seidel(
    matrix: CSRMatrix,
    b: np.ndarray,
    *,
    sweeps: int = 10,
    x0: np.ndarray | None = None,
    backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run forward Gauß–Seidel sweeps ``x <- x + L^{-1} (b - A x)``.

    ``L`` is the lower triangle of ``A`` including the diagonal; it is
    lowered into one level-set :class:`~repro.exec.plan.ExecutionPlan`
    before the first sweep, and every sweep reuses that plan — the
    fixed-sparsity reuse scenario that amortizes a good schedule.

    Returns
    -------
    (x, residual_norms):
        The iterate after ``sweeps`` sweeps and the residual 2-norm after
        each sweep.
    """
    if sweeps < 1:
        raise ConfigurationError("sweeps must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (matrix.n,):
        raise ConfigurationError("right-hand side has wrong length")
    lower = matrix.lower_triangle()
    plan = compile_plan(lower)
    kernel = get_backend(backend)
    x = (
        np.zeros(matrix.n)
        if x0 is None
        else np.asarray(x0, dtype=np.float64).copy()
    )
    norms = np.empty(sweeps)
    for s in range(sweeps):
        r = b - matrix.matvec(x)
        x += kernel.solve(plan, r)
        norms[s] = float(np.linalg.norm(b - matrix.matvec(x)))
    return x, norms
