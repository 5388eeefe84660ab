"""Sparse triangular solve kernels (forward/backward substitution).

The paper's kernel (Section 6.1) computes Eq. 2.1:

    x_i = (b_i - sum_{j < i} A_ij x_j) / A_ii.

Both sweeps are executed through the :mod:`repro.exec` subsystem: the
matrix is lowered once into an :class:`~repro.exec.plan.ExecutionPlan`
(dependency-layer batches, contiguous gather arrays, compile-time diagonal
validation) and a pluggable backend kernel runs it — on the ``numpy``
backend, one vectorized batch per dependency layer, except that runs of
layers with only a few rows and entries are swept row by row in one
scalar loop over the plan's flat arrays.  Pass a precompiled ``plan`` to
amortize the lowering across repeated solves with the same matrix (CG,
Gauss-Seidel, SpTRSM).

:func:`solve_rows` remains as the seed's reference per-row kernel: the
thread-based executor runs it for each (superstep, core) cell, and tests
compare the plan-based kernels against it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError, SingularMatrixError
from repro.exec import ExecutionPlan, compile_plan, get_backend
from repro.matrix.csr import CSRMatrix

__all__ = ["forward_substitution", "backward_substitution", "solve_rows"]


def solve_rows(
    lower: CSRMatrix,
    b: np.ndarray,
    x: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Solve the given ``rows`` of ``L x = b`` in the given order, writing
    into ``x`` (which must already contain valid values for all
    dependencies).

    This is the reference per-row kernel the vectorized plan-based
    execution (:mod:`repro.exec`) is validated against; production paths
    compile a plan instead.
    """
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    for i in rows:
        i = int(i)
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        vals = data[lo:hi]
        if hi == lo or cols[-1] != i:
            raise SingularMatrixError(
                f"row {i} has no stored diagonal entry"
            )
        diag = vals[-1]
        if diag == 0.0:
            raise SingularMatrixError(f"zero diagonal at row {i}")
        acc = b[i] - np.dot(vals[:-1], x[cols[:-1]])
        x[i] = acc / diag


def _check_rhs(n: int, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise MatrixFormatError("right-hand side has wrong length")
    return b


def forward_substitution(
    lower: CSRMatrix,
    b: np.ndarray,
    *,
    plan: ExecutionPlan | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` (Eq. 2.1).

    Parameters
    ----------
    plan:
        Precompiled plan for ``lower`` (``direction="forward"``); compiled
        on the fly when omitted.
    backend:
        Execution backend name (default: auto-selected, see
        :func:`repro.exec.get_backend`).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import forward_substitution
    >>> from repro.matrix.generators import narrow_band_lower
    >>> L = narrow_band_lower(50, 0.2, 4.0, seed=0)
    >>> x = forward_substitution(L, np.ones(50))
    >>> bool(np.allclose(L.matvec(x), np.ones(50)))
    True
    """
    if plan is None:
        plan = compile_plan(lower)
    else:
        plan.require_compatible(lower.n, "forward")
    b = _check_rhs(plan.n, b)
    return get_backend(backend).solve(plan, b)


def backward_substitution(
    upper: CSRMatrix,
    b: np.ndarray,
    *,
    plan: ExecutionPlan | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U`` (reverse sweep).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import backward_substitution
    >>> from repro.matrix.generators import narrow_band_lower
    >>> U = narrow_band_lower(50, 0.2, 4.0, seed=0).transpose()
    >>> x = backward_substitution(U, np.ones(50))
    >>> bool(np.allclose(U.matvec(x), np.ones(50)))
    True
    """
    if plan is None:
        plan = compile_plan(upper, direction="backward")
    else:
        plan.require_compatible(upper.n, "backward")
    b = _check_rhs(plan.n, b)
    return get_backend(backend).solve(plan, b)
