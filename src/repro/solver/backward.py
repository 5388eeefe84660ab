"""The backward dependence DAG and multi-RHS triangular solve (SpTRSM).

The paper's title problem includes both sweep directions and the SpTRSM
variant (its keywords list "SpTrSV, SpTrSM").  The backward sweep of an
upper-triangular ``U`` has the *reversed* dependence DAG of ``U^T``'s
forward sweep; :func:`backward_dag` builds it so any scheduler in the
library can schedule backward substitution unchanged, and
:meth:`~repro.scheduler.schedule.Schedule.validate` checks such a
schedule against it.  Backward substitution itself is
:func:`repro.solver.sptrsv.backward_substitution`.

:func:`forward_sptrsm` solves all ``k`` right-hand sides through one
:mod:`repro.exec` plan via the backends' block kernel — the cheapest
possible form of plan reuse (Table 7.6's amortization with reuse factor
``k`` per solve call).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError
from repro.exec import ExecutionPlan, compile_plan, get_backend
from repro.graph.dag import DAG
from repro.matrix.csr import CSRMatrix

__all__ = ["backward_dag", "forward_sptrsm"]


def backward_dag(upper: CSRMatrix) -> DAG:
    """Dependence DAG of backward substitution on upper-triangular ``U``.

    Row ``i`` of the backward sweep depends on row ``j`` for every stored
    strict-upper entry ``U[i, j]`` (``j > i``): edge ``(j, i)``.  Vertex
    weights are the row non-zero counts, as in the forward case.
    """
    if not upper.is_upper_triangular():
        raise MatrixFormatError("backward_dag expects an upper-triangular "
                                "matrix")
    rows = np.repeat(np.arange(upper.n, dtype=np.int64), upper.row_nnz())
    strict = upper.indices > rows
    src = upper.indices[strict]
    dst = rows[strict]
    weights = np.maximum(upper.row_nnz(), 1)
    return DAG(upper.n, src, dst, weights, check=False)


def _check_block(n: int, b_block: np.ndarray) -> np.ndarray:
    b_block = np.asarray(b_block, dtype=np.float64)
    if b_block.ndim != 2 or b_block.shape[0] != n:
        raise MatrixFormatError("B must be (n, k)")
    return b_block


def forward_sptrsm(
    lower: CSRMatrix,
    b_block: np.ndarray,
    *,
    plan: ExecutionPlan | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """SpTRSM: solve ``L X = B`` for an ``n x k`` block ``B``.

    One plan drives all ``k`` right-hand sides; the batch kernels
    vectorize across columns as well as across the rows of each
    dependency layer.
    """
    lower.require_lower_triangular()
    b_block = _check_block(lower.n, b_block)
    if plan is None:
        plan = compile_plan(lower)
    else:
        plan.require_compatible(lower.n, "forward")
    return get_backend(backend).solve_block(plan, b_block)

