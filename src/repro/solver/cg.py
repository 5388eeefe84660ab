"""Preconditioned conjugate gradient built on SpTRSV.

The paper motivates SpTRSV through iterative solvers that apply the same
triangular factors repeatedly (Section 1, Section 6.2.2: "a zero-fill-in
incomplete Cholesky preconditioned conjugate gradient method").  This module
closes that loop: :func:`ichol_preconditioner` wraps an IC(0) factor into a
preconditioner whose application is two SpTRSVs (a forward and a backward
sweep through plans compiled once), and
:func:`conjugate_gradient` is a standard PCG that counts exactly how many
times the triangular solves are reused — the quantity the amortization
threshold (Table 7.6) is measured against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.exec import compile_plan, get_backend
from repro.matrix.csr import CSRMatrix
from repro.matrix.ichol import ichol0

__all__ = ["CGResult", "conjugate_gradient", "ichol_preconditioner"]


class CGResult:
    """Outcome of a conjugate-gradient solve.

    Attributes
    ----------
    x:
        The (approximate) solution.
    iterations:
        Iterations performed (== preconditioner applications).
    residual_norm:
        Final ``||b - A x||_2``.
    converged:
        Whether the tolerance was reached.
    sptrsv_count:
        Number of triangular solves executed (two per preconditioner
        application) — the reuse count that amortizes scheduling time.
    """

    __slots__ = ("x", "iterations", "residual_norm", "converged",
                 "sptrsv_count")

    def __init__(self, x, iterations, residual_norm, converged,
                 sptrsv_count) -> None:
        self.x = x
        self.iterations = int(iterations)
        self.residual_norm = float(residual_norm)
        self.converged = bool(converged)
        self.sptrsv_count = int(sptrsv_count)


def ichol_preconditioner(
    matrix: CSRMatrix,
    *,
    backend: str | None = None,
) -> tuple[Callable[[np.ndarray], np.ndarray], CSRMatrix]:
    """Build ``M^{-1} = (L L^T)^{-1}`` from an IC(0) factor of ``matrix``.

    Both sweeps are lowered to execution plans *once*, here; every
    preconditioner application then reuses the compiled plans — the exact
    amortization scenario the paper's Table 7.6 measures.

    Parameters
    ----------
    backend:
        Execution backend name (default auto-selection).

    Returns
    -------
    (apply, L):
        ``apply(r)`` returns ``(L L^T)^{-1} r``; ``L`` is the IC(0) factor
        so callers can build schedules or statistics for it.
    """
    factor = ichol0(matrix)
    upper = factor.transpose()
    forward_plan = compile_plan(factor)
    backward_plan = compile_plan(upper, direction="backward")
    kernel = get_backend(backend)

    def apply(r: np.ndarray) -> np.ndarray:
        y = kernel.solve(forward_plan, np.asarray(r, dtype=np.float64))
        return kernel.solve(backward_plan, y)

    return apply, factor


def conjugate_gradient(
    matrix: CSRMatrix,
    b: np.ndarray,
    *,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-10,
    max_iterations: int = 1000,
) -> CGResult:
    """Preconditioned conjugate gradient for SPD ``matrix``.

    Standard PCG with the relative residual stopping rule
    ``||r|| <= tol * ||b||``.
    """
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    n = matrix.n
    if b.shape != (n,):
        raise ConfigurationError("right-hand side has wrong length")

    x = np.zeros(n)
    r = b.copy()
    b_norm = float(np.linalg.norm(b)) or 1.0
    sptrsv_count = 0

    def precond(v: np.ndarray) -> np.ndarray:
        nonlocal sptrsv_count
        if preconditioner is None:
            return v
        sptrsv_count += 2  # forward + backward sweep
        return preconditioner(v)

    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    converged = float(np.linalg.norm(r)) <= tol * b_norm
    while not converged and iterations < max_iterations:
        ap = matrix.matvec(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            break  # matrix is not SPD along p; bail out gracefully
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        if float(np.linalg.norm(r)) <= tol * b_norm:
            converged = True
            break
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    return CGResult(
        x, iterations, float(np.linalg.norm(b - matrix.matvec(x))),
        converged, sptrsv_count,
    )
