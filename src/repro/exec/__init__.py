"""Execution plans: compile a matrix once, execute it fast, anywhere.

This package is the boundary between *what* a triangular solve computes
and *how* it is executed — the load-bearing seam every scaling direction
(process pools, sharding, native kernels) plugs into:

* :mod:`~repro.exec.plan` — :func:`compile_plan` lowers a triangular
  :class:`~repro.matrix.csr.CSRMatrix` and a sweep direction into an
  :class:`ExecutionPlan`: flat contiguous arrays of the matrix's
  dependency levels (its level set), off-diagonal gather indices and
  precompiled diagonals (validated once, at compile time).  Every
  schedule of one matrix executes the same plan; the machine simulators
  price a schedule without one;
* :mod:`~repro.exec.backends` — the pluggable kernel registry
  (``numpy`` always available: vectorized batches, with runs of
  low-work batches swept as scalars; the JIT tiers ``numba`` and
  ``numba-parallel`` auto-detected with graceful fallback, one backend
  with two dispatch policies) consuming plans instead of walking CSR
  rows in Python; every backend derives its dispatch spans from the
  plan's batches;
* :mod:`~repro.exec.kernels_numba` — the shared JIT kernel tier
  (``prange`` batch sweeps, sequential span sweeps, persistent
  artifact cache so warm processes never recompile);
* :mod:`~repro.exec.plan_cache` — a keyed, thread-safe LRU
  :class:`PlanCache` with hit/miss counters, shared by the experiment
  runners (one plan per executed matrix per worker) and the
  :class:`~repro.service.SolveService`.
"""

from repro.exec.backends import (
    ExecutionBackend,
    NumbaBackend,
    NumpyBackend,
    ParallelNumbaBackend,
    available_backends,
    get_backend,
    list_backends,
    register_backend,
)
from repro.exec.plan import ExecutionPlan, compile_count, compile_plan
from repro.exec.plan_cache import PlanCache

__all__ = [
    "ExecutionBackend",
    "ExecutionPlan",
    "NumbaBackend",
    "NumpyBackend",
    "ParallelNumbaBackend",
    "PlanCache",
    "available_backends",
    "compile_count",
    "compile_plan",
    "get_backend",
    "list_backends",
    "register_backend",
]
