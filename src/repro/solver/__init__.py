"""SpTRSV execution: plan-based kernels, schedule-driven execution, threads.

All solve paths lower their matrix through the
:mod:`repro.exec` subsystem — :func:`repro.exec.compile_plan` builds an
:class:`~repro.exec.plan.ExecutionPlan` once, and a pluggable backend
kernel (:func:`repro.exec.get_backend`) executes it: on the ``numpy``
backend, one vectorized batch per dependency layer, with runs of
low-work layers swept as one scalar loop.  Precompiled plans can be
passed in to amortize lowering across repeated solves.

* :mod:`~repro.solver.sptrsv` — forward/backward substitution (the
  paper's kernel, Section 6.1) plus the per-row reference kernel;
* :mod:`~repro.solver.scheduled` — executes a
  :class:`~repro.scheduler.schedule.Schedule` (deterministic emulation
  used for correctness verification);
* :mod:`~repro.solver.threaded` — a real ``threading``-based executor with
  barriers (functional parallel execution; the GIL prevents speed-ups in
  CPython but the code path mirrors the OpenMP kernel);
* :mod:`~repro.solver.cg` / :mod:`~repro.solver.gauss_seidel` — downstream
  consumers of SpTRSV (preconditioned conjugate gradient, Gauß–Seidel),
  the applications the paper's introduction motivates; both compile their
  plans once and reuse them across iterations.
"""

from repro.solver.backward import (
    backward_dag,
    forward_sptrsm,
    scheduled_backward_sptrsv,
    scheduled_sptrsm,
)
from repro.solver.cg import conjugate_gradient, ichol_preconditioner
from repro.solver.gauss_seidel import gauss_seidel
from repro.solver.scheduled import scheduled_sptrsv
from repro.solver.sptrsv import (
    backward_substitution,
    forward_substitution,
)
from repro.solver.threaded import threaded_sptrsv

__all__ = [
    "backward_dag",
    "backward_substitution",
    "conjugate_gradient",
    "forward_sptrsm",
    "forward_substitution",
    "gauss_seidel",
    "ichol_preconditioner",
    "scheduled_backward_sptrsv",
    "scheduled_sptrsm",
    "scheduled_sptrsv",
    "threaded_sptrsv",
]
