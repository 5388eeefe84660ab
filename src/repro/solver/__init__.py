"""SpTRSV execution: plan-based kernels, a threaded schedule executor.

All plan-based solves lower their matrix through the
:mod:`repro.exec` subsystem — :func:`repro.exec.compile_plan` builds an
:class:`~repro.exec.plan.ExecutionPlan` (the matrix's level set) once,
and a pluggable backend kernel (:func:`repro.exec.get_backend`) executes
it: on the ``numpy`` backend, one vectorized batch per dependency layer,
with runs of low-work layers swept as one scalar loop.  Precompiled plans
can be passed in to amortize lowering across repeated solves.  A
schedule is executed in one place, :func:`threaded_sptrsv`; the machine
simulators (:mod:`repro.machine`) price it.

* :mod:`~repro.solver.sptrsv` — forward/backward substitution (the
  paper's kernel, Section 6.1) plus the per-row reference kernel;
* :mod:`~repro.solver.backward` — the backward dependence DAG (to
  schedule backward substitution) and multi-RHS SpTRSM;
* :mod:`~repro.solver.threaded` — a real ``threading``-based executor of
  a :class:`~repro.scheduler.schedule.Schedule`: one thread per core, one
  barrier per superstep, the schedule validated first (the GIL prevents
  speed-ups in CPython but the code path mirrors the OpenMP kernel);
* :mod:`~repro.solver.cg` / :mod:`~repro.solver.gauss_seidel` — downstream
  consumers of SpTRSV (preconditioned conjugate gradient, Gauß–Seidel),
  the applications the paper's introduction motivates; both compile their
  plans once and reuse them across iterations.
"""

from repro.solver.backward import backward_dag, forward_sptrsm
from repro.solver.cg import conjugate_gradient, ichol_preconditioner
from repro.solver.gauss_seidel import gauss_seidel
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
    "threaded_sptrsv",
]
