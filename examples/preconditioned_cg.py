#!/usr/bin/env python
"""Incomplete-Cholesky preconditioned conjugate gradient — the workload
the paper's introduction motivates (Sections 1 and 6.2).

An IC(0)-preconditioned CG applies the same triangular factors at every
iteration, so their execution plans are compiled once and reused, and a
good SpTRSV schedule, computed once, pays off over those reuses: exactly
the amortization scenario of Table 7.6.  This example:

1. builds an SPD FEM matrix and its IC(0) factor;
2. runs PCG with and without the preconditioner, whose two triangular
   solves reuse plans compiled once;
3. schedules the forward solve with GrowLocal and prices it on the
   simulated machine;
4. reports iterations, triangular-solve reuses, and when the schedule
   amortizes under the simulated machine.

Run:  python examples/preconditioned_cg.py
"""

import numpy as np

from repro import DAG, GrowLocalScheduler, get_machine
from repro.experiments.metrics import amortization_threshold
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.serial_sim import simulate_serial
from repro.matrix.generators import rcm_mesh
from repro.solver.cg import conjugate_gradient, ichol_preconditioner
from repro.utils.timing import Timer


def main() -> None:
    # an RCM-ordered FEM mesh: wide wavefronts, so the schedule's
    # simulated solve actually beats serial and can amortize
    a = rcm_mesh(60, 80, reach=1, lateral_prob=0.4, seed=1)
    rng = np.random.default_rng(0)
    b = rng.random(a.n)
    print(f"SPD system: n={a.n}, nnz={a.nnz}")

    # plain CG
    plain = conjugate_gradient(a, b, tol=1e-10, max_iterations=2000)
    print(f"plain CG:          {plain.iterations} iterations, "
          f"residual {plain.residual_norm:.2e}")

    # IC(0)-preconditioned CG: both triangular plans compiled once
    precond, factor = ichol_preconditioner(a)
    pre = conjugate_gradient(a, b, preconditioner=precond,
                             tol=1e-10, max_iterations=2000)
    print(f"IC(0)-PCG:         {pre.iterations} iterations, "
          f"residual {pre.residual_norm:.2e}")
    print(f"triangular solves reused the compiled plans "
          f"{pre.sptrsv_count} times (2 per iteration)")

    # a GrowLocal schedule of the forward solve: does it amortize within
    # this single CG solve on the simulated machine?
    dag = DAG.from_lower_triangular(factor)
    with Timer() as sched_timer:
        schedule = GrowLocalScheduler().schedule(dag, n_cores=8)
    machine = get_machine("intel_xeon_6238t").with_cores(8)
    serial_s = machine.cycles_to_seconds(simulate_serial(factor, machine))
    parallel_s = machine.cycles_to_seconds(
        simulate_bsp(factor, schedule, machine).total_cycles
    )
    needed = amortization_threshold(sched_timer.elapsed, serial_s,
                                    parallel_s)
    print(f"amortization threshold: {needed:.0f} solves "
          f"({'amortized' if pre.sptrsv_count >= needed else 'not yet'}"
          f" within this one PCG solve at {pre.sptrsv_count} reuses)")


if __name__ == "__main__":
    main()
