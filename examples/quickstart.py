#!/usr/bin/env python
"""Quickstart: schedule and solve one sparse triangular system.

Builds a random lower-triangular system, computes a GrowLocal schedule for
8 cores, verifies it, solves the system following the schedule (one thread
per core, one barrier per superstep), and prints the schedule statistics
the paper's evaluation revolves around (supersteps, barrier reduction,
simulated speed-up).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    DAG,
    GrowLocalScheduler,
    forward_substitution,
    get_machine,
    threaded_sptrsv,
)
from repro.graph.wavefront import critical_path_length
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.serial_sim import simulate_serial
from repro.matrix.generators import rcm_mesh
from repro.scheduler.reorder import apply_reordering


def main() -> None:
    # 1. an SpTRSV instance: the lower triangle of an RCM-ordered FEM mesh
    full = rcm_mesh(80, 120, reach=1, lateral_prob=0.3, seed=0)
    lower = full.lower_triangle()
    b = np.ones(lower.n)
    print(f"matrix: n={lower.n}, nnz={lower.nnz}")

    # 2. its dependence DAG (Figure 1.1 of the paper)
    dag = DAG.from_lower_triangular(lower)
    wavefronts = critical_path_length(dag)
    print(f"DAG: {dag.m} edges, {wavefronts} wavefronts "
          f"(avg size {dag.n / wavefronts:.1f})")

    # 3. a GrowLocal schedule for 8 cores
    scheduler = GrowLocalScheduler()  # paper defaults: L=500, alpha0=20
    schedule = scheduler.schedule(dag, n_cores=8)
    schedule.validate(dag)  # Definition 2.1
    print(f"schedule: {schedule.n_supersteps} supersteps "
          f"({wavefronts / schedule.n_supersteps:.1f}x fewer barriers "
          f"than wavefront scheduling)")

    # 4. solve, following the schedule: one thread per core, one barrier
    # per superstep; check against the serial kernel
    x = threaded_sptrsv(lower, b, schedule)
    x_ref = forward_substitution(lower, b)
    assert np.allclose(x, x_ref)
    print(f"solution verified: max|x - x_ref| = "
          f"{np.abs(x - x_ref).max():.2e}")

    # 5. apply the Section 5 reordering and simulate the parallel execution
    machine = get_machine("intel_xeon_6238t").with_cores(8)
    mat2, b2, sched2, perm = apply_reordering(lower, b, schedule)
    sim = simulate_bsp(mat2, sched2, machine)
    serial_cycles = simulate_serial(lower, machine)
    print(f"simulated speed-up over serial on {machine.name} (8 cores): "
          f"{serial_cycles / sim.total_cycles:.2f}x "
          f"(compute {sim.compute_cycles:.0f} cycles, "
          f"barriers {sim.barrier_cycles:.0f} cycles)")


if __name__ == "__main__":
    main()
