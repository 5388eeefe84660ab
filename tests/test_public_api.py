"""The public API surface: everything in __all__ is importable and the
quickstart in the package docstring works."""

import numpy as np


def test_all_names_resolve():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_quickstart_docstring_example():
    import numpy as np

    from repro import (
        DAG,
        GrowLocalScheduler,
        forward_substitution,
        threaded_sptrsv,
    )
    from repro.matrix.generators import erdos_renyi_lower

    L = erdos_renyi_lower(1000, 2e-3, seed=0)
    b = np.ones(L.n)
    x = forward_substitution(L, b)
    dag = DAG.from_lower_triangular(L)
    schedule = GrowLocalScheduler().schedule(dag, n_cores=8)
    assert np.allclose(threaded_sptrsv(L, b, schedule), x)


def test_subpackages_importable():
    import repro.experiments
    import repro.graph
    import repro.graph.coarsen
    import repro.machine
    import repro.matrix
    import repro.matrix.ordering
    import repro.scheduler
    import repro.solver
    import repro.utils

    assert repro.graph.coarsen is not None


def test_end_to_end_pipeline():
    """The full paper pipeline on a small matrix: generate, schedule with
    every scheduler, reorder, simulate, verify numerics."""
    from repro import (
        DAG,
        GrowLocalScheduler,
        get_machine,
    )
    from repro.machine.bsp_sim import simulate_bsp
    from repro.machine.serial_sim import simulate_serial
    from repro.matrix.generators import rcm_mesh
    from repro.scheduler.reorder import apply_reordering
    from repro.solver.sptrsv import forward_substitution

    lower = rcm_mesh(10, 30, reach=1, lateral_prob=0.4,
                     seed=0).lower_triangle()
    dag = DAG.from_lower_triangular(lower)
    machine = get_machine("intel_xeon_6238t").with_cores(4)
    schedule = GrowLocalScheduler().schedule(dag, 4)
    b = np.ones(lower.n)
    x_ref = forward_substitution(lower, b)

    mat2, b2, sched2, perm = apply_reordering(lower, b, schedule)
    x2 = forward_substitution(mat2, b2)
    assert np.allclose(x2[perm], x_ref)

    sim = simulate_bsp(mat2, sched2, machine)
    serial = simulate_serial(lower, machine)
    assert sim.speedup_over(serial) > 0.0
