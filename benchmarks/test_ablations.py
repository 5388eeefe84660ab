"""Ablation benches for GrowLocal's design choices.

Not a table in the paper, but the design decisions Section 3 calls out:

* Rule I's core-exclusivity priority (vs plain smallest-ID selection);
* the alpha growth factor (1.5) and floor (20);
* the synchronization penalty L = 500 (Appendix C.2 discusses the range).

Each ablation prints the measured impact on the SuiteSparse proxies.
"""

from benchmarks.conftest import cached_schedule
from repro.experiments.tables import format_table
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.serial_sim import simulate_serial
from repro.matrix.permute import permute_symmetric
from repro.scheduler import GrowLocalScheduler
from repro.scheduler.reorder import schedule_reordering
from repro.utils.stats import geometric_mean


def _speedup(inst, scheduler, machine):
    schedule = scheduler.schedule(inst.dag, 22)
    perm = schedule_reordering(schedule)
    mat = permute_symmetric(inst.lower, perm)
    cycles = simulate_bsp(
        mat, schedule.reorder_vertices(perm), machine
    ).total_cycles
    return simulate_serial(inst.lower, machine) / cycles, (
        schedule.n_supersteps
    )


def test_ablation_sync_penalty_L(benchmark, suitesparse, intel):
    """Appendix C.2: L in the hundreds-to-thousands range; L controls how
    much imbalance a superstep may accumulate before a barrier pays off.
    Larger L should produce fewer supersteps."""
    rows = []
    steps_by_L = {}
    for L in (50.0, 500.0, 5000.0):
        speedups, steps = [], []
        for inst in suitesparse:
            s, st = _speedup(inst, GrowLocalScheduler(sync_penalty=L),
                             intel)
            speedups.append(s)
            steps.append(st)
        geo = geometric_mean(speedups)
        mean_steps = sum(steps) / len(steps)
        steps_by_L[L] = mean_steps
        rows.append([L, geo, mean_steps])
    print()
    print(format_table(
        ["L", "geomean speed-up", "mean supersteps"], rows,
        title="Ablation - synchronization penalty L",
    ))
    assert steps_by_L[5000.0] <= steps_by_L[50.0]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_alpha_growth(benchmark, suitesparse, intel):
    """Growth factor sweep around the paper's 1.5."""
    rows = []
    geos = {}
    for growth in (1.2, 1.5, 2.5):
        speedups = [
            _speedup(inst, GrowLocalScheduler(growth=growth), intel)[0]
            for inst in suitesparse
        ]
        geos[growth] = geometric_mean(speedups)
        rows.append([growth, geos[growth]])
    print()
    print(format_table(
        ["growth", "geomean speed-up"], rows,
        title="Ablation - alpha growth factor",
    ))
    # the paper's 1.5 should be competitive with the alternatives
    assert geos[1.5] > 0.75 * max(geos.values())
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_literal_paper_rules(benchmark, suitesparse, intel):
    """min_improvement = 0 + fixed alpha0 reproduces the literal Appendix-B
    acceptance rule; on single-source matrices it degenerates into serial
    supersteps (see growlocal.py docstring), which this ablation
    quantifies."""
    rows = []
    default_geo = geometric_mean([
        cached_schedule(inst, "growlocal", 22).speedup(intel)
        for inst in suitesparse
    ])
    literal = GrowLocalScheduler(min_improvement=0.0, adaptive_alpha0=False)
    literal_geo = geometric_mean([
        _speedup(inst, literal, intel)[0] for inst in suitesparse
    ])
    rows.append(["default (safeguarded)", default_geo])
    rows.append(["literal Appendix-B rule", literal_geo])
    print()
    print(format_table(
        ["configuration", "geomean speed-up"], rows,
        title="Ablation - acceptance-rule safeguards",
    ))
    assert default_geo >= literal_geo
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
