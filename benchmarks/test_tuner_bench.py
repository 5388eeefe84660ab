"""Micro-benchmarks of the autotuner's cost structure.

The tuner's reason to exist is that it answers "which scheduler should
run this matrix" *without* paying the exhaustive sweep every time:

* through a shared :class:`~repro.exec.PlanCache`, tuning compiles no
  triple an exhaustive suite over the same candidates has not already
  paid for — the prior is cache hits on top of the sweep, so adding
  ``"auto"`` to a suite is almost free;
* warm-starting from a persisted profile skips ranking, so re-tuning a
  known fleet of systems costs feature extraction plus a dictionary
  lookup: the plan cache sees no lookup at all.

``REPRO_BENCH_SMOKE=1`` shrinks the instance so the assertions can run
on every CI push.
"""

import os

import numpy as np

from repro.exec import PlanCache
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import run_suite
from repro.experiments.tables import format_table
from repro.machine.model import get_machine
from repro.matrix.generators import narrow_band_lower
from repro.scheduler.registry import make_scheduler
from repro.tuner import Autotuner, TuningProfile
from repro.utils.timing import Timer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N = 2_000 if SMOKE else 10_000
CANDIDATES = ("growlocal", "hdagg", "wavefront")
N_CORES = 8


def test_tuning_adds_no_compiles_over_an_exhaustive_sweep():
    lower = narrow_band_lower(N, 0.05, 20.0, seed=0)
    inst = DatasetInstance("bench", lower)
    machine = get_machine("intel_xeon_6238t")
    cache = PlanCache()

    schedulers = {n: make_scheduler(n) for n in (*CANDIDATES, "serial")}
    with Timer() as t_sweep:
        run_suite([inst], schedulers, machine, n_cores=N_CORES,
                  plan_cache=cache)
    misses_after_sweep = cache.misses

    tuner = Autotuner(candidates=CANDIDATES, expected_solves=1e15)
    with Timer() as t_tune:
        decision = tuner.tune(inst, machine, n_cores=N_CORES,
                              plan_cache=cache)

    # the whole tuning pipeline rode the sweep's compiled triples
    assert cache.misses == misses_after_sweep, (
        "tuning recompiled triples the exhaustive sweep already built"
    )

    # warm start: profile hit skips ranking entirely
    profile = TuningProfile(machine=machine.name)
    tuner.tune(inst, machine, n_cores=N_CORES, plan_cache=cache,
               profile=profile)
    lookups_before = (cache.hits, cache.misses)
    with Timer() as t_warm:
        warm = tuner.tune(inst, machine, n_cores=N_CORES,
                          plan_cache=cache, profile=profile)
    assert warm.source == "profile"
    assert (cache.hits, cache.misses) == lookups_before

    print()
    print(format_table(
        ["stage", "time s", "pick"],
        [
            ["exhaustive sweep", f"{t_sweep.elapsed:.3f}", "-"],
            ["tune (shared cache)", f"{t_tune.elapsed:.3f}",
             decision.scheduler],
            ["tune (profile warm)", f"{t_warm.elapsed:.3f}",
             warm.scheduler],
        ],
        title=f"autotuner cost structure (n={N}, {len(CANDIDATES)} "
              f"candidates)",
    ))
    assert warm.scheduler == decision.scheduler
    assert np.isfinite(t_warm.elapsed)
