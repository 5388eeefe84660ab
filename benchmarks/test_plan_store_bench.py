"""Plan-artifact store benchmark: zero-cost cold start.

The :class:`~repro.store.PlanStore` exists so a process that has never
seen a matrix before can skip :func:`~repro.exec.compile_plan` entirely
and deserialize a verified :class:`~repro.exec.ExecutionPlan` from disk:
a warm **load-and-verify** (sidecar parse + content hash + the full
:func:`~repro.analysis.verify.check_plan` gate) must beat the cold
compile on a compile-dominated corpus, with **zero** compiles during
the warm loads.  The two-process contract (a second interpreter sharing
``REPRO_PLAN_STORE_DIR`` compiles nothing) is asserted by
``test_two_process_warm_start_zero_compiles`` in
``tests/test_plan_store.py``.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus so the assertions can run on
every CI push.
"""

import os

import numpy as np

from repro.exec import compile_plan
from repro.exec.plan import compile_count
from repro.experiments.bench import make_deep_narrow, make_wide_shallow
from repro.experiments.tables import format_table
from repro.matrix.generators import narrow_band_lower
from repro.store.plan_store import PlanStore, plan_store_key
from repro.utils.timing import Timer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Verified loads pay hashing + check_plan, so the floor is deliberately
#: conservative; the compile-dominated deep-narrow shape keeps the
#: aggregate well above it (~6x in smoke, higher at full size).
SPEEDUP_FLOOR = 2.0


def _median_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        with Timer() as t:
            fn()
        times.append(t.elapsed)
    return float(np.median(times))


def test_warm_load_beats_cold_compile(tmp_path):
    # deep-narrow (a dependency chain) is the compile-dominated shape
    # where plan artifacts pay off most; wide-shallow and narrow-band
    # keep the total honest about small plans where verification
    # overhead rivals the compile
    corpus = {
        "deep-narrow": make_deep_narrow(
            n=4_000 if SMOKE else 20_000, seed=1
        ),
        "wide-shallow": make_wide_shallow(
            levels=6, width=800 if SMOKE else 4_000, seed=0
        ),
        "narrow-band": narrow_band_lower(
            2_000 if SMOKE else 10_000, 0.05, 20.0, seed=2
        ),
    }
    store = PlanStore(tmp_path)
    keys = {name: plan_store_key(m, None) for name, m in corpus.items()}

    cold = {
        name: _median_time(lambda m=m: compile_plan(m))
        for name, m in corpus.items()
    }
    for name, m in corpus.items():
        store.save(compile_plan(m), keys[name])

    for name, m in corpus.items():  # warm-up (page cache, imports)
        store.load(keys[name], matrix=m)
    compiles_before = compile_count()
    warm = {
        name: _median_time(
            lambda name=name, m=m: store.load(keys[name], matrix=m)
        )
        for name, m in corpus.items()
    }
    warm_compiles = compile_count() - compiles_before
    stats = store.stats()
    t_warm = sum(warm.values())
    assert t_warm > 0
    speedup = sum(cold.values()) / t_warm

    print()
    print(format_table(
        ["shape", "n", "cold compile s", "warm load s"],
        [
            [name, str(m.n), f"{cold[name]:.4f}", f"{warm[name]:.4f}"]
            for name, m in corpus.items()
        ],
        title=f"plan store: cold compile vs verified load "
              f"(speedup {speedup:.1f}x, "
              f"{stats['n_artifacts']} artifacts, "
              f"{stats['total_bytes']} bytes)",
    ))

    assert warm_compiles == 0, (
        "a warm store load triggered a plan compile"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"verified load only {speedup:.2f}x faster than "
        f"recompiling (floor {SPEEDUP_FLOOR}x)"
    )
