"""Micro-benchmark of the solve service's micro-batched SpTRSM path.

The service's reason to exist is that ``k`` queued single-RHS requests
cost one vectorized sweep over the plan's dependency layers instead of
``k`` — the per-layer Python dispatch is paid once per micro-batch.
This benchmark pins that down: ``k`` requests served through the
coalescing queue must beat ``k`` sequential ``backend.solve`` calls on
the same plan, end to end (queueing, thread hand-off and result
distribution included), while returning bit-equal results.  The two
sides are timed in alternating rounds and the best of each compared,
so a slow stretch of a shared host hits both sides.

``REPRO_BENCH_SMOKE=1`` shrinks the instance so the assertion can run
on every CI push; the perf floor stays on.
"""

import os

import numpy as np

from repro.exec import compile_plan, get_backend
from repro.experiments.tables import format_table
from repro.matrix.generators import narrow_band_lower
from repro.service import SolveService
from repro.utils.timing import Timer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
#: Narrow-band instances (a paper dataset, Section 6.2.5) have many
#: small dependency layers — the serving regime where per-layer Python
#: dispatch dominates and micro-batching pays the most.
N = 3_000 if SMOKE else 10_000
P, BAND = 0.05, 20.0
K = 16 if SMOKE else 48
ROUNDS = 21
#: Floor; the full-size test read 1.7-2.2x on a 2-core container.
MIN_SPEEDUP = 1.5


def test_micro_batched_service_beats_sequential_solves():
    lower = narrow_band_lower(N, P, BAND, seed=0)
    plan = compile_plan(lower)
    backend = get_backend()
    rng = np.random.default_rng(7)
    bs = [rng.standard_normal(N) for _ in range(K)]

    # sequential baseline: K independent single-RHS solves; service
    # path: the same K requests coalesced into micro-batches
    x_seq = [backend.solve(plan, b) for b in bs]  # warm-up + oracle
    with SolveService(backend=backend, max_batch=K) as service:
        service.register("bench", lower, plan=plan)

        def served():
            futures = service.submit_many("bench", bs)
            return [f.result() for f in futures]

        x_served = served()  # warm-up + oracle
        t_seqs, t_served = [], []
        for _ in range(ROUNDS):
            with Timer() as t:
                for b in bs:
                    backend.solve(plan, b)
            t_seqs.append(t.elapsed)
            with Timer() as t:
                served()
            t_served.append(t.elapsed)
        stats = service.stats("bench")
    t_sequential, t_service = min(t_seqs), min(t_served)

    for a, b in zip(x_served, x_seq, strict=True):
        np.testing.assert_array_equal(a, b)
    assert stats.avg_batch_size > 1.0, (
        "requests were never coalesced: avg batch size "
        f"{stats.avg_batch_size:.2f}"
    )

    speedup = t_sequential / t_service
    print()
    print(format_table(
        ["path", "k", "time s", "per-solve ms", "avg batch"],
        [
            ["sequential solve()", K, t_sequential,
             1e3 * t_sequential / K, 1.0],
            ["service micro-batch", K, t_service,
             1e3 * t_service / K, stats.avg_batch_size],
        ],
        title=f"solve-service micro-benchmark (n={N}, backend="
              f"{backend.name}, smoke={SMOKE})",
        float_fmt="{:.4f}",
    ))
    print(f"micro-batched SpTRSM speed-up over sequential: {speedup:.1f}x "
          f"(throughput {stats.throughput_rps:.0f} solves/s)")

    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched path only {speedup:.2f}x over sequential "
        f"single-RHS solves (floor {MIN_SPEEDUP}x)"
    )
