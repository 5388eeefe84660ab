"""Coalescing floor for one service on interleaved hot keys.

:class:`~repro.service.SolveService` coalesces per system: each batch
takes up to ``max_batch`` waiting requests of one system, wherever they
sit among other systems' requests.  So a backlog that alternates two
hot keys still coalesces into multi-request ``solve_block`` sweeps.
This benchmark floors that on the serving-bench system: draining an
interleaved 2-hot-key backlog, one service's average batch per key
must exceed 1 (taking only the run of same-system requests at the
queue head gives exactly 1 on this backlog).  Every returned vector,
from the service and from a 2-shard
:class:`~repro.service.ServingGateway`, stays bit-equal to a direct
backend solve.

The printed table also reports the 2-shard gateway's drain throughput
over the single service's.  That ratio is not floored: what sharding
still adds is a second worker thread, which a loaded 2-core host does
not reliably give.

``REPRO_BENCH_SMOKE=1`` shrinks the instance for CI; the floor stays
on.
"""

import os

import numpy as np

from repro.exec import PlanCache, compile_plan, get_backend
from repro.experiments.bench import _serving_corpus
from repro.experiments.tables import format_table
from repro.service import ServingGateway, SolveService, pick_balanced_keys
from repro.service.loadgen import saturation_throughput

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
#: Interleaved backlog size; round-robin across the two hot keys.
N_REQUESTS = 200 if SMOKE else 800


def test_single_service_coalesces_interleaved_hot_keys():
    lower = _serving_corpus(smoke=SMOKE)
    backend = get_backend()
    plan = compile_plan(lower)
    cache = PlanCache()
    hot_keys = pick_balanced_keys(2, 2, prefix="hot")
    rng = np.random.default_rng(7)
    rhs = {key: rng.standard_normal(lower.n) for key in hot_keys}
    oracle = {key: backend.solve(plan, rhs[key]) for key in hot_keys}

    def drain(target):
        # warm-up drain first so JIT/caches don't skew either side
        saturation_throughput(target, hot_keys, rhs, N_REQUESTS)
        return saturation_throughput(target, hot_keys, rhs, N_REQUESTS)

    with SolveService(backend=backend, plan_cache=cache) as service:
        for key in hot_keys:
            service.register(key, lower)
        single = drain(service)
        single_batch = min(
            service.stats(k).avg_batch_size for k in hot_keys
        )
        for key in hot_keys:
            np.testing.assert_array_equal(
                service.solve(key, rhs[key]), oracle[key]
            )

    with ServingGateway(
        n_shards=2, backend=backend, plan_cache=cache
    ) as gateway:
        for key in hot_keys:
            gateway.register(key, lower)
        sharded = drain(gateway)
        sharded_batch = min(
            gateway.stats(k).avg_batch_size for k in hot_keys
        )
        # the gateway solves bit-equal to a direct backend solve of
        # the same plan
        for key in hot_keys:
            np.testing.assert_array_equal(
                gateway.solve(key, rhs[key]), oracle[key]
            )

    ratio = sharded["throughput_rps"] / single["throughput_rps"]
    print()
    print(format_table(
        ["topology", "requests", "drain s", "rps", "min avg batch"],
        [
            ["single service", N_REQUESTS, single["elapsed_s"],
             single["throughput_rps"], single_batch],
            ["2-shard gateway", N_REQUESTS, sharded["elapsed_s"],
             sharded["throughput_rps"], sharded_batch],
        ],
        title=f"sharded-serving benchmark (n={lower.n}, backend="
              f"{backend.name}, smoke={SMOKE})",
        float_fmt="{:.4f}",
    ))
    print(f"2-shard drain throughput over single service: {ratio:.2f}x "
          f"(not floored)")

    assert single_batch > 1.0, (
        "one service did not coalesce interleaved hot keys: avg batch "
        f"per key {single_batch:.2f}"
    )
