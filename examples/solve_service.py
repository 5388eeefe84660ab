#!/usr/bin/env python
"""Serve concurrent solve requests through the SolveService.

Registers two triangular systems (a narrow-band and an Erdős–Rényi
instance, each lowered once to its level-set plan), fires interleaved
single-RHS requests at them from several client threads, and prints the per-system serving
statistics — requests, micro-batch sizes, latency and throughput.  Every
answer is verified bit-equal to solving its right-hand side alone, which
is the service's core guarantee: coalescing is invisible to clients.

Run:  python examples/solve_service.py
"""

import threading

import numpy as np

from repro import compile_plan, get_backend
from repro.matrix.generators import erdos_renyi_lower, narrow_band_lower
from repro.service import SolveService

N_CLIENTS = 4
REQUESTS_PER_CLIENT = 12


def main() -> None:
    band = narrow_band_lower(3000, 0.05, 20.0, seed=0)
    er = erdos_renyi_lower(2000, 4e-3, seed=1)
    backend = get_backend()
    oracles = {
        "band": compile_plan(band),
        "er": compile_plan(er),
    }
    sizes = {"band": band.n, "er": er.n}

    verified = []

    with SolveService(backend=backend, max_batch=16) as service:
        service.register("band", band)
        service.register("er", er)

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            key = "band" if seed % 2 == 0 else "er"
            bs = [rng.standard_normal(sizes[key])
                  for _ in range(REQUESTS_PER_CLIENT)]
            futures = service.submit_many(key, bs)
            for b, fut in zip(bs, futures, strict=True):
                x = fut.result(timeout=60)
                assert np.array_equal(x, backend.solve(oracles[key], b))
            verified.append(key)

        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in range(N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        print(f"served {N_CLIENTS * REQUESTS_PER_CLIENT} requests from "
              f"{N_CLIENTS} clients ({len(verified)} verified streams)\n")
        for key, stats in sorted(service.stats().items()):
            row = stats.as_row()
            print(f"system {key!r}: n={row['n_rows']}, "
                  f"{row['requests']} requests in {row['batches']} "
                  f"micro-batches (avg {row['avg_batch']:.1f}, "
                  f"max {row['max_batch']}), "
                  f"avg latency {1e3 * row['avg_latency_s']:.2f} ms, "
                  f"throughput {row['throughput_rps']:.0f} solves/s")
    print("\nall results bit-equal to sequential solves")


if __name__ == "__main__":
    main()
