"""Open-loop load generator, timed from each request's due instant.

Arrivals come from a precomputed schedule (``repro.service.loadgen.
build_schedule``).  One generator thread sleeps until each request is
due and submits it whether or not earlier requests have finished.  A
request's latency runs from its *due* instant, not from when it was
submitted, so a stall in the generator shows up as latency of every
request it delayed; how late the generator ran is reported as
``max_lag_s``.  ``run_loadgen`` in the library times from submit and
hides such stalls, which is why the benchmark has its own generator.

Each result is checked in its done-callback and then dropped, so the
generator's memory does not grow with the number of requests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from bench.trace import Tracer

__all__ = ["OpenLoopResult", "run_open_loop"]

#: Longest the generator waits for outstanding requests after the last
#: arrival before giving up on the run.
DRAIN_TIMEOUT_S = 120.0


@dataclass
class OpenLoopResult:
    #: Due-to-resolved seconds of every request answered correctly.
    latencies: list[float] = field(default_factory=list)
    #: Requests that raised (their ``check`` included).
    n_failed: int = 0
    first_due: float = 0.0
    last_done: float = 0.0
    max_lag_s: float = 0.0

    @property
    def n_ok(self) -> int:
        return len(self.latencies)


def run_open_loop(
    target,
    keys: list,
    schedule: list[tuple[float, int]],
    rhs: dict,
    check,
    *,
    tracer=None,
) -> OpenLoopResult:
    """Drive ``target`` (anything with ``submit(key, b)``) with
    ``schedule``, a list of ``(offset_s, key_slot)`` arrivals.

    Request ``i`` for key ``k`` sends ``rhs[k][i % len(rhs[k])]``; its
    result ``x`` is accepted when ``check(k, j, x)`` is true, ``j`` being
    that right-hand side's index.  Only accepted requests get a latency.
    """
    tracer = tracer if tracer is not None else Tracer(enabled=False)
    result = OpenLoopResult()
    lock = threading.Lock()
    drained = threading.Event()
    outstanding = [len(schedule)]
    parent = tracer.current()

    def finish() -> None:
        with lock:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                drained.set()

    def resolved(index: int, due: float, key, j: int):
        def callback(future) -> None:
            done = time.perf_counter()
            try:
                ok, failed = bool(check(key, j, future.result())), False
            except Exception:  # the callback must always finish()
                ok, failed = False, True
            with lock:
                if ok:
                    result.latencies.append(done - due)
                result.n_failed += failed
                result.last_done = max(result.last_done, done)
            tracer.record("service.request", due, done,
                          parent=parent, request=index)
            finish()

        return callback

    if not schedule:
        return result
    t0 = time.perf_counter() + 0.005
    result.first_due = t0 + schedule[0][0]
    for index, (offset, slot) in enumerate(schedule):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0.0:
            time.sleep(delay)
        result.max_lag_s = max(result.max_lag_s, time.perf_counter() - due)
        key = keys[slot]
        j = index % len(rhs[key])
        with tracer.span("service.submit"):
            future = target.submit(key, rhs[key][j])
        future.add_done_callback(resolved(index, due, key, j))
    if not drained.wait(DRAIN_TIMEOUT_S):
        raise TimeoutError(
            f"{outstanding[0]} requests still outstanding "
            f"{DRAIN_TIMEOUT_S:.0f} s after the last arrival"
        )
    return result
