"""Open-loop traffic generation against a gateway or service.

Open loop means arrivals follow a *precomputed schedule* — Poisson
inter-arrival gaps at a target rate, optionally in bursty phases — and
the generator submits on schedule whether or not earlier requests have
completed.  Closed-loop drivers (submit, wait, submit) measure only
how fast the system lets one client go; open-loop drivers expose
queueing collapse: when the service cannot keep up, latency grows
without bound and bounded queues start rejecting, and that is exactly
what the report shows (p50/p90/p99 client-observed latency, admission
rejections, deadline misses, queue-wait vs execute-time breakdown,
per-shard balance).

Key choice per arrival follows a Zipf distribution over the registered
keys (``weight(rank i) ∝ (i + 1) ** -s``), so hot-key skew — the
regime where sharding matters — is one knob.  ``s = 0`` is uniform.

Everything is deterministic given :class:`LoadgenConfig.seed`: the
schedule (arrival instants and key choices) is built once with a
seeded generator, so two runs against different topologies offer
*identical* traffic.

:func:`saturation_throughput` is the companion closed-world probe: it
enqueues an interleaved backlog all at once and times the drain,
measuring the peak rate the topology sustains — the number the serving
benchmark reports for a 2-shard gateway against a single service.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineExceededError,
)

__all__ = [
    "BurstPhase",
    "LoadgenConfig",
    "LoadgenReport",
    "build_schedule",
    "run_loadgen",
    "saturation_throughput",
]


@dataclass(frozen=True)
class BurstPhase:
    """One constant-rate segment of an open-loop schedule.

    A bursty workload is a sequence of phases — e.g. a baseline rate,
    a spike at several times that rate, then the baseline again.
    """

    rate_rps: float
    duration_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_rps) and self.rate_rps > 0.0):
            raise ConfigurationError(
                f"phase rate_rps must be finite and > 0, got "
                f"{self.rate_rps}"
            )
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise ConfigurationError(
                f"phase duration_s must be finite and > 0, got "
                f"{self.duration_s}"
            )


@dataclass(frozen=True)
class LoadgenConfig:
    """Knobs of one open-loop run.

    Attributes
    ----------
    phases:
        Burst phases executed back to back (at least one).
    zipf_s:
        Hot-key skew exponent: arrival key rank ``i`` is drawn with
        weight ``(i + 1) ** -zipf_s``.  ``0.0`` = uniform; ``1.0`` is
        classic Zipf; larger = hotter head.
    seed:
        Seed for the schedule generator (arrival gaps + key choices).
    timeout_s:
        Optional per-request deadline forwarded to ``submit``.
    """

    phases: tuple[BurstPhase, ...]
    zipf_s: float = 0.0
    seed: int = 0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError(
                "config needs at least one BurstPhase"
            )
        if not (math.isfinite(self.zipf_s) and self.zipf_s >= 0.0):
            raise ConfigurationError(
                f"zipf_s must be finite and >= 0, got {self.zipf_s}"
            )
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0.0
        ):
            raise ConfigurationError(
                f"timeout_s must be positive and finite, got "
                f"{self.timeout_s}"
            )

    @property
    def duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)

    @property
    def offered_rate_rps(self) -> float:
        """Duration-weighted mean arrival rate over all phases."""
        return (
            sum(p.rate_rps * p.duration_s for p in self.phases)
            / self.duration_s
        )


def zipf_weights(n_keys: int, s: float) -> np.ndarray:
    """Normalized Zipf key weights: ``w[i] ∝ (i + 1) ** -s``.

    Examples
    --------
    >>> zipf_weights(4, 0.0).tolist()
    [0.25, 0.25, 0.25, 0.25]
    >>> w = zipf_weights(3, 1.0)
    >>> bool(w[0] > w[1] > w[2])
    True
    """
    if n_keys < 1:
        raise ConfigurationError(f"n_keys must be >= 1, got {n_keys}")
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    weights = ranks ** (-float(s))
    return weights / weights.sum()


def build_schedule(
    config: LoadgenConfig, n_keys: int
) -> list[tuple[float, int]]:
    """Materialize the arrival schedule: ``(arrival_s, key_slot)``.

    Arrival instants are offsets from the run start; gaps inside each
    phase are exponential at the phase rate (a Poisson process), and
    key slots are Zipf(``zipf_s``)-distributed ranks in
    ``[0, n_keys)``.  Deterministic given ``config.seed``.

    Examples
    --------
    >>> cfg = LoadgenConfig(phases=(BurstPhase(100.0, 0.5),), seed=7)
    >>> schedule = build_schedule(cfg, 2)
    >>> all(0.0 <= t < 0.5 for t, _ in schedule)
    True
    >>> schedule == build_schedule(cfg, 2)  # seeded => reproducible
    True
    """
    rng = np.random.default_rng(config.seed)
    weights = zipf_weights(n_keys, config.zipf_s)
    schedule: list[tuple[float, int]] = []
    phase_start = 0.0
    for phase in config.phases:
        t = float(rng.exponential(1.0 / phase.rate_rps))
        while t < phase.duration_s:
            slot = int(rng.choice(n_keys, p=weights))
            schedule.append((phase_start + t, slot))
            t += float(rng.exponential(1.0 / phase.rate_rps))
        phase_start += phase.duration_s
    return schedule


def _percentile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending-sorted list."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, int(np.ceil(q * len(sorted_values))) - 1),
    )
    return sorted_values[rank]


@dataclass(frozen=True)
class LoadgenReport:
    """Outcome of one open-loop run — the serving scorecard.

    Latency percentiles are **client-observed** (submit instant to
    future resolution, measured by a done-callback in the worker
    thread), computed exactly over the run's completed requests — not
    from the obs log-bucket histograms, so they carry no bucketing
    error.  ``queue_wait`` / ``execute`` totals come from the target's
    own :class:`~repro.service.SystemStats` counters and split the
    same latency into its waiting and solving components.
    """

    n_requests: int
    n_ok: int
    n_admission_rejected: int
    n_deadline_missed: int
    n_failed: int
    duration_s: float
    elapsed_s: float
    offered_rate_rps: float
    achieved_rps: float
    latency_p50_s: float
    latency_p90_s: float
    latency_p99_s: float
    total_queue_wait_s: float
    total_execute_s: float
    per_shard_requests: list[int] = field(default_factory=list)
    max_schedule_slip_s: float = 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_admission_rejected": self.n_admission_rejected,
            "n_deadline_missed": self.n_deadline_missed,
            "n_failed": self.n_failed,
            "duration_s": self.duration_s,
            "elapsed_s": self.elapsed_s,
            "offered_rate_rps": self.offered_rate_rps,
            "achieved_rps": self.achieved_rps,
            "latency_p50_s": self.latency_p50_s,
            "latency_p90_s": self.latency_p90_s,
            "latency_p99_s": self.latency_p99_s,
            "total_queue_wait_s": self.total_queue_wait_s,
            "total_execute_s": self.total_execute_s,
            "per_shard_requests": list(self.per_shard_requests),
            "max_schedule_slip_s": self.max_schedule_slip_s,
        }


def _stats_totals(target, keys) -> tuple[float, float]:
    """Summed (queue-wait, execute) seconds over ``keys`` from stats."""
    queue_wait = 0.0
    execute = 0.0
    for key in keys:
        stats = target.stats(key)
        queue_wait += stats.total_queue_wait_seconds
        execute += stats.total_solve_seconds
    return queue_wait, execute


def _per_shard_requests(target, keys) -> list[int]:
    """Completed-request count per shard (single service: one entry)."""
    shard_stats = getattr(target, "shard_stats", None)
    if shard_stats is None:
        return [sum(target.stats(k).n_requests for k in keys)]
    wanted = set(keys)
    return [
        sum(s.n_requests for k, s in per_shard.items() if k in wanted)
        for per_shard in shard_stats()
    ]


def run_loadgen(
    target,
    keys: list[object],
    rhs: dict[object, np.ndarray],
    config: LoadgenConfig,
) -> LoadgenReport:
    """Drive ``target`` with open-loop traffic and score the run.

    ``target`` is anything with the service request surface
    (``submit(key, b, *, timeout=...)`` and ``stats(key)``) — a
    :class:`~repro.service.ServingGateway` or a bare
    :class:`~repro.service.SolveService`.  ``keys[i]`` is the key for
    Zipf rank ``i`` (``keys[0]`` is the hottest), and ``rhs`` maps
    each key to the right-hand side submitted for it.

    The generator sleeps until each scheduled arrival and submits
    without waiting for completions; when the schedule is exhausted it
    blocks until every outstanding future resolves, then aggregates.
    """
    for key in keys:
        if key not in rhs:
            raise ConfigurationError(f"no RHS supplied for key {key!r}")
    schedule = build_schedule(config, len(keys))
    base_queue_wait, base_execute = _stats_totals(target, keys)

    outcomes: list[tuple[float, Future]] = []
    # resolution instants, recorded by done-callbacks in the worker
    # thread the moment each future resolves — waiting on the futures
    # afterwards (in submission order) must not inflate the latency of
    # requests that completed while the client was blocked elsewhere
    resolved_at: dict[int, float] = {}

    def _mark(index: int):
        def _cb(_future: Future) -> None:
            resolved_at[index] = time.perf_counter()

        return _cb

    n_admission_rejected = 0
    max_slip = 0.0
    t_start = time.perf_counter()
    for arrival_s, slot in schedule:
        now = time.perf_counter()
        delay = (t_start + arrival_s) - now
        if delay > 0.0:
            time.sleep(delay)
        else:
            max_slip = max(max_slip, -delay)
        key = keys[slot]
        submitted_at = time.perf_counter()
        try:
            future = target.submit(
                key, rhs[key], timeout=config.timeout_s
            )
        except AdmissionError:
            n_admission_rejected += 1
            continue
        future.add_done_callback(_mark(len(outcomes)))
        outcomes.append((submitted_at, future))

    n_ok = 0
    n_deadline_missed = 0
    n_failed = 0
    latencies: list[float] = []
    for index, (submitted_at, future) in enumerate(outcomes):
        try:
            future.result()
        except DeadlineExceededError:
            n_deadline_missed += 1
            continue
        except Exception:
            n_failed += 1
            continue
        n_ok += 1
        latencies.append(resolved_at[index] - submitted_at)
    elapsed = time.perf_counter() - t_start

    queue_wait, execute = _stats_totals(target, keys)
    latencies.sort()
    return LoadgenReport(
        n_requests=len(schedule),
        n_ok=n_ok,
        n_admission_rejected=n_admission_rejected,
        n_deadline_missed=n_deadline_missed,
        n_failed=n_failed,
        duration_s=config.duration_s,
        elapsed_s=elapsed,
        offered_rate_rps=config.offered_rate_rps,
        achieved_rps=n_ok / elapsed if elapsed > 0.0 else 0.0,
        latency_p50_s=_percentile(latencies, 0.50),
        latency_p90_s=_percentile(latencies, 0.90),
        latency_p99_s=_percentile(latencies, 0.99),
        total_queue_wait_s=queue_wait - base_queue_wait,
        total_execute_s=execute - base_execute,
        per_shard_requests=_per_shard_requests(target, keys),
        max_schedule_slip_s=max_slip,
    )


def saturation_throughput(
    target,
    keys: list[object],
    rhs: dict[object, np.ndarray],
    n_requests: int,
) -> dict[str, float]:
    """Backlog-drain throughput of ``target`` on interleaved traffic.

    Submits ``n_requests`` single-RHS requests round-robin across
    ``keys``, so successive submissions alternate systems and every
    batch gathers one system's requests from between the others', then
    blocks until all complete.  Returns ``{"throughput_rps",
    "elapsed_s", "n_requests"}`` where throughput counts completed
    requests per wall-clock second of drain.
    """
    if n_requests < 1:
        raise ConfigurationError(
            f"n_requests must be >= 1, got {n_requests}"
        )
    sequence = [keys[i % len(keys)] for i in range(n_requests)]
    t0 = time.perf_counter()
    futures = [target.submit(key, rhs[key]) for key in sequence]
    for future in futures:
        future.result()
    elapsed = time.perf_counter() - t0
    return {
        "throughput_rps": n_requests / elapsed if elapsed > 0 else 0.0,
        "elapsed_s": elapsed,
        "n_requests": float(n_requests),
    }
