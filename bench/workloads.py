"""The benchmark's five workloads.

Each workload is a function ``(seed, seconds, tracer, workdir, size)``
that builds its inputs from ``seed``, sets up several times, measures
for ``seconds`` and checks every result it measured.  ``size`` scales
the inputs (1.0 is the benchmark; tests pass less); ``workdir`` is where
temporary files may go.  The benchmark calls only the library's public
functions and wraps each call in a tracer span, so a traced run splits
the same work by layer.

Why each workload exists, and which metric each layer should move on
it, is written down in ``bench/README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import resource
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse.linalg import spsolve_triangular

from repro.analysis.verify import check_plan
from repro.errors import PlanArtifactError, PlanVerificationError
from repro.exec import PlanCache, compile_plan, get_backend
from repro.exec.plan import compile_count
from repro.experiments.bench import make_deep_narrow, make_wide_shallow
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import resolve_reorder, run_instance
from repro.graph.dag import DAG
from repro.machine.model import get_machine
from repro.matrix.generators import (
    erdos_renyi_lower,
    grid_laplacian_2d,
    narrow_band_lower,
    rcm_mesh,
)
from repro.matrix.permute import permute_symmetric
from repro.scheduler.registry import make_scheduler
from repro.scheduler.reorder import schedule_reordering
from repro.service import ServingGateway, pick_balanced_keys
from repro.service.loadgen import BurstPhase, LoadgenConfig, build_schedule
from repro.store.plan_store import ARRAY_FIELDS, PlanStore, plan_store_key
from repro.utils.stats import geometric_mean

from bench.openloop import run_open_loop

__all__ = ["WORKLOADS", "Outcome", "end_to_end", "not_gated"]

#: Machine model and core count of the paper's simulated speed-ups.
MACHINE = "intel_xeon_6238t"
CORES = 8
#: The schedulers the paper compares.
SCHEDULERS = ("growlocal", "funnel+gl", "hdagg", "spmp", "wavefront")
#: Seeded right-hand sides per plan; results are checked against one
#: oracle per right-hand side, computed before timing.
N_RHS = 8
#: Columns of a block right-hand side (the service's micro-batch scale).
BLOCK_K = 16
#: Largest accepted relative max-norm error against the oracle.
TOLERANCE = 1e-9
#: Share of a run's measured time given to block solves.
BLOCK_SHARE = 0.3
#: Every timed sample is scaled to a reference machine speed.  Other
#: tenants of the shared machine slow each process down by up to about
#: 2x, in stretches from a second to minutes.  A fixed reference task is
#: timed before and after each sample (set-ups and serving phases: the
#: median of ``REFERENCE_REPEATS`` runs of it), and the sample is
#: multiplied by ``REFERENCE_S`` over the mean of the two: its seconds
#: on a machine that runs the task in ``REFERENCE_S``, about the task's
#: median time on the undisturbed 2-core development host (Xeon, KVM).
#: A slow stretch slows each kind of work by a different factor, so the
#: task has parts: a ``"dispatch"`` loop of interpreter steps and small
#: numpy calls, the work of a solve's per-batch dispatch, which scales
#: solves of plans with many small batches; a ``"vector"`` part of
#: SHA-256 and a copy (a plan-store load) and a numpy gather-reduce (a
#: vectorized batch) in about equal parts, which scales the set-up of a
#: plan of few large batches; and the ``"whole"`` task, both parts
#: together, which scales everything else.
REFERENCE_S = {"dispatch": 0.55e-3, "vector": 0.85e-3, "whole": 1.4e-3}
REFERENCE_REPEATS = 5
REFERENCE_ITERATIONS = 350
#: Set-up runs at least this many times, and more while the total stays
#: under ``SETUP_MIN_S``, so ``setup_s`` is a median even when set-up is
#: fast.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 25
#: serve-zipf traffic: a 2-shard gateway, 8 Zipf-skewed keys, arrivals
#: from ``build_schedule``.  The run's seconds are split into
#: ``SERVE_SEGMENTS`` segments; each runs light open-loop traffic for
#: ``LIGHT_SHARE`` of them (request latency: ``op_p50_s``), then an
#: overload burst offering ``OVERLOAD_SHARE`` of them of arrivals
#: (completions per second: ``ops_per_s``), then burst rounds for
#: ``BURST_SHARE`` of them (``block_p50_s``).  A burst round submits the
#: next ``BURST_REQUESTS`` arrivals of Zipf traffic at once and waits for
#: every result.  Light traffic arrives at ``LIGHT_RPS`` at the reference
#: speed: on a machine running ``k`` times slower, at ``LIGHT_RPS / k``,
#: so the service stays as busy as at the reference speed.  Served
#: requests share one interpreter lock, so at a fixed rate a slower
#: machine would also queue them longer, which scaling cannot undo.
SERVE_SHARDS = 2
SERVE_KEYS = 8
ZIPF_S = 1.1
LIGHT_RPS = 300.0
OVERLOAD_RPS = 4_000.0
SERVE_SEGMENTS = 10
LIGHT_SHARE = 0.7
OVERLOAD_SHARE = 0.075
BURST_SHARE = 0.225
BURST_REQUESTS = 128
#: A light phase whose generator ran later than this is not a valid
#: latency measurement.
MAX_LAG_S = 0.05
#: Simulated speed-up of a serial plan: it runs on one core.
SERIAL_SPEEDUP = 1.0


class Checks:
    """Counts checked results and failed ones; safe to call from the
    service's worker threads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def add(self, attempted: int, failed: int) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed

    def record(self, ok: bool) -> bool:
        self.add(1, 0 if ok else 1)
        return ok

    def close_to(self, x: np.ndarray, reference: np.ndarray) -> bool:
        """``x`` matches ``reference`` to a relative max-norm error of
        at most :data:`TOLERANCE` (NaN never does)."""
        error = np.max(np.abs(x - reference))
        return self.record(
            bool(error <= TOLERANCE * np.max(np.abs(reference)))
        )


@dataclass
class System:
    """One plan with its seeded right-hand sides and their oracles."""

    plan: object
    rhs: np.ndarray
    oracle: np.ndarray
    block: np.ndarray
    #: The backend's single-RHS result per right-hand side; every block
    #: column must be bit-equal to the matching one.
    singles: list = field(default_factory=list)

    def block_matches(self, x_block: np.ndarray) -> bool:
        return all(
            np.array_equal(x_block[:, c], self.singles[c % N_RHS])
            for c in range(BLOCK_K)
        )


def make_system(plan, matrix, rng: np.random.Generator) -> System:
    rhs = rng.standard_normal((N_RHS, matrix.n))
    oracle = spsolve_triangular(matrix.to_scipy(), rhs.T, lower=True).T
    block = np.ascontiguousarray(rhs[np.arange(BLOCK_K) % N_RHS].T)
    return System(plan, rhs, np.ascontiguousarray(oracle), block)


_REFERENCE_SMALL = np.arange(64.0)
_REFERENCE_BYTES = np.random.default_rng(0).bytes(1 << 19)
_REFERENCE_VALUES = np.random.default_rng(1).standard_normal(50_000)
_REFERENCE_GATHER = np.random.default_rng(2).integers(0, 50_000, 100_000)
_REFERENCE_STARTS = np.arange(0, 100_000, 4)


def reference() -> dict[str, float]:
    """Seconds of one run of the reference task, per part (see
    :data:`REFERENCE_S`)."""
    small = _REFERENCE_SMALL
    total = 0.0
    t0 = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        total += float(small[i & 63]) + small[:8].sum()
    t1 = time.perf_counter()
    hashlib.sha256(_REFERENCE_BYTES).digest()
    bytearray(_REFERENCE_BYTES)
    np.add.reduceat(_REFERENCE_VALUES[_REFERENCE_GATHER], _REFERENCE_STARTS)
    t2 = time.perf_counter()
    return {"dispatch": t1 - t0, "vector": t2 - t1, "whole": t2 - t0}


def slowdown(before: dict, after: dict, part: str) -> float:
    """How many times slower than the reference speed the machine ran
    between two reference times, going by reference part ``part``."""
    return (before[part] + after[part]) / (2 * REFERENCE_S[part])


@dataclass
class Measured:
    """The timed samples of one run: set-ups, operations and block
    operations, each scaled to the reference speed and as timed
    (``*_wall``), and every reference time."""

    setup: list[float] = field(default_factory=list)
    op: list[float] = field(default_factory=list)
    block: list[float] = field(default_factory=list)
    setup_wall: list[float] = field(default_factory=list)
    op_wall: list[float] = field(default_factory=list)
    block_wall: list[float] = field(default_factory=list)
    reference: list[dict] = field(default_factory=list)

    def reference_point(self, repeats: int = 1) -> dict[str, float]:
        """The reference times now: per part, the median of ``repeats``
        runs."""
        runs = [reference() for _ in range(repeats)]
        self.reference += runs
        return {
            part: statistics.median(run[part] for run in runs)
            for part in REFERENCE_S
        }

    def add(self, kind: str, seconds: float, before: dict, after: dict,
            part: str = "whole") -> None:
        """One ``kind`` sample of ``seconds``, between reference times
        ``before`` and ``after``, scaled by reference part ``part``."""
        getattr(self, f"{kind}_wall").append(seconds)
        getattr(self, kind).append(
            seconds / slowdown(before, after, part)
        )


@dataclass
class Outcome:
    """What one workload run measured."""

    #: Timed samples; on serve-zipf the operations are the open-loop
    #: request latencies and the block operations the burst rounds.
    samples: Measured
    #: Operations per second at the reference speed (serve-zipf: one
    #: value per overload burst).
    rates: list[float]
    sim_speedup: float
    checks: Checks
    #: Per-layer values measured outside spans: counts, sizes and the
    #: service's own counters.
    layers: dict[str, float] = field(default_factory=dict)
    #: False when the run is not a valid measurement (the load
    #: generator fell behind); ``note`` says why.
    valid: bool = True
    note: str = ""


# ---------------------------------------------------------------------------
# shared measurement helpers
# ---------------------------------------------------------------------------
def repeat_setup(m: Measured, setup, tracer, cleanup=None,
                 part: str = "whole"):
    """Run ``setup`` several times, adding each time to ``m``, scaled by
    reference part ``part``; returns its last result.  ``cleanup``
    releases each result but the last."""
    result = None
    while len(m.setup) < SETUP_MIN_REPS or (
        sum(m.setup_wall) < SETUP_MIN_S and len(m.setup) < SETUP_MAX_REPS
    ):
        if m.setup and cleanup is not None:
            cleanup(result)
        gc.collect()
        before = m.reference_point(REFERENCE_REPEATS)
        with tracer.span("setup"):
            t0 = time.perf_counter()
            result = setup()
            elapsed = time.perf_counter() - t0
        m.add("setup", elapsed, before, m.reference_point(REFERENCE_REPEATS),
              part)
    return result


@contextmanager
def gc_paused():
    """Keep collector pauses out of measured operations."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def measure(m: Measured, seconds: float, op, block_op=None, *,
            op_kind: str = "op", parts=("whole", "whole")) -> None:
    """Run ``op`` (and ``block_op``, given :data:`BLOCK_SHARE` of the
    timed work) for ``seconds``, at least once each, with the reference
    task timed between calls; adds the samples to ``m`` as ``op_kind``
    and ``"block"``, scaled by reference ``parts``.  Both take their
    call index and return the seconds they timed."""
    block_kind = "block"
    part = {block_kind: parts[1], op_kind: parts[0]}
    calls = {op_kind: 0, block_kind: 0}
    spent = {op_kind: 0.0, block_kind: 0.0}
    with gc_paused():
        before = m.reference_point()
        end = time.perf_counter() + seconds
        while not calls[op_kind] or (
            block_op is not None and not calls[block_kind]
        ) or time.perf_counter() < end:
            if block_op is not None and calls[op_kind] and (
                spent[block_kind] <= BLOCK_SHARE * sum(spent.values())
            ):
                kind, call = block_kind, block_op
            else:
                kind, call = op_kind, op
            elapsed = call(calls[kind])
            calls[kind] += 1
            spent[kind] += elapsed
            after = m.reference_point()
            m.add(kind, elapsed, before, after, part[kind])
            before = after


def op_rate(samples) -> float:
    """Operations per second of back-to-back ``samples``."""
    return len(samples) / math.fsum(samples)


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, str, int | None]]:
    """Every end-to-end metric of one run: ``name -> (value, unit,
    sample count or None)``."""
    m = outcome.samples
    setup = statistics.median(m.setup)
    op_p50 = statistics.median(m.op)
    return {
        "setup_s": (setup, "s", len(m.setup)),
        "op_p50_s": (op_p50, "s", len(m.op)),
        "block_p50_s": (statistics.median(m.block), "s", len(m.block)),
        "ops_per_s": (
            statistics.median(outcome.rates), "1/s", len(outcome.rates)
        ),
        # Eq. 7.1: set-up spread over 100 operations, plus one operation
        "amortized_s_n100": (setup / 100 + op_p50, "s", None),
        "sim_speedup": (outcome.sim_speedup, "x", None),
        "peak_rss_mb": (peak_rss_mb(), "MB", None),
    }


def not_gated(outcome: Outcome) -> dict[str, tuple[float, str, int]]:
    """Metrics reported with every run but not in ``BENCHMARK.json``.
    ``op_p95_s`` spreads across runs on the shared machine more than a
    bound may allow; the ``*_wall_s`` medians are the samples as timed,
    before scaling to the reference speed, and ``reference_<part>_s``
    the reference task's median times."""
    m = outcome.samples
    return {
        "op_p95_s": (float(np.percentile(m.op, 95)), "s", len(m.op)),
        **{
            name: (statistics.median(samples), "s", len(samples))
            for name, samples in (
                ("setup_wall_s", m.setup_wall),
                ("op_p50_wall_s", m.op_wall),
                ("block_p50_wall_s", m.block_wall),
                *(
                    (f"reference_{part}_s",
                     [run[part] for run in m.reference])
                    for part in REFERENCE_S
                ),
            )
        },
    }


def plan_layers(plans) -> dict[str, float]:
    """Per-layer counts of the plans a workload executes."""
    plans = list(plans)
    return {
        "exec.batches": sum(p.n_batches for p in plans),
        "exec.fused_groups": sum(p.n_fused_groups for p in plans),
        "exec.plan_bytes": sum(
            getattr(p, name).nbytes for p in plans for name in ARRAY_FIELDS
        ),
    }


def prepare(solvers, checks: Checks) -> None:
    """For each ``(system, solve)`` pair, solve every right-hand side
    once, untimed, against its oracle; keeps the results for the block
    checks."""
    for system, solve in solvers:
        system.singles = [solve(b) for b in system.rhs]
        for x, reference in zip(system.singles, system.oracle, strict=True):
            checks.close_to(x, reference)


def backend_solvers(systems: list[System], backend):
    return [(s, partial(backend.solve, s.plan)) for s in systems]


def timed_round(tracer, root: str, layer: str, calls) -> tuple[list, float]:
    """Run ``calls`` back to back inside one ``root`` span, each in a
    ``layer`` span; returns their results and the seconds they took."""
    results = []
    with tracer.span(root):
        t0 = time.perf_counter()
        for call in calls:
            with tracer.span(layer):
                results.append(call())
        elapsed = time.perf_counter() - t0
    return results, elapsed


def block_round(tracer, checks, layer: str, systems, calls) -> float:
    """One timed round of 16-column block solves, ``calls[i]`` solving
    ``systems[i]``'s block; every column is then checked."""
    xs, elapsed = timed_round(tracer, "block_op", layer, calls)
    for system, x_block in zip(systems, xs, strict=True):
        checks.record(system.block_matches(x_block))
    return elapsed


def solve_phase(m: Measured, systems, seconds, tracer, checks, backend,
                part: str) -> None:
    """Measure single-RHS solve rounds and 16-column block rounds over
    ``systems`` into ``m``, scaled by reference part ``part``: the
    dispatch part when per-batch dispatch dominates the solves."""

    def op(i: int) -> float:
        j = i % N_RHS
        xs, elapsed = timed_round(tracer, "op", "exec.solve", [
            partial(backend.solve, s.plan, s.rhs[j]) for s in systems
        ])
        for system, x in zip(systems, xs, strict=True):
            checks.close_to(x, system.oracle[j])
        return elapsed

    def block_op(_: int) -> float:
        return block_round(tracer, checks, "exec.solve_block", systems, [
            partial(backend.solve_block, s.plan, s.block) for s in systems
        ])

    measure(m, seconds, op, block_op, parts=(part, part))


def closed_loop(m: Measured, sim_speedup: float, checks: Checks,
                layers: dict) -> Outcome:
    """The outcome of a workload whose operations ran back to back."""
    return Outcome(m, [op_rate(m.op)], sim_speedup, checks, layers)


# ---------------------------------------------------------------------------
# paper-cold
# ---------------------------------------------------------------------------
@dataclass
class Job:
    """One (matrix, scheduler) pair of the paper's experiment."""

    matrix: str
    scheduler: str
    schedule: object
    exec_matrix: object
    plan: object


def paper_matrices(seed: int, size: float) -> dict:
    """The paper's four matrix families.  Erdős–Rényi, grid and mesh
    have a quarter of the rows of the paper-scale instances, so three
    set-ups fit in one run; narrow-band is cheap to schedule and keeps
    its full 10,000 rows, because smaller instances make its speed-up
    swing with the seed."""
    seeds = [int(s) for s in np.random.default_rng(seed).integers(2**31, size=3)]
    side = np.sqrt(size)
    n_er = int(2_000 * size)
    return {
        "narrow-band": narrow_band_lower(
            int(10_000 * size), 0.05, 20.0, seed=seeds[0]
        ),
        # p = 50 / n keeps the ~50 non-zeros per row of p = 6.25e-3 at 8k
        "erdos-renyi": erdos_renyi_lower(n_er, 50.0 / n_er, seed=seeds[1]),
        "grid": grid_laplacian_2d(
            round(90 * side), round(90 * side)
        ).lower_triangle(),
        "mesh": rcm_mesh(
            round(75 * side), round(150 * side), reach=1,
            lateral_prob=0.3, long_edge_prob=0.03, seed=seeds[2],
        ).lower_triangle(),
    }


def _label(scheduler: str) -> str:
    return scheduler.replace("+", "-")


def paper_setup(matrices: dict, tracer) -> list[Job]:
    """DAG build, schedule, Section 5 reorder, compile and verify for
    every (matrix, scheduler) pair."""
    jobs = []
    for name, lower in matrices.items():
        with tracer.span("graph.dag_build"):
            dag = DAG.from_lower_triangular(lower)
        for scheduler_name in SCHEDULERS:
            scheduler = make_scheduler(scheduler_name)
            with tracer.span(f"scheduler.{_label(scheduler_name)}.schedule"):
                schedule = scheduler.schedule(dag, CORES)
            exec_matrix, exec_schedule = lower, schedule
            if resolve_reorder(scheduler) and (
                scheduler.execution_mode == "bsp"
            ):
                with tracer.span("scheduler.reorder"):
                    perm = schedule_reordering(schedule)
                    exec_matrix = permute_symmetric(lower, perm)
                    exec_schedule = schedule.reorder_vertices(perm)
            with tracer.span("exec.compile"):
                plan = compile_plan(exec_matrix, exec_schedule)
            with tracer.span("analysis.check_plan"):
                check_plan(plan, matrix=exec_matrix, schedule=exec_schedule)
            jobs.append(Job(
                name, scheduler_name, schedule, exec_matrix, plan,
            ))
    return jobs


def paper_speedups(matrices: dict) -> list[float]:
    """Simulated speed-up of every (matrix, scheduler) pair, as the
    experiment runner computes it.  Untimed: it schedules every pair
    once more, through the runner's own plan cache."""
    machine = get_machine(MACHINE)
    cache = PlanCache()
    speedups = []
    for name, lower in matrices.items():
        instance = DatasetInstance(name, lower)
        for scheduler_name in SCHEDULERS:
            speedups.append(run_instance(
                instance, make_scheduler(scheduler_name), machine,
                n_cores=CORES, plan_cache=cache,
            ).speedup)
    return speedups


def paper_cold(seed, seconds, tracer, workdir, size=1.0) -> Outcome:
    compiles_before = compile_count()
    checks = Checks()
    backend = get_backend()
    matrices = paper_matrices(seed, size)
    m = Measured()
    jobs = repeat_setup(m, lambda: paper_setup(matrices, tracer), tracer)
    layers = plan_layers(job.plan for job in jobs)
    # the timed set-ups' compiles; the runner below compiles its own
    layers["exec.compiles"] = compile_count() - compiles_before
    for name in SCHEDULERS:
        layers[f"scheduler.{_label(name)}.supersteps"] = sum(
            job.schedule.n_supersteps for job in jobs
            if job.scheduler == name
        )
    speedups = paper_speedups(matrices)
    rng = np.random.default_rng([seed, 1])
    systems = [make_system(job.plan, job.exec_matrix, rng) for job in jobs]
    prepare(backend_solvers(systems, backend), checks)
    solve_phase(m, systems, seconds, tracer, checks, backend, "dispatch")
    return closed_loop(m, geometric_mean(speedups), checks, layers)


# ---------------------------------------------------------------------------
# solve-chain and solve-wide: one serial plan
# ---------------------------------------------------------------------------
def _serial_plan_workload(matrix, seed, seconds, tracer, setup_part,
                          solve_part) -> Outcome:
    compiles_before = compile_count()
    checks = Checks()
    backend = get_backend()

    def setup():
        with tracer.span("exec.compile"):
            plan = compile_plan(matrix)
        with tracer.span("analysis.check_plan"):
            check_plan(plan, matrix=matrix)
        return plan

    m = Measured()
    plan = repeat_setup(m, setup, tracer, part=setup_part)
    systems = [make_system(plan, matrix, np.random.default_rng([seed, 1]))]
    prepare(backend_solvers(systems, backend), checks)
    solve_phase(m, systems, seconds, tracer, checks, backend, solve_part)
    layers = plan_layers([plan])
    layers["exec.compiles"] = compile_count() - compiles_before
    return closed_loop(m, SERIAL_SPEEDUP, checks, layers)


def solve_chain(seed, seconds, tracer, workdir, size=1.0) -> Outcome:
    matrix = make_deep_narrow(n=int(4_000 * size), seed=seed)
    return _serial_plan_workload(
        matrix, seed, seconds, tracer, "whole", "dispatch"
    )


def solve_wide(seed, seconds, tracer, workdir, size=1.0) -> Outcome:
    # 10,000 rows per batch: at 20,000 the 16-column block arrays reach
    # 20 MB and their solve time swung twice as much between runs
    matrix = make_wide_shallow(
        levels=8, width=int(10_000 * size), seed=seed
    )
    # 8 vectorized batches: no dispatch cost to speak of; compiling and
    # checking them is large-array numpy work throughout
    return _serial_plan_workload(
        matrix, seed, seconds, tracer, "vector", "whole"
    )


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------
_STAT_FIELDS = (
    "n_requests", "n_batches", "total_queue_wait_seconds",
    "total_solve_seconds", "n_admission_rejections", "n_deadline_misses",
)


def _stat_totals(gateway, keys) -> dict[str, float]:
    stats = gateway.stats()
    return {
        name: sum(getattr(stats[key], name) for key in keys)
        for name in _STAT_FIELDS
    }


def _accumulate(total: dict, after: dict, before: dict) -> None:
    for name in total:
        total[name] += after[name] - before[name]


def _traffic(keys, rate: float, duration: float, seed: int):
    config = LoadgenConfig(
        phases=(BurstPhase(rate, duration),), zipf_s=ZIPF_S, seed=seed
    )
    return build_schedule(config, len(keys))


def serve_zipf(seed, seconds, tracer, workdir, size=1.0) -> Outcome:
    compiles_before = compile_count()
    checks = Checks()
    rng = np.random.default_rng(seed)
    keys = pick_balanced_keys(SERVE_KEYS, (SERVE_SHARDS,), prefix="key")
    levels = max(int(64 * size), 2)
    matrices = {
        key: make_wide_shallow(levels=levels, width=100, deps=3, seed=int(s))
        for key, s in zip(keys, rng.integers(2**31, size=len(keys)),
                          strict=True)
    }

    def setup():
        gateway = ServingGateway(SERVE_SHARDS)
        plans = []
        for key, matrix in matrices.items():
            with tracer.span("exec.compile"):
                plan = compile_plan(matrix)
            with tracer.span("analysis.check_plan"):
                check_plan(plan, matrix=matrix)
            with tracer.span("service.register"):
                gateway.register(key, matrix, plan=plan)
            plans.append(plan)
        return gateway, plans

    m = Measured()
    gateway, plans = repeat_setup(
        m, setup, tracer, cleanup=lambda built: built[0].close()
    )
    try:
        systems = {
            key: make_system(None, matrix, rng)
            for key, matrix in matrices.items()
        }
        prepare(
            [(systems[key], partial(gateway.solve, key)) for key in keys],
            checks,
        )
        rhs = {key: system.rhs for key, system in systems.items()}

        def check(key, j, x) -> bool:
            return checks.close_to(x, systems[key].oracle[j])

        def run_phase(name, rate, duration, phase_seed):
            with gc_paused(), tracer.span(name):
                result = run_open_loop(
                    gateway, keys, _traffic(keys, rate, duration, phase_seed),
                    rhs, check, tracer=tracer,
                )
            # wrong answers were counted by check(); count exceptions here
            checks.add(result.n_failed, result.n_failed)
            return result

        # burst rounds take their keys, in order, from Zipf traffic
        bursts = itertools.cycle(np.array_split(
            [slot for _, slot in _traffic(
                keys, OVERLOAD_RPS, 1.0, int(rng.integers(2**31))
            )],
            int(OVERLOAD_RPS) // BURST_REQUESTS,
        ))

        def burst_round(_: int) -> float:
            # the next arrivals of the traffic, submitted at once: queue,
            # head-run coalescing into solve_block, future resolution
            requests = [
                (keys[slot], n % N_RHS)
                for n, slot in enumerate(next(bursts))
            ]
            with tracer.span("block_op"):
                t0 = time.perf_counter()
                futures = []
                for key, j in requests:
                    with tracer.span("service.submit"):
                        futures.append(gateway.submit(key, rhs[key][j]))
                xs = [future.result() for future in futures]
                elapsed = time.perf_counter() - t0
            for (key, j), x in zip(requests, xs, strict=True):
                checks.record(np.array_equal(x, systems[key].singles[j]))
            return elapsed

        phase_seeds = iter(rng.integers(2**31, size=2 * SERVE_SEGMENTS))
        capacities = []
        light_stats = dict.fromkeys(_STAT_FIELDS, 0.0)
        overload_stats = dict.fromkeys(_STAT_FIELDS, 0.0)
        max_lag = 0.0
        # light traffic, an overload burst and burst rounds take turns,
        # so each metric samples the whole run, not one stretch of it
        for _ in range(SERVE_SEGMENTS):
            before = _stat_totals(gateway, keys)
            start = m.reference_point(REFERENCE_REPEATS)
            light = run_phase(
                "serve.light", LIGHT_RPS / slowdown(start, start, "whole"),
                LIGHT_SHARE * seconds / SERVE_SEGMENTS, int(next(phase_seeds)),
            )
            middle = _stat_totals(gateway, keys)
            between = m.reference_point(REFERENCE_REPEATS)
            overload = run_phase(
                "serve.overload", OVERLOAD_RPS,
                OVERLOAD_SHARE * seconds / SERVE_SEGMENTS,
                int(next(phase_seeds)),
            )
            end = m.reference_point(REFERENCE_REPEATS)
            _accumulate(light_stats, middle, before)
            _accumulate(overload_stats, _stat_totals(gateway, keys), middle)
            for latency in light.latencies:
                m.add("op", latency, start, between)
            max_lag = max(max_lag, light.max_lag_s)
            capacities.append(
                overload.n_ok / (overload.last_done - overload.first_due)
                * slowdown(between, end, "whole")
            )
            # burst rounds are the block operation
            measure(m, BURST_SHARE * seconds / SERVE_SEGMENTS, burst_round,
                    op_kind="block")
        totals = _stat_totals(gateway, keys)
    finally:
        gateway.close()

    layers = plan_layers(plans)
    layers.update({
        "exec.compiles": compile_count() - compiles_before,
        "service.queue_wait_s": (
            light_stats["total_queue_wait_seconds"]
            / light_stats["n_requests"]
        ),
        "service.execute_s": (
            overload_stats["total_solve_seconds"]
            / overload_stats["n_batches"]
        ),
        "service.avg_batch": (
            overload_stats["n_requests"] / overload_stats["n_batches"]
        ),
        "service.rejected": totals["n_admission_rejections"],
        "service.deadline_missed": totals["n_deadline_misses"],
        "loadgen.max_lag_s": max_lag,
    })
    valid = max_lag <= MAX_LAG_S
    note = "" if valid else (
        f"load generator ran {max_lag * 1e3:.1f} ms late "
        f"(limit {MAX_LAG_S * 1e3:.0f} ms)"
    )
    return Outcome(
        m, capacities, SERIAL_SPEEDUP, checks, layers, valid, note
    )


# ---------------------------------------------------------------------------
# store-warm
# ---------------------------------------------------------------------------
def store_warm(seed, seconds, tracer, workdir, size=1.0) -> Outcome:
    compiles_before = compile_count()
    checks = Checks()
    backend = get_backend()
    seeds = [int(s) for s in np.random.default_rng(seed).integers(2**31, size=3)]
    shapes = {
        "deep-narrow": make_deep_narrow(n=int(20_000 * size), seed=seeds[0]),
        "wide-shallow": make_wide_shallow(
            levels=6, width=int(4_000 * size), seed=seeds[1]
        ),
        "narrow-band": narrow_band_lower(
            int(10_000 * size), 0.05, 20.0, seed=seeds[2]
        ),
    }
    rejects = 0

    with tempfile.TemporaryDirectory(prefix="store-warm-", dir=workdir) as tmp:

        def setup():
            store = PlanStore(tempfile.mkdtemp(dir=tmp))
            plans = {}
            for name, matrix in shapes.items():
                with tracer.span("exec.compile", key=name):
                    plan = compile_plan(matrix)
                with tracer.span("analysis.check_plan", key=name):
                    check_plan(plan, matrix=matrix)
                with tracer.span("store.save", key=name):
                    store.save(plan, plan_store_key(matrix, None))
                plans[name] = plan
            return store, plans

        m = Measured()
        store, written = repeat_setup(m, setup, tracer)
        reader = PlanStore(store.path, create=False)
        reader_compiles_before = compile_count()
        loaded = {}

        def load_round(_: int) -> float:
            nonlocal rejects
            plans = {}
            with tracer.span("op"):
                t0 = time.perf_counter()
                for name, matrix in shapes.items():
                    with tracer.span("store.load", key=name):
                        try:
                            plans[name] = reader.load(
                                plan_store_key(matrix, None), matrix=matrix
                            )
                        except (PlanArtifactError, PlanVerificationError,
                                OSError):
                            rejects += 1
                elapsed = time.perf_counter() - t0
            for name in shapes:
                checks.record(name in plans and all(
                    np.array_equal(getattr(plans[name], field_name),
                                   getattr(written[name], field_name))
                    for field_name in ARRAY_FIELDS
                ))
            loaded.update(plans)
            return elapsed

        load_round(0)
        rng = np.random.default_rng([seed, 1])
        systems = {
            name: make_system(loaded[name], matrix, rng)
            for name, matrix in shapes.items()
        }
        prepare(backend_solvers(list(systems.values()), backend), checks)

        def loaded_blocks(_: int) -> float:
            return block_round(
                tracer, checks, "exec.solve_block",
                list(systems.values()),
                [partial(backend.solve_block, loaded[name], systems[name].block)
                 for name in shapes],
            )

        # loads are scaled by the whole reference task; the block
        # solves, dominated by the 20,000 one-row batches of the
        # deep-narrow plan, by its dispatch part
        measure(m, seconds, load_round, loaded_blocks,
                parts=("whole", "dispatch"))
        # a warm reader serves every plan from disk: any compile is a fault
        checks.record(compile_count() == reader_compiles_before)
        # the verifier's share of a warm load, timed from outside the store
        for _ in range(3):
            with tracer.span("verify"):
                for name, matrix in shapes.items():
                    with tracer.span("analysis.check_loaded"):
                        check_plan(loaded[name], matrix=matrix,
                                   require_solvable=False)
        store_bytes = reader.stats()["total_bytes"]

    layers = plan_layers(written.values())
    layers.update({
        "exec.compiles": compile_count() - compiles_before,
        "store.bytes": store_bytes,
        "store.rejects": rejects,
    })
    return closed_loop(m, SERIAL_SPEEDUP, checks, layers)


WORKLOADS = {
    "paper-cold": paper_cold,
    "solve-chain": solve_chain,
    "solve-wide": solve_wide,
    "serve-zipf": serve_zipf,
    "store-warm": store_warm,
}
