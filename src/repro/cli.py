"""Command-line interface.

Exposes the library's main workflows without writing Python::

    python -m repro schedule  --matrix L.mtx --scheduler growlocal \
                              --cores 8 --output sched.json
    python -m repro solve     --matrix L.mtx --output x.npy
    python -m repro simulate  --matrix L.mtx --schedule sched.json \
                              --machine intel_xeon_6238t
    python -m repro compare   --matrix L.mtx --cores 22
    python -m repro suite     --dataset narrow_band --workers 4 \
                              --schedulers growlocal,hdagg
    python -m repro tune      --dataset narrow_band \
                              --machine intel_xeon_6238t \
                              --output profile.json
    python -m repro tune      --dataset narrow_band \
                              --profile profile.json
    python -m repro plans     save --store plans.store --matrix L.mtx
    python -m repro plans     verify --store plans.store --json
    python -m repro generate  --kind erdos_renyi --n 10000 --p 5e-4 \
                              --output L.mtx
    python -m repro serve     --shards 4 --systems 8 --requests 2000
    python -m repro loadgen   --shards 2 --rate 500 --duration 2 \
                              --zipf 1.1 --max-queue 256 --json
    python -m repro datasets  --name suitesparse
    python -m repro machines
    python -m repro obs       report --dir .repro-obs --json
    python -m repro obs       tail --dir .repro-obs -n 20
    python -m repro obs       export --dir .repro-obs

``compare``, ``suite``, ``tune`` and every ``plans`` verb
accept ``--json`` for machine-readable output (consumed by CI smoke
checks and scripting instead of scraping the tables).  The ``plans``
verbs manage a persisted-plan store (:mod:`repro.store.plan_store`):
``save`` compiles and persists an artifact, ``load`` runs the full
integrity gate, ``verify`` audits a whole store, ``gc`` enforces the
LRU byte budget (``docs/plan_store.md``).  ``tune`` writes its
decisions to a tuning profile and warm-starts from one
(``docs/cli.md`` documents every verb).

Matrices are read/written in Matrix Market format; schedules in the JSON
format of :mod:`repro.scheduler.serialize`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from repro.errors import ReproError
from repro.graph.dag import DAG
from repro.graph.wavefront import critical_path_length
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.model import get_machine, list_machines
from repro.machine.serial_sim import simulate_serial
from repro.matrix.io_mm import read_matrix_market, write_matrix_market
from repro.scheduler.registry import available_schedulers, make_scheduler
from repro.scheduler.serialize import (
    load_schedule_json,
    save_schedule_json,
)
from repro.solver.sptrsv import forward_substitution
from repro.utils.timing import Timer

__all__ = ["main", "build_parser"]


def _add_topology_args(p) -> None:
    """Shared ``serve``/``loadgen`` flags describing the gateway."""
    p.add_argument("--shards", type=int, default=2,
                   help="number of SolveService shards (default 2)")
    p.add_argument("--systems", type=int, default=4,
                   help="registered demo systems, named so they "
                        "balance across the shards (default 4)")
    p.add_argument("--matrix", default=None,
                   help="Matrix Market file registered under every "
                        "system key (default: the built-in serving "
                        "corpus)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="largest coalesced micro-batch (default 64)")
    p.add_argument("--max-queue", type=int, default=None,
                   help="per-shard admission bound (default "
                        "unbounded); overflow raises AdmissionError")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds (default "
                        "none); missed deadlines fail with "
                        "DeadlineExceededError")


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Efficient parallel scheduling for sparse triangular solvers "
            "(IPDPS 2025 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="compute a schedule for a matrix")
    p.add_argument("--matrix", required=True, help="Matrix Market file "
                   "(lower triangle is used)")
    p.add_argument("--scheduler", default="growlocal",
                   choices=available_schedulers())
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--output", help="write the schedule as JSON here")

    p = sub.add_parser("solve", help="solve L x = b by forward substitution")
    p.add_argument("--matrix", required=True)
    p.add_argument("--rhs", help="right-hand side as a .npy file "
                   "(default: all ones)")
    p.add_argument("--output", help="write the solution as .npy here")

    p = sub.add_parser("simulate",
                       help="simulate a schedule on a machine model")
    p.add_argument("--matrix", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--machine", default="intel_xeon_6238t",
                   choices=list_machines())

    p = sub.add_parser("compare",
                       help="run all schedulers on one matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--cores", type=int, default=22)
    p.add_argument("--machine", default="intel_xeon_6238t",
                   choices=list_machines())
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of a table")

    p = sub.add_parser(
        "suite",
        help="dataset x scheduler sweep, optionally sharded across "
             "worker processes",
    )
    p.add_argument("--dataset", default="narrow_band",
                   help="dataset name (see 'repro datasets')")
    p.add_argument("--schedulers", default="growlocal,funnel+gl,hdagg",
                   help="comma-separated scheduler names")
    p.add_argument("--machine", default="intel_xeon_6238t",
                   choices=list_machines())
    p.add_argument("--cores", type=int, default=None,
                   help="cores to schedule for (default: machine cores)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes sharding the instances "
                        "(1 = run in-process)")
    p.add_argument("--limit", type=int, default=None,
                   help="only the first K instances of the dataset")
    p.add_argument("--obs-dir", default=None,
                   help="enable observability for this run and drop "
                        "the metrics snapshot + trace JSONL here "
                        "(readable with 'repro obs report --dir ...')")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of a table")

    p = sub.add_parser(
        "tune",
        help="autotune the scheduler per instance; write/read tuning "
             "profiles",
    )
    p.add_argument("--dataset", default="narrow_band",
                   help="dataset name (see 'repro datasets')")
    p.add_argument("--machine", default="intel_xeon_6238t",
                   choices=list_machines())
    p.add_argument("--cores", type=int, default=None,
                   help="cores to tune for (default: machine cores)")
    p.add_argument("--schedulers", default=None,
                   help="comma-separated candidate pool (default: "
                        "growlocal,funnel+gl,hdagg,wavefront; the "
                        "serial baseline is always ranked)")
    p.add_argument("--limit", type=int, default=None,
                   help="only the first K instances of the dataset")
    p.add_argument("--expected-solves", type=float, default=1000.0,
                   help="solves expected to reuse each decision "
                        "(weights scheduling cost, Eq. 7.1; > 0, "
                        "inf for per-solve speed only)")
    p.add_argument("--profile",
                   help="warm-start from this profile JSON (entries "
                        "with matching features skip ranking); cold "
                        "runs record their decisions and the updated "
                        "profile is written back here unless --output "
                        "says otherwise")
    p.add_argument("--output",
                   help="write the updated profile JSON here "
                        "(default: the --profile path when given)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of a table")

    p = sub.add_parser(
        "plans",
        help="persisted execution plans: save, load, ls, gc, verify "
             "(a PlanStore directory)",
    )
    plans_sub = p.add_subparsers(dest="plans_command", required=True)

    def _plans_system_args(pp) -> None:
        pp.add_argument("--matrix", required=True,
                        help="Matrix Market file (lower triangle is "
                             "used)")

    pp = plans_sub.add_parser(
        "save",
        help="compile a plan and persist it as a store artifact "
             "(first writer wins; already-present keys are a no-op)",
    )
    pp.add_argument("--store", required=True,
                    help="plan-store directory (created if missing)")
    _plans_system_args(pp)
    pp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of a summary "
                         "line")

    pp = plans_sub.add_parser(
        "load",
        help="load a persisted plan through the full integrity gate "
             "(exit 0 on a verified hit, 1 on miss/rejection)",
    )
    pp.add_argument("--store", required=True,
                    help="plan-store directory")
    _plans_system_args(pp)
    pp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of a summary "
                         "line")

    pp = plans_sub.add_parser(
        "ls", help="list the store's artifacts (key, size, toolchain)"
    )
    pp.add_argument("--store", required=True,
                    help="plan-store directory")
    pp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of a table")

    pp = plans_sub.add_parser(
        "gc",
        help="evict least-recently-used artifacts beyond the byte "
             "budget and clear leftover writer locks",
    )
    pp.add_argument("--store", required=True,
                    help="plan-store directory")
    pp.add_argument("--max-bytes", type=int, default=None,
                    help="byte budget (default: the store's "
                         "REPRO_PLAN_STORE_MAX_BYTES bound)")
    pp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of a summary "
                         "line")

    pp = plans_sub.add_parser(
        "verify",
        help="run the full load gate over every artifact; exit 1 when "
             "any artifact is flagged",
    )
    pp.add_argument("--store", required=True,
                    help="plan-store directory")
    pp.add_argument("--json", action="store_true",
                    help="machine-readable JSON report (what CI "
                         "archives)")

    p = sub.add_parser("generate", help="generate a test matrix")
    p.add_argument("--kind", required=True,
                   choices=["erdos_renyi", "narrow_band", "grid2d",
                            "rcm_mesh"])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--p", type=float, default=1e-3)
    p.add_argument("--band", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("datasets", help="show dataset statistics")
    p.add_argument("--name", default="narrow_band")

    sub.add_parser("machines", help="list machine presets")

    p = sub.add_parser(
        "serve",
        help="bring up a sharded serving gateway over a demo corpus "
             "and drain an interleaved backlog through it",
    )
    _add_topology_args(p)
    p.add_argument("--requests", type=int, default=1_000,
                   help="backlog size drained round-robin across the "
                        "registered systems (default 1000)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of tables")

    p = sub.add_parser(
        "loadgen",
        help="open-loop traffic (Poisson arrivals, Zipf skew, burst "
             "phases) against a sharded gateway; reports p50/p90/p99",
    )
    _add_topology_args(p)
    p.add_argument("--rate", type=float, default=500.0,
                   help="baseline arrival rate in requests/s "
                        "(default 500)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="baseline phase length in seconds (default 2)")
    p.add_argument("--burst-rate", type=float, default=None,
                   help="optional burst-phase arrival rate (rps)")
    p.add_argument("--burst-duration", type=float, default=0.5,
                   help="burst phase length in seconds (default 0.5)")
    p.add_argument("--zipf", type=float, default=1.0,
                   help="hot-key skew exponent (0 = uniform; "
                        "default 1.0)")
    p.add_argument("--seed", type=int, default=0,
                   help="schedule seed (arrivals + key choices)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of tables")

    p = sub.add_parser(
        "obs",
        help="observability: percentile reports, trace tails and "
             "Prometheus export over a flushed obs directory",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    po = obs_sub.add_parser(
        "report",
        help="per-system latency/batch percentiles plus counters from "
             "a flushed metrics snapshot",
    )
    po.add_argument("--dir", default=None,
                    help="obs directory (default: $REPRO_OBS_DIR or "
                         ".repro-obs)")
    po.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of tables")

    po = obs_sub.add_parser(
        "tail", help="print the most recent trace events"
    )
    po.add_argument("--dir", default=None,
                    help="obs directory (default: $REPRO_OBS_DIR or "
                         ".repro-obs)")
    po.add_argument("-n", "--count", type=int, default=20,
                    help="events to show (default 20)")
    po.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of lines")

    po = obs_sub.add_parser(
        "export",
        help="Prometheus text exposition of the metrics snapshot",
    )
    po.add_argument("--dir", default=None,
                    help="obs directory (default: $REPRO_OBS_DIR or "
                         ".repro-obs)")
    po.add_argument("--output", default=None,
                    help="write the exposition text here instead of "
                         "stdout")
    po.add_argument("--json", action="store_true",
                    help="raw snapshot JSON instead of Prometheus text")

    p = sub.add_parser(
        "check",
        help="static analysis: lint repo invariants, verify plans",
    )
    p.add_argument("target", choices=["source", "plan", "all"],
                   help="source = AST lint of the library tree; plan = "
                        "static ExecutionPlan verification; all = both")
    p.add_argument("--path", action="append", default=None,
                   help="lint this file/directory instead of the "
                        "installed repro package (repeatable)")
    p.add_argument("--matrix", default=None,
                   help="verify the plan compiled from this .mtx file "
                        "instead of the built-in corpus")
    p.add_argument("--rules", action="store_true",
                   help="print the lint rule catalogue and exit")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON report (what CI archives)")

    return parser


def _load_lower(path: str):
    matrix = read_matrix_market(path)
    return matrix.lower_triangle()


def _cmd_schedule(args) -> int:
    lower = _load_lower(args.matrix)
    dag = DAG.from_lower_triangular(lower)
    scheduler = make_scheduler(args.scheduler)
    with Timer() as t:
        schedule = scheduler.schedule(dag, args.cores)
    schedule.validate(dag)
    wavefronts = critical_path_length(dag)
    print(f"matrix: n={lower.n}, nnz={lower.nnz}, "
          f"wavefronts={wavefronts}")
    print(f"schedule ({args.scheduler}, {args.cores} cores): "
          f"{schedule.n_supersteps} supersteps "
          f"({wavefronts / max(schedule.n_supersteps, 1):.2f}x barrier "
          f"reduction) in {t.elapsed:.3f}s")
    if args.output:
        save_schedule_json(schedule, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_solve(args) -> int:
    lower = _load_lower(args.matrix)
    b = (np.load(args.rhs) if args.rhs else np.ones(lower.n))
    x = forward_substitution(lower, b)
    residual = float(np.linalg.norm(lower.matvec(x) - b))
    print(f"solved: ||L x - b|| = {residual:.3e}")
    if args.output:
        np.save(args.output, x)
        print(f"wrote {args.output}")
    return 0


def _cmd_simulate(args) -> int:
    lower = _load_lower(args.matrix)
    schedule = load_schedule_json(args.schedule)
    # the simulator prices what it is given: a racing schedule would
    # read as a speed-up no valid schedule reaches
    schedule.validate(DAG.from_lower_triangular(lower))
    machine = get_machine(args.machine)
    sim = simulate_bsp(lower, schedule, machine)
    serial = simulate_serial(lower, machine)
    print(f"machine: {machine.name} ({schedule.n_cores} cores used)")
    print(f"serial:   {serial:.0f} cycles")
    print(f"parallel: {sim.total_cycles:.0f} cycles "
          f"(compute {sim.compute_cycles:.0f}, "
          f"barriers {sim.barrier_cycles:.0f})")
    print(f"speed-up: {serial / sim.total_cycles:.2f}x")
    return 0


def _json_sanitize(value):
    """Strict-JSON view of a result payload: non-finite floats (an
    infinite amortization) become null, containers recurse."""
    if isinstance(value, dict):
        return {k: _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@contextmanager
def _obs_dir_scope(obs_dir: str | None):
    """Force the ``REPRO_OBS`` gate on for one CLI run (``--obs-dir``)
    and flush the metrics snapshot + trace into ``obs_dir`` afterwards.

    The gate is forced through the *environment* rather than
    :func:`repro.obs_gate.set_enabled`, so parallel-suite worker
    processes inherit it and contribute per-shard registries.  The
    previous environment value is always restored.
    """
    if not obs_dir:
        yield
        return
    from repro.obs_gate import OBS_ENV_VAR, get_obs

    previous = os.environ.get(OBS_ENV_VAR)
    os.environ[OBS_ENV_VAR] = "1"
    try:
        yield
        get_obs().flush(obs_dir)
    finally:
        if previous is None:
            os.environ.pop(OBS_ENV_VAR, None)
        else:
            os.environ[OBS_ENV_VAR] = previous


def _cmd_compare(args) -> int:
    from repro.experiments.datasets import DatasetInstance
    from repro.experiments.runner import run_instance
    from repro.experiments.tables import format_table

    lower = _load_lower(args.matrix)
    inst = DatasetInstance(args.matrix, lower)
    machine = get_machine(args.machine)
    rows = []
    results = []
    for name in available_schedulers():
        if name in ("serial", "auto"):
            # serial is the speed-up baseline; "auto" delegates to the
            # schedulers already in this comparison
            continue
        r = run_instance(inst, make_scheduler(name), machine,
                         n_cores=args.cores)
        results.append(r)
        rows.append([name, r.n_supersteps, f"{r.speedup:.2f}x",
                     f"{r.scheduling_seconds:.3f}s"])
    if args.json:
        print(json.dumps(_json_sanitize({
            "matrix": args.matrix,
            "machine": machine.name,
            "n": inst.n,
            "nnz": inst.nnz,
            "avg_wavefront": inst.avg_wavefront,
            "results": [r.as_row() for r in results],
        }), indent=2))
        return 0
    print(format_table(
        ["scheduler", "supersteps", "speed-up", "sched time"], rows,
        title=f"{args.matrix}: n={inst.n}, nnz={inst.nnz}, "
              f"avg wf={inst.avg_wavefront:.0f}",
    ))
    return 0


def _cmd_suite(args) -> int:
    from repro.errors import ConfigurationError
    from repro.experiments.datasets import build_dataset
    from repro.experiments.parallel import run_suite_parallel
    from repro.experiments.runner import geomean_speedups
    from repro.experiments.tables import format_table
    from repro.utils.stats import geometric_mean

    instances = list(build_dataset(args.dataset))
    if args.limit is not None:
        instances = instances[: args.limit]
    if not instances:
        raise ConfigurationError(f"dataset {args.dataset!r} is empty")
    names = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    unknown = sorted(set(names) - set(available_schedulers()))
    if unknown:
        raise ConfigurationError(
            f"unknown schedulers {unknown}; available: "
            f"{available_schedulers()}"
        )
    schedulers = {name: make_scheduler(name) for name in names}
    machine = get_machine(args.machine)

    with _obs_dir_scope(args.obs_dir), Timer() as t:
        results = run_suite_parallel(
            instances, schedulers, machine,
            n_cores=args.cores, workers=args.workers,
        )

    geo = geomean_speedups(results)
    if args.json:
        print(json.dumps(_json_sanitize({
            "dataset": args.dataset,
            "machine": machine.name,
            "workers": args.workers,
            "n_instances": len(instances),
            "wall_seconds": t.elapsed,
            "geomean_speedup": geo,
            "results": {
                name: [r.as_row() for r in rs]
                for name, rs in results.items()
            },
        }), indent=2))
        return 0
    rows = []
    for name in names:
        rs = results[name]
        # amortization is inf where the parallel execution is not faster
        # than serial; the geomean is taken over the finite entries only
        finite = [r.amortization for r in rs
                  if 0 < r.amortization < float("inf")]
        rows.append([
            name,
            f"{geo[name]:.2f}x",
            f"{geometric_mean([max(r.n_supersteps, 1) for r in rs]):.0f}",
            f"{sum(r.scheduling_seconds for r in rs):.3f}s",
            f"{geometric_mean(finite):.0f}" if finite else "-",
        ])
    any_result = results[names[0]][0]
    print(format_table(
        ["scheduler", "geomean speed-up", "geo supersteps",
         "sched time", "geo amortization"],
        rows,
        title=f"suite: {args.dataset} ({len(instances)} instances, "
              f"{machine.name}, {args.workers} worker(s))",
    ))
    print(f"wall time {t.elapsed:.2f}s; plan cache: "
          f"{any_result.plan_cache_hits} hits, "
          f"{any_result.plan_cache_misses} misses across all workers")
    return 0


def _cmd_tune(args) -> int:
    from repro.errors import ConfigurationError
    from repro.exec import PlanCache
    from repro.experiments.datasets import build_dataset
    from repro.experiments.tables import format_table
    from repro.tuner import (
        Autotuner,
        TuningProfile,
        load_profile,
        save_profile,
    )

    instances = list(build_dataset(args.dataset))
    if args.limit is not None:
        instances = instances[: args.limit]
    if not instances:
        raise ConfigurationError(f"dataset {args.dataset!r} is empty")
    machine = get_machine(args.machine)

    candidates = None
    if args.schedulers:
        candidates = [s.strip() for s in args.schedulers.split(",")
                      if s.strip()]
        allowed = set(available_schedulers()) - {"auto"}
        unknown = sorted(set(candidates) - allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown/ineligible candidate schedulers {unknown}; "
                f"available: {sorted(allowed)}"
            )

    tuner = Autotuner(candidates=candidates,
                      expected_solves=args.expected_solves)
    profile = (load_profile(args.profile) if args.profile
               else TuningProfile(machine=machine.name))
    cache = PlanCache()
    with Timer() as t:
        decisions = [
            tuner.tune(inst, machine, n_cores=args.cores,
                       plan_cache=cache, profile=profile)
            for inst in instances
        ]
    # without an explicit --output the updated profile is written back
    # to --profile
    profile_out = args.output or args.profile
    if profile_out:
        save_profile(profile, profile_out)

    warm = sum(1 for d in decisions if d.source == "profile")
    if args.json:
        payload = {
            "dataset": args.dataset,
            "machine": machine.name,
            "wall_seconds": t.elapsed,
            "warm_starts": warm,
            "decisions": [d.as_dict() for d in decisions],
        }
        print(json.dumps(_json_sanitize(payload), indent=2))
        return 0

    rows = [
        [d.instance, d.scheduler, d.backend,
         f"{d.predicted_speedup:.2f}x",
         "-" if not math.isfinite(d.amortization)
         else f"{d.amortization:.0f}",
         d.source]
        for d in decisions
    ]
    print(format_table(
        ["instance", "scheduler", "backend",
         "pred speed-up", "amortization", "source"],
        rows,
        title=f"tune: {args.dataset} ({len(instances)} instances, "
              f"{machine.name})",
    ))
    print(f"wall time {t.elapsed:.2f}s; {warm} warm start(s) from profile")
    if profile_out:
        print(f"wrote {profile_out}")
    return 0


def _cmd_plans(args) -> int:
    from repro.errors import ConfigurationError
    from repro.store import PlanStore, plan_store_key

    if args.plans_command == "save":
        from repro.exec import compile_plan

        lower = _load_lower(args.matrix)
        store = PlanStore(args.store)
        key = plan_store_key(lower)
        plan = compile_plan(lower, check_diagonal=False)
        path = store.save(plan, key)
        payload = {
            "store": store.path,
            "key": key.as_dict(),
            "stem": key.stem(),
            "saved": path is not None,
            "artifact": path,
            "n": plan.n,
        }
        if args.json:
            print(json.dumps(_json_sanitize(payload), indent=2))
        elif store.save_races:
            print(f"plan {key.stem()} already persisted in {store.path}")
        elif path is None:
            print(f"plan {key.stem()} not kept: evicted by the byte "
                  f"budget of {store.path} ({store.max_bytes} bytes)")
        else:
            print(f"saved plan {key.stem()} (n={plan.n}) to {path}")
        return 0

    if args.plans_command == "load":
        lower = _load_lower(args.matrix)
        store = PlanStore(args.store, create=False)
        key = plan_store_key(lower)
        plan = store.get(key, matrix=lower)
        payload = {
            "store": store.path,
            "key": key.as_dict(),
            "stem": key.stem(),
            "hit": plan is not None,
            "rejected": store.rejects > 0,
            "reject_reason": store.last_reject,
            "n": plan.n if plan is not None else None,
            "provenance": plan.provenance if plan is not None else None,
        }
        if args.json:
            print(json.dumps(_json_sanitize(payload), indent=2))
        elif plan is not None:
            print(f"loaded plan {key.stem()} (n={plan.n}, verified) "
                  f"from {store.path}")
        elif store.last_reject:
            print(f"plan {key.stem()} rejected: {store.last_reject}")
        else:
            print(f"no plan artifact {key.stem()} in {store.path}")
        return 0 if plan is not None else 1

    if args.plans_command == "ls":
        store = PlanStore(args.store, create=False)
        rows = store.ls()
        if args.json:
            print(json.dumps(_json_sanitize(
                {"store": store.path, "artifacts": rows}
            ), indent=2))
            return 0
        from repro.experiments.tables import format_table

        print(format_table(
            ["stem", "n", "direction", "dtype", "bytes"],
            [
                [
                    row["stem"], row["n"],
                    (row["key"] or {}).get("direction", "-"),
                    (row["key"] or {}).get("dtype", "-"),
                    row["bytes"],
                ]
                for row in rows
            ],
            title=f"plan store: {store.path} ({len(rows)} artifact(s))",
        ))
        return 0

    if args.plans_command == "gc":
        store = PlanStore(args.store, create=False)
        result = store.gc(args.max_bytes)
        if args.json:
            print(json.dumps(_json_sanitize(result), indent=2))
        else:
            print(f"gc {store.path}: {result['bytes_before']} -> "
                  f"{result['bytes_after']} byte(s), "
                  f"{len(result['removed'])} artifact(s) evicted")
        return 0

    if args.plans_command == "verify":
        store = PlanStore(args.store, create=False)
        report = store.verify()
        if args.json:
            print(json.dumps(_json_sanitize(report), indent=2))
        else:
            for verdict in report["artifacts"]:
                status = ("ok" if verdict["ok"]
                          else f"BAD ({verdict['error_type']}: "
                               f"{verdict['error']})")
                print(f"{verdict['stem']}: {status}")
            print(f"{report['n_artifacts']} artifact(s), "
                  f"{report['n_bad']} flagged")
        return 0 if report["ok"] else 1

    raise ConfigurationError(
        f"unknown plans command {args.plans_command!r}"
    )


def _cmd_generate(args) -> int:
    from repro.matrix.generators import (
        erdos_renyi_lower,
        grid_laplacian_2d,
        narrow_band_lower,
        rcm_mesh,
    )

    if args.kind == "erdos_renyi":
        matrix = erdos_renyi_lower(args.n, args.p, seed=args.seed)
    elif args.kind == "narrow_band":
        matrix = narrow_band_lower(args.n, args.p, args.band,
                                   seed=args.seed)
    elif args.kind == "grid2d":
        side = max(int(round(args.n ** 0.5)), 1)
        matrix = grid_laplacian_2d(side, side)
    else:  # rcm_mesh
        width = max(int(round(args.n ** 0.5)), 1)
        levels = max(args.n // width, 1)
        matrix = rcm_mesh(levels, width, reach=1, lateral_prob=0.3,
                          seed=args.seed)
    write_matrix_market(matrix, args.output,
                        comment=f"generated: {args.kind}")
    print(f"wrote {args.output}: n={matrix.n}, nnz={matrix.nnz}")
    return 0


def _cmd_datasets(args) -> int:
    from repro.experiments.datasets import dataset_statistics
    from repro.experiments.tables import format_table

    stats = dataset_statistics(args.name)
    rows = [[s["matrix"], s["size"], s["nnz"], s["avg_wavefront"]]
            for s in stats]
    print(format_table(["matrix", "size", "#non-zeros", "avg wf"], rows,
                       title=f"dataset: {args.name}"))
    return 0


def _cmd_machines(_args) -> int:
    for name in list_machines():
        m = get_machine(name)
        print(f"{name}: {m.n_cores} cores, barrier {m.barrier_latency:.0f} "
              f"cycles, miss {m.miss_penalty:.0f} cycles, "
              f"{m.clock_ghz} GHz")
    return 0


def _serving_target(args):
    """Build the gateway + demo corpus behind ``serve``/``loadgen``.

    Returns ``(gateway, keys, rhs)``: an open
    :class:`~repro.service.ServingGateway` with ``args.systems``
    registered systems whose keys balance across ``args.shards``
    shards, and a seeded RHS per key.  The caller owns ``close()``.
    """
    from repro.errors import ConfigurationError
    from repro.experiments.bench import _serving_corpus
    from repro.service import ServingGateway, pick_balanced_keys

    if args.shards < 1:
        raise ConfigurationError(
            f"--shards must be >= 1, got {args.shards}"
        )
    if args.systems < 1:
        raise ConfigurationError(
            f"--systems must be >= 1, got {args.systems}"
        )
    matrix = (
        _load_lower(args.matrix)
        if args.matrix
        else _serving_corpus(smoke=True)
    )
    keys = pick_balanced_keys(args.systems, args.shards)
    rng = np.random.default_rng(17)
    rhs = {key: rng.standard_normal(matrix.n) for key in keys}
    gateway = ServingGateway(
        args.shards,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
    )
    try:
        for key in keys:
            gateway.register(key, matrix)
    except BaseException:
        gateway.close(wait=False)
        raise
    return gateway, keys, rhs


def _cmd_serve(args) -> int:
    """``repro serve``: stand up a topology and drain a backlog."""
    from repro.experiments.tables import format_table
    from repro.service.loadgen import saturation_throughput

    gateway, keys, rhs = _serving_target(args)
    try:
        result = saturation_throughput(
            gateway, keys, rhs, args.requests
        )
        shard_stats = gateway.shard_stats()
    finally:
        gateway.close()

    payload = {
        "n_shards": args.shards,
        "n_systems": len(keys),
        "throughput_rps": result["throughput_rps"],
        "elapsed_s": result["elapsed_s"],
        "n_requests": int(result["n_requests"]),
        "shards": [
            {str(key): stats.as_row() for key, stats in per_shard.items()}
            for per_shard in shard_stats
        ],
    }
    if args.json:
        print(json.dumps(_json_sanitize(payload), indent=2))
        return 0
    rows = []
    for shard, per_shard in enumerate(shard_stats):
        for key, stats in sorted(
            per_shard.items(), key=lambda item: str(item[0])
        ):
            rows.append([
                shard, key, stats.n_requests,
                f"{stats.avg_batch_size:.1f}",
                f"{stats.avg_latency_seconds * 1e3:.3f}",
                f"{stats.avg_queue_wait_seconds * 1e3:.3f}",
            ])
    print(format_table(
        ["shard", "system", "requests", "avg batch", "avg lat ms",
         "avg wait ms"],
        rows,
        title=f"serve: {args.shards} shard(s), "
              f"{payload['throughput_rps']:.0f} req/s sustained",
    ))
    return 0


def _cmd_loadgen(args) -> int:
    """``repro loadgen``: open-loop traffic against a gateway."""
    from repro.service.loadgen import (
        BurstPhase,
        LoadgenConfig,
        run_loadgen,
    )

    phases = [BurstPhase(args.rate, args.duration)]
    if args.burst_rate is not None:
        phases.append(BurstPhase(args.burst_rate, args.burst_duration))
    config = LoadgenConfig(
        phases=tuple(phases),
        zipf_s=args.zipf,
        seed=args.seed,
        timeout_s=args.timeout,
    )
    gateway, keys, rhs = _serving_target(args)
    try:
        report = run_loadgen(gateway, keys, rhs, config)
    finally:
        gateway.close()

    payload = report.as_dict()
    payload["n_shards"] = args.shards
    payload["n_systems"] = len(keys)
    if args.json:
        print(json.dumps(_json_sanitize(payload), indent=2))
        return 0
    print(f"loadgen: {args.shards} shard(s), {len(keys)} system(s), "
          f"zipf_s={args.zipf:g}, offered "
          f"{report.offered_rate_rps:.0f} req/s for "
          f"{report.duration_s:.2f}s")
    print(f"  requests: {report.n_requests} "
          f"(ok {report.n_ok}, rejected {report.n_admission_rejected}, "
          f"deadline-missed {report.n_deadline_missed}, "
          f"failed {report.n_failed})")
    print(f"  achieved: {report.achieved_rps:.0f} req/s")
    print(f"  latency:  p50 {report.latency_p50_s * 1e3:.3f}ms  "
          f"p90 {report.latency_p90_s * 1e3:.3f}ms  "
          f"p99 {report.latency_p99_s * 1e3:.3f}ms")
    print(f"  breakdown: queue-wait {report.total_queue_wait_s:.3f}s, "
          f"execute {report.total_execute_s:.3f}s")
    print(f"  balance:  per-shard completed {report.per_shard_requests}")
    if report.max_schedule_slip_s > 0:
        print(f"  schedule slip: up to "
              f"{report.max_schedule_slip_s * 1e3:.3f}ms behind "
              "the open-loop arrival plan")
    return 0


def _cmd_obs(args) -> int:
    """``repro obs report|tail|export``: read a flushed obs directory.

    Reading never requires the ``REPRO_OBS`` gate — the gate controls
    *instrumentation*; these verbs only load the ``metrics.json`` /
    ``trace.jsonl`` artifacts a gated run flushed.
    """
    from repro.experiments.tables import format_table
    from repro.obs import default_dir
    from repro.obs.export import load_dir, prometheus_text, report
    from repro.utils.atomic import atomic_write_text

    directory = args.dir if args.dir is not None else default_dir()
    snapshot, events = load_dir(directory)

    if args.obs_command == "report":
        payload = report(snapshot, events)
        if args.json:
            print(json.dumps(_json_sanitize(payload), indent=2))
            return 0
        rows = []
        for system, sections in sorted(payload["systems"].items()):
            latency = sections.get("latency", {})
            batch = sections.get("batch", {})

            def fmt(value, scale=1.0):
                return ("-" if value is None
                        else f"{float(value) * scale:.3f}")

            rows.append([
                system,
                latency.get("count", 0),
                fmt(latency.get("p50"), 1e3),
                fmt(latency.get("p95"), 1e3),
                fmt(latency.get("p99"), 1e3),
                fmt(batch.get("p50")),
                fmt(batch.get("p99")),
            ])
        print(format_table(
            ["system", "requests", "lat p50 ms", "lat p95 ms",
             "lat p99 ms", "batch p50", "batch p99"],
            rows,
            title=f"obs report ({directory})",
        ))
        for key, value in sorted(payload["counters"].items()):
            print(f"counter {key} = {value:g}")
        trace = payload.get("trace")
        if trace:
            print(f"trace: {trace['events']} event(s)")
        return 0

    if args.obs_command == "tail":
        tail = events[-max(int(args.count), 0):]
        if args.json:
            print(json.dumps(_json_sanitize(tail), indent=2))
            return 0
        for event in tail:
            tags = ",".join(
                f"{k}={v}" for k, v in sorted(event["tags"].items())
            )
            print(f"{event['ts']:.6f} {event['name']} "
                  f"span={event['span_id']} "
                  f"parent={event['parent_id']} "
                  f"dur={event['dur_s'] * 1e3:.3f}ms "
                  f"status={event['status']}"
                  + (f" {tags}" if tags else ""))
        return 0

    # export
    if args.json:
        print(json.dumps(_json_sanitize(snapshot), indent=2))
        return 0
    text = prometheus_text(snapshot)
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote {args.output}")
        return 0
    print(text, end="")
    return 0


def _cmd_check(args) -> int:
    """``repro check source|plan|all``: the static-analysis gate.

    Exit 0 iff every requested half is clean; 1 on findings/violations
    (typed errors still exit 2 via ``main``).
    """
    from repro.analysis import check_all, check_plans, check_source
    from repro.analysis.lint import rule_catalogue
    from repro.experiments.tables import format_table

    if args.rules:
        catalogue = rule_catalogue()
        if args.json:
            print(json.dumps(_json_sanitize(catalogue), indent=2))
        else:
            print(format_table(
                ["id", "severity", "autofix", "description"],
                [[r["id"], r["severity"],
                  "yes" if r["autofixable"] else "no",
                  r["description"][:60]] for r in catalogue],
                title="lint rules",
            ))
        return 0

    if args.target == "source":
        payload = check_source(args.path)
    elif args.target == "plan":
        payload = check_plans(args.matrix)
    else:
        payload = check_all(args.path, args.matrix)

    if args.json:
        print(json.dumps(_json_sanitize(payload), indent=2))
    else:
        _print_check_report(args.target, payload)
    return 0 if payload["ok"] else 1


def _print_check_report(target: str, payload: dict) -> None:
    from repro.experiments.tables import format_table

    if target == "all":
        halves = [("source", payload["source"]), ("plan", payload["plan"])]
    else:
        halves = [(target, payload)]
    for name, half in halves:
        if name == "source":
            for finding in half["findings"]:
                print(f"{finding['path']}:{finding['line']}:"
                      f"{finding['col']}: [{finding['rule']}] "
                      f"{finding['message']}")
            verdict = "clean" if half["ok"] else (
                f"{half['n_findings']} finding(s)"
            )
            print(f"source: {verdict} "
                  f"({len(half['rules'])} rules)")
        else:
            rows = []
            for plan in half["plans"]:
                broken = sorted({
                    v["invariant"] for v in plan["violations"]
                })
                rows.append([
                    plan["plan"], plan["n"], plan["n_batches"],
                    "ok" if plan["ok"] else ", ".join(broken),
                ])
            print(format_table(
                ["plan", "n", "batches", "verdict"], rows,
                title="plan verification",
            ))
            verdict = "clean" if half["ok"] else "VIOLATIONS"
            print(f"plan: {verdict} ({half['n_plans']} plan(s), "
                  f"{len(half['invariants'])} invariants)")


_COMMANDS = {
    "schedule": _cmd_schedule,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "suite": _cmd_suite,
    "tune": _cmd_tune,
    "plans": _cmd_plans,
    "generate": _cmd_generate,
    "datasets": _cmd_datasets,
    "machines": _cmd_machines,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "obs": _cmd_obs,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
