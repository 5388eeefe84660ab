"""Smoke test of the benchmark: every workload at reduced size.

Sizes are function arguments, not command-line flags, so the benchmark
itself always runs at the sizes ``BENCHMARK.json`` describes.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
import pytest

from bench import ROOT, run
from bench.openloop import run_open_loop
from bench.trace import Tracer, layer_times
from bench.workloads import (
    CORES,
    MACHINE,
    REFERENCE_S,
    SCHEDULERS,
    WORKLOADS,
    Measured,
    end_to_end,
    paper_matrices,
    paper_setup,
)
from repro.exec import PlanCache, get_backend
from repro.experiments.bench import make_wide_shallow
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import compiled_entry, resolve_reorder, run_instance
from repro.machine.model import get_machine
from repro.scheduler.registry import make_scheduler
from repro.service import ServingGateway
from repro.service.loadgen import BurstPhase, LoadgenConfig, build_schedule
from repro.store.plan_store import ARRAY_FIELDS
from repro.utils.stats import geometric_mean

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3
SECONDS = 0.5
SIZES = {
    "paper-cold": 0.1,
    "solve-chain": 0.1,
    "solve-wide": 0.02,
    "serve-zipf": 0.1,
    "store-warm": 0.05,
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = {}
    for name, workload in WORKLOADS.items():
        tracer = Tracer()
        outcome = workload(SEED, SECONDS, tracer,
                           tmp_path_factory.mktemp(name), size=SIZES[name])
        runs[name] = (outcome, tracer)
    return runs


def test_samples_are_scaled_to_the_reference_speed():
    m = Measured()
    slow = {part: 2 * seconds for part, seconds in REFERENCE_S.items()}
    m.add("op", 0.5, REFERENCE_S, slow, "dispatch")
    assert m.op_wall == [0.5]
    assert m.op == [pytest.approx(0.5 / 1.5)]


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_end_to_end_metric(traced_runs, workload):
    outcome, _ = traced_runs[workload]
    measured = end_to_end(outcome)
    listed = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit, _) in measured.items()} == listed
    assert all(value > 0 for value, _, _ in measured.values())
    assert outcome.checks.attempted > 0
    assert outcome.checks.failed == 0  # error_frac == 0


def test_every_per_layer_metric_is_measured(traced_runs):
    measured = set()
    for outcome, tracer in traced_runs.values():
        measured |= set(layer_times(tracer.spans)) | set(outcome.layers)
    listed = {m["name"] for m in BENCHMARK["per_layer"]}
    assert listed <= measured


def test_paper_cold_setup_spans_account_for_setup_time(traced_runs):
    outcome, tracer = traced_runs["paper-cold"]
    layers = layer_times(tracer.spans)
    names = [
        "graph.dag_build_s", "scheduler.reorder_s", "exec.compile_s",
        "analysis.check_plan_s",
        *(f"scheduler.{s.replace('+', '-')}.schedule_s" for s in SCHEDULERS),
    ]
    # spans time the set-ups as they ran, before scaling to the
    # reference speed
    setup_s = statistics.median(outcome.samples.setup_wall)
    assert sum(layers[name] for name in names) == pytest.approx(
        setup_s, rel=0.05
    )


def test_sim_speedup_is_the_experiment_runners(traced_runs):
    outcome, _ = traced_runs["paper-cold"]
    machine = get_machine(MACHINE)
    speedups = [
        run_instance(
            DatasetInstance(name, lower), make_scheduler(scheduler), machine,
            n_cores=CORES,
        ).speedup
        for name, lower in paper_matrices(SEED, SIZES["paper-cold"]).items()
        for scheduler in SCHEDULERS
    ]
    assert outcome.sim_speedup == geometric_mean(speedups)


@pytest.mark.parametrize("scheduler", ["growlocal", "spmp"])
def test_timed_setup_builds_the_plan_the_runner_simulates(scheduler):
    # growlocal is reordered (Section 5), spmp is not
    matrices = paper_matrices(SEED, SIZES["paper-cold"])
    job = next(j for j in paper_setup(matrices, Tracer(enabled=False))
               if j.matrix == "narrow-band" and j.scheduler == scheduler)
    runner_scheduler = make_scheduler(scheduler)
    entry = compiled_entry(
        DatasetInstance("narrow-band", matrices["narrow-band"]),
        runner_scheduler, CORES, resolve_reorder(runner_scheduler),
        PlanCache(),
    )
    for name in ARRAY_FIELDS:
        np.testing.assert_array_equal(
            getattr(job.plan, name), getattr(entry.plan, name)
        )


def test_wrong_results_fail_the_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "WORKDIR", tmp_path / "work")
    backend_type = type(get_backend())
    solve = backend_type.solve

    def perturbed(self, plan, b, *args, **kwargs):
        x = solve(self, plan, b, *args, **kwargs)
        return x * (1.0 + 1e-6)

    monkeypatch.setattr(backend_type, "solve", perturbed)
    code = run.main(["--workload", "solve-chain", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0


class StallingTarget:
    """Forwards submissions, sleeping once before request ``at``."""

    def __init__(self, target, at: int, seconds: float) -> None:
        self.target, self.at, self.seconds = target, at, seconds
        self.calls = 0

    def submit(self, key, b):
        if self.calls == self.at:
            time.sleep(self.seconds)
        self.calls += 1
        return self.target.submit(key, b)


def test_generator_stall_raises_tail_latency():
    keys = ["a", "b"]
    matrix = make_wide_shallow(levels=4, width=50, seed=0)
    rng = np.random.default_rng(0)
    rhs = {key: [rng.standard_normal(matrix.n)] for key in keys}
    schedule = build_schedule(
        LoadgenConfig(phases=(BurstPhase(400.0, 1.0),), seed=1), len(keys)
    )
    with ServingGateway(2) as gateway:
        for key in keys:
            gateway.register(key, matrix)
        runs = [
            run_open_loop(target, keys, schedule, rhs, lambda *_: True)
            for target in (
                gateway,
                StallingTarget(gateway, len(schedule) // 2, 0.1),
            )
        ]
    steady, stalled = (np.percentile(r.latencies, 95) for r in runs)
    assert runs[1].max_lag_s >= 0.09
    assert stalled > steady + 0.02
