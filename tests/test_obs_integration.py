"""End-to-end observability tests across the gate, service and CLI.

The acceptance criteria of the telemetry layer:

* with ``REPRO_OBS`` **off**, ``import repro`` plus a full solve never
  imports :mod:`repro.obs` (checked in a subprocess) and
  ``SystemStats.as_row()`` keeps its pre-obs shape bit-compatible;
* with the gate **on**, a service run yields non-trivial per-system
  p50/p99 latency and batch percentiles, visible in ``stats()``, the
  flushed snapshot and ``repro obs report``;
* two suite shards recorded through scoped registries merge into the
  same snapshot as one registry observing everything;
* the ``repro obs report|tail|export`` verbs round-trip a flushed
  capture directory.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.matrix.generators import narrow_band_lower
from repro.obs_gate import get_obs, obs_enabled, set_enabled
from repro.service import SolveService


@pytest.fixture
def obs_on():
    """Force the gate on with a fresh registry/tracer; restore after."""
    set_enabled(True)
    obs = get_obs()
    obs.reset()
    try:
        yield obs
    finally:
        obs.reset()
        set_enabled(None)


@pytest.fixture(scope="module")
def lower():
    return narrow_band_lower(300, 0.08, 10.0, seed=0)


def run_service(lower, n_requests=32):
    rng = np.random.default_rng(7)
    bs = [rng.standard_normal(lower.n) for _ in range(n_requests)]
    with SolveService(max_batch=8) as service:
        service.register("sys", lower)
        futures = service.submit_many("sys", bs)
        for f in futures:
            f.result(timeout=30)
        stats = service.stats("sys")
    return stats


class TestGateOff:
    def test_disabled_path_never_imports_obs(self):
        """Hard zero-overhead contract: a gate-off process that imports
        the library and runs a full solve must not load repro.obs."""
        code = (
            "import os, sys\n"
            "os.environ.pop('REPRO_OBS', None)\n"
            "import numpy as np\n"
            "from repro.exec import compile_plan, get_backend\n"
            "from repro.matrix.generators import narrow_band_lower\n"
            "m = narrow_band_lower(200, 0.05, 10.0, seed=0)\n"
            "plan = compile_plan(m)\n"
            "get_backend().solve(plan, np.ones(m.n))\n"
            "assert 'repro.obs' not in sys.modules, 'obs imported!'\n"
            "print('CLEAN')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN" in proc.stdout

    def test_stats_row_shape_unchanged(self, lower):
        set_enabled(False)
        try:
            stats = run_service(lower, n_requests=8)
        finally:
            set_enabled(None)
        # gate off: the counters and derived rates only, none of the
        # six percentile keys
        assert set(stats.as_row()) == {
            "key", "n_rows", "requests", "batches", "avg_batch",
            "max_batch", "avg_latency_s", "avg_queue_wait_s",
            "throughput_rps", "deadline_misses", "admission_rejections",
            "backend", "plan_source",
        }
        # the cheap queue-wait counter stays populated gate-off
        assert stats.total_queue_wait_seconds > 0.0


class TestGateOn:
    def test_service_yields_nontrivial_percentiles(self, obs_on, lower):
        stats = run_service(lower)
        assert stats.latency_p50_s is not None
        assert stats.latency_p50_s > 0.0
        assert stats.latency_p99_s >= stats.latency_p50_s
        assert stats.batch_p50 >= 1.0
        assert stats.batch_p99 >= stats.batch_p50
        row = stats.as_row()
        assert row["latency_p50_s"] == stats.latency_p50_s
        assert row["batch_p99"] == stats.batch_p99
        # queue-wait percentiles ride the same gate
        assert stats.queue_wait_p50_s is not None
        assert stats.queue_wait_p99_s >= stats.queue_wait_p50_s
        assert row["queue_wait_p50_s"] == stats.queue_wait_p50_s
        assert stats.queue_wait_p50_s <= stats.latency_p99_s

    def test_flush_and_report(self, obs_on, lower, tmp_path):
        from repro.obs.export import load_dir, report

        run_service(lower)
        paths = obs_on.flush(tmp_path)
        snapshot, events = load_dir(tmp_path)
        assert paths["metrics"].endswith("metrics.json")
        rep = report(snapshot, events)
        latency = rep["systems"]["sys"]["latency"]
        assert latency["count"] > 0
        assert latency["p50"] > 0.0
        assert latency["p99"] >= latency["p50"]
        assert rep["systems"]["sys"]["batch"]["p50"] >= 1.0
        queue_wait = rep["systems"]["sys"]["queue_wait"]
        assert queue_wait["count"] > 0
        assert queue_wait["p99"] >= queue_wait["p50"]
        # the service's span instrumentation leaves a causal trace
        names = {e["name"] for e in events}
        assert "service.batch" in names

    def test_shard_merge_matches_combined(self, obs_on):
        """Two scoped (per-shard) registries merged in order must equal
        one registry that observed everything — the parallel-suite
        merge contract."""
        from repro.obs.metrics import MetricsRegistry

        shard_values = ([0.001, 0.004, 0.002], [0.008, 0.003])
        snapshots = []
        for values in shard_values:
            with obs_on.scoped_registry() as scoped:
                for v in values:
                    scoped.histogram("lat").observe(v)
                    scoped.counter("n").inc()
                snapshots.append(scoped.snapshot())
        parent = obs_on.get_registry()
        for snap in snapshots:
            parent.ingest(snap)

        combined = MetricsRegistry()
        for values in shard_values:
            for v in values:
                combined.histogram("lat").observe(v)
                combined.counter("n").inc()
        merged = parent.snapshot()
        expected = combined.snapshot()
        assert merged["counters"]["n"]["value"] == 5
        assert (merged["histograms"]["lat"]["counts"]
                == expected["histograms"]["lat"]["counts"])
        assert (merged["histograms"]["lat"]["count"]
                == expected["histograms"]["lat"]["count"])

    def test_plan_cache_and_compile_metrics(self, obs_on, lower):
        from repro.exec import PlanCache, compile_plan

        cache = PlanCache(max_entries=4)
        cache.get_or_build("k", lambda: compile_plan(lower))
        cache.get_or_build("k", lambda: compile_plan(lower))
        snap = obs_on.get_registry().snapshot()
        assert snap["counters"]["plan_cache.misses"]["value"] == 1
        assert snap["counters"]["plan_cache.hits"]["value"] == 1
        assert snap["counters"]["exec.compiles"]["value"] >= 1
        assert snap["histograms"]["exec.compile_seconds"]["count"] >= 1


class TestObsCli:
    def _capture(self, obs_on, lower, tmp_path):
        run_service(lower, n_requests=16)
        obs_on.flush(tmp_path)
        return str(tmp_path)

    def test_report_json(self, obs_on, lower, tmp_path, capsys):
        directory = self._capture(obs_on, lower, tmp_path)
        assert cli_main(
            ["obs", "report", "--dir", directory, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["systems"]["sys"]["latency"]["p50"] > 0.0

    def test_tail_and_export(self, obs_on, lower, tmp_path, capsys):
        directory = self._capture(obs_on, lower, tmp_path)
        assert cli_main(
            ["obs", "tail", "--dir", directory, "-n", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "span=" in out
        assert cli_main(["obs", "export", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "# TYPE service_request_latency_seconds histogram" in out
        assert "_bucket{" in out

    def test_export_to_file(self, obs_on, lower, tmp_path, capsys):
        directory = self._capture(obs_on, lower, tmp_path)
        target = tmp_path / "metrics.prom"
        assert cli_main(
            ["obs", "export", "--dir", directory,
             "--output", str(target)]
        ) == 0
        capsys.readouterr()
        assert "# TYPE" in target.read_text()

    def test_report_missing_dir_fails_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert cli_main(["obs", "report", "--dir", missing]) != 0
        err = capsys.readouterr().err
        assert "metrics.json" in err


class TestGateSemantics:
    def test_env_gate_truthy_values(self, monkeypatch):
        set_enabled(None)
        for value, expected in (
            ("1", True), ("true", True), ("on", True), ("YES", True),
            ("0", False), ("", False), ("off", False),
        ):
            monkeypatch.setenv("REPRO_OBS", value)
            assert obs_enabled() is expected, value
        monkeypatch.delenv("REPRO_OBS")
        assert obs_enabled() is False

    def test_forced_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        set_enabled(False)
        try:
            assert get_obs() is None
        finally:
            set_enabled(None)
