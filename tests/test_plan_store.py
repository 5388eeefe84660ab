"""Tests for the persisted-plan store (:mod:`repro.store.plan_store`).

Three tiers, mirroring the store's contract:

* **round-trip properties** (hypothesis): for random matrices x
  schedules, ``save`` then ``load`` is bit-identical across every array
  field and the loaded plan's solves are bitwise equal to the freshly
  compiled plan's on every available backend;
* **corruption corpus**: every mutation class (torn sidecar, truncated
  npz, per-array byte flips, stale fingerprint, wrong format version,
  toolchain drift) is rejected with its named error, and the
  :class:`~repro.exec.PlanCache` disk tier falls back to compiling —
  never crashes, never serves the corrupt plan; a store of the previous
  format version is refused by name;
* **fleet behavior**: exactly-one-artifact-per-key under racing
  threads, LRU disk budgeting, and a second process performing zero
  ``compile_plan`` calls against a warm store.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

from repro.errors import (
    ConfigurationError,
    PlanArtifactCorruptError,
    PlanArtifactError,
    PlanArtifactMissingError,
    PlanArtifactStaleError,
    PlanArtifactVersionError,
    PlanVerificationError,
)
from repro.exec import (
    PlanCache,
    available_backends,
    compile_count,
    compile_plan,
    get_backend,
)
from repro.graph.dag import DAG
from repro.matrix.generators import narrow_band_lower
from repro.scheduler import GrowLocalScheduler, WavefrontScheduler
from repro.store import (
    PLAN_STORE_ENV_VAR,
    PLAN_STORE_VERSION,
    PlanKey,
    PlanStore,
    plan_store_key,
    schedule_identity,
    toolchain_digest,
)
from repro.store.plan_store import ARRAY_FIELDS
from tests.conftest import lower_triangular_matrices

SCALAR_FIELDS = ("direction", "singular_row", "_singular_reason")


def _make_system(n=120, cores=4, seed=0):
    """A (matrix, schedule) pair with genuine parallel structure."""
    lower = narrow_band_lower(n, 0.25, 6.0, seed=seed)
    dag = DAG.from_lower_triangular(lower)
    schedule = GrowLocalScheduler().schedule(dag, cores)
    return lower, schedule


def _saved_artifact(store_dir, n=120, cores=4, seed=0):
    """Compile, save and return (store, key, matrix, schedule, plan)."""
    lower, schedule = _make_system(n=n, cores=cores, seed=seed)
    store = PlanStore(store_dir)
    key = plan_store_key(lower, schedule, scheduler="growlocal")
    plan = compile_plan(lower, schedule)
    assert store.save(plan, key) is not None
    return store, key, lower, schedule, plan


class TestRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(
        lower=lower_triangular_matrices(min_n=2, max_n=30),
        scheduled=st.booleans(),
    )
    def test_save_load_bit_identical(self, lower, scheduled):
        schedule = None
        if scheduled:
            schedule = WavefrontScheduler().schedule(
                DAG.from_lower_triangular(lower), 3
            )
        fresh = compile_plan(lower, schedule)
        key = plan_store_key(lower, schedule)
        with tempfile.TemporaryDirectory() as tmp:
            store = PlanStore(tmp)
            assert store.save(fresh, key) is not None
            loaded = store.load(key, matrix=lower, schedule=schedule)
        assert loaded.provenance == "store"
        for name in ARRAY_FIELDS:
            a, b = getattr(fresh, name), getattr(loaded, name)
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        for name in SCALAR_FIELDS:
            assert getattr(fresh, name) == getattr(loaded, name), name
        b = np.random.default_rng(7).standard_normal(lower.n)
        for backend in available_backends():
            x_fresh = get_backend(backend).solve(fresh, b.copy())
            x_loaded = get_backend(backend).solve(loaded, b.copy())
            assert np.array_equal(x_fresh, x_loaded), backend

    def test_loaded_plan_carries_sources(self, tmp_path):
        store, key, lower, schedule, _ = _saved_artifact(tmp_path)
        loaded = store.load(key, matrix=lower, schedule=schedule)
        assert loaded.matrix is lower
        assert loaded.schedule is schedule
        # sources are optional: a structural load is fine without them
        bare = store.load(key)
        assert bare.matrix is None and bare.schedule is None

    def test_sidecar_still_carrying_created_by_loads(self, tmp_path):
        """Sidecars no longer carry the host tag ``created_by``; one
        written with it (outside the content hash) still loads through
        the full gate."""
        store, key, lower, schedule, plan = _saved_artifact(tmp_path)
        _, sidecar_path, _ = store._paths(key)
        assert "created_by" not in json.loads(
            Path(sidecar_path).read_text()
        )
        _edit_sidecar(store, key, created_by="node7-0123456789ab")
        loaded = store.load(key, matrix=lower, schedule=schedule)
        assert loaded.provenance == "store"
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(loaded, name),
                                  getattr(plan, name)), name

    def test_save_is_first_writer_wins(self, tmp_path):
        store, key, _, _, plan = _saved_artifact(tmp_path)
        assert store.save(plan, key) is None
        assert store.counters()["save_races"] == 1

    def test_key_plan_mismatch_is_config_error(self, tmp_path):
        store, key, lower, _, plan = _saved_artifact(tmp_path)
        wrong = PlanKey(key.matrix_fingerprint, key.scheduler,
                        cores=key.cores + 3)
        with pytest.raises(ConfigurationError):
            store.save(plan, wrong)


class TestExactKey:
    def test_key_components_separate_artifacts(self, tmp_path):
        lower, schedule = _make_system()
        keys = {
            plan_store_key(lower, schedule, scheduler="growlocal"),
            plan_store_key(lower, schedule, scheduler="hdagg"),
            plan_store_key(lower, schedule, scheduler="growlocal",
                           dtype="float32"),
            plan_store_key(lower, None),
            plan_store_key(lower, schedule, scheduler="growlocal",
                           direction="backward"),
        }
        assert len({k.stem() for k in keys}) == len(keys)

    def test_missing_key_is_named_miss(self, tmp_path):
        store, _, lower, _, _ = _saved_artifact(tmp_path)
        other = plan_store_key(lower, None)
        with pytest.raises(PlanArtifactMissingError):
            store.load(other)
        assert store.get(other) is None
        assert store.counters()["misses"] == 1
        assert store.counters()["rejects"] == 0

    def test_schedule_identity_is_content_based(self):
        lower, schedule = _make_system()
        again = GrowLocalScheduler().schedule(
            DAG.from_lower_triangular(lower), 4
        )
        assert schedule_identity(schedule) == schedule_identity(again)
        assert schedule_identity(None) == "__serial__"

    def test_store_version_gate(self, tmp_path):
        PlanStore(tmp_path)
        meta = tmp_path / "plan-store.json"
        meta.write_text(json.dumps({"version": PLAN_STORE_VERSION + 9}))
        with pytest.raises(ConfigurationError):
            PlanStore(tmp_path)

    def test_missing_dir_refused_without_create(self, tmp_path):
        with pytest.raises(ConfigurationError):
            PlanStore(tmp_path / "absent", create=False)


class TestFormatVersion:
    """Version 2 dropped the persisted fusion grouping and version 3 the
    per-batch superstep array; a store or an artifact of an earlier
    version is refused by name, never reinterpreted."""

    def _old_version(self, store_dir, version=1):
        """A store laid out with an earlier meta and sidecar version."""
        store, key, lower, schedule, _ = _saved_artifact(store_dir)
        _edit_sidecar(store, key, format_version=version)
        (store_dir / "plan-store.json").write_text(
            json.dumps({"version": version})
        )
        return store, key, lower, schedule

    def _assert_store_refused(self, store_dir, version):
        assert PLAN_STORE_VERSION == 3 and len(ARRAY_FIELDS) == 10
        self._old_version(store_dir, version)
        with pytest.raises(ConfigurationError,
                           match=rf"version {version}\b.*version 3\b"):
            PlanStore(store_dir)

    def _assert_sidecar_refused(self, store_dir, version):
        store, key, lower, schedule = self._old_version(store_dir, version)
        with pytest.raises(PlanArtifactVersionError,
                           match=rf"format version {version}\b"):
            store.load(key, matrix=lower, schedule=schedule)
        verdicts = store.verify()["artifacts"]
        assert [v["error_type"] for v in verdicts] == [
            "PlanArtifactVersionError"
        ]

    def test_version_1_store_is_refused_by_name(self, tmp_path):
        self._assert_store_refused(tmp_path, 1)

    def test_version_1_sidecar_is_a_version_error(self, tmp_path):
        self._assert_sidecar_refused(tmp_path, 1)

    def test_version_2_store_is_refused_by_name(self, tmp_path):
        self._assert_store_refused(tmp_path, 2)

    def test_version_2_sidecar_is_a_version_error(self, tmp_path):
        self._assert_sidecar_refused(tmp_path, 2)

    def test_plan_cache_on_version_1_store_compiles(self, tmp_path,
                                                   monkeypatch):
        _, key, lower, schedule = self._old_version(tmp_path)
        monkeypatch.setenv(PLAN_STORE_ENV_VAR, str(tmp_path))
        cache = PlanCache()
        n0 = compile_count()
        plan = cache.get_or_build(
            "k", lambda: compile_plan(lower, schedule),
            store_key=key, source_matrix=lower, source_schedule=schedule,
        )
        assert cache.plan_store is None  # the refused store is not used
        assert compile_count() == n0 + 1
        assert plan.provenance == "compiled"
        b = np.random.default_rng(3).standard_normal(lower.n)
        expected = spsolve_triangular(lower.to_scipy().tocsr(), b)
        np.testing.assert_allclose(
            get_backend().solve(plan, b), expected, rtol=1e-10, atol=1e-12
        )


# ---------------------------------------------------------------------------
# corruption corpus: every mutation class -> its named rejection
# ---------------------------------------------------------------------------
def _edit_sidecar(store, plan_key, **updates):
    _, sidecar_path, _ = store._paths(plan_key)
    sidecar = json.loads(Path(sidecar_path).read_text())
    for name, value in updates.items():
        if callable(value):
            value = value(sidecar[name])
        sidecar[name] = value
    Path(sidecar_path).write_text(json.dumps(sidecar))


def _truncate_npz(store, key):
    npz_path, _, _ = store._paths(key)
    data = Path(npz_path).read_bytes()
    Path(npz_path).write_bytes(data[: len(data) // 2])


def _delete_npz(store, key):
    npz_path, _, _ = store._paths(key)
    os.unlink(npz_path)


def _tear_sidecar(store, key):
    _, sidecar_path, _ = store._paths(key)
    text = Path(sidecar_path).read_text()
    Path(sidecar_path).write_text(text[: len(text) // 2])


def _flip_array_byte(field):
    def mutate(store, key):
        npz_path, _, _ = store._paths(key)
        with np.load(npz_path, allow_pickle=False) as payload:
            arrays = {name: payload[name].copy() for name in ARRAY_FIELDS}
        flat = arrays[field].reshape(-1)
        if flat.size == 0:  # nothing to flip; resize to corrupt shape
            arrays[field] = np.ones(1, dtype=arrays[field].dtype)
        else:
            flat[flat.size // 2] += 1
        np.savez(npz_path, **arrays)

    return mutate


def _stale_fingerprint(store, key):
    _edit_sidecar(
        store, key,
        key=lambda k: {**k, "matrix_fingerprint": "0_deadbeef0000"},
    )


def _wrong_version(store, key):
    _edit_sidecar(store, key, format_version=PLAN_STORE_VERSION + 1)


def _wrong_toolchain(store, key):
    _edit_sidecar(store, key, toolchain="0" * 16)


def _tampered_direction(store, key):
    # an intact-looking sidecar whose hashed scalar was edited: the
    # content hash covers sidecar scalars too, so this is corruption
    _edit_sidecar(store, key, direction="backward")


CORRUPTION_CORPUS = [
    pytest.param(_tear_sidecar, PlanArtifactCorruptError,
                 id="torn-sidecar"),
    pytest.param(_truncate_npz, PlanArtifactCorruptError,
                 id="truncated-npz"),
    pytest.param(_delete_npz, PlanArtifactCorruptError,
                 id="missing-npz"),
    pytest.param(_stale_fingerprint, PlanArtifactStaleError,
                 id="stale-fingerprint"),
    pytest.param(_wrong_version, PlanArtifactVersionError,
                 id="wrong-format-version"),
    pytest.param(_wrong_toolchain, PlanArtifactStaleError,
                 id="toolchain-drift"),
    pytest.param(_tampered_direction, PlanArtifactCorruptError,
                 id="tampered-sidecar-scalar"),
] + [
    pytest.param(_flip_array_byte(field), PlanArtifactCorruptError,
                 id=f"byte-flip-{field}")
    for field in ARRAY_FIELDS
]


class TestCorruptionCorpus:
    @pytest.mark.parametrize("mutate, expected", CORRUPTION_CORPUS)
    def test_load_rejects_with_named_error(self, tmp_path, mutate,
                                           expected):
        store, key, lower, schedule, _ = _saved_artifact(tmp_path)
        mutate(store, key)
        with pytest.raises(expected):
            store.load(key, matrix=lower, schedule=schedule)

    @pytest.mark.parametrize("mutate, expected", CORRUPTION_CORPUS)
    def test_cache_falls_back_to_compile(self, tmp_path, mutate,
                                         expected):
        store, key, lower, schedule, fresh = _saved_artifact(tmp_path)
        mutate(store, key)
        cache = PlanCache(plan_store=store)
        plan = cache.get_or_build(
            "k", lambda: compile_plan(lower, schedule),
            store_key=key, source_matrix=lower, source_schedule=schedule,
        )
        assert plan.provenance == "compiled"
        assert store.counters()["rejects"] == 1
        assert store.last_reject.startswith(expected.__name__)
        b = np.ones(lower.n)
        assert np.array_equal(
            get_backend("numpy").solve(plan, b),
            get_backend("numpy").solve(fresh, b),
        )

    def test_hash_valid_structural_corruption_hits_check_plan(
        self, tmp_path
    ):
        """A structurally broken plan whose artifact hashes cleanly must
        still die on the mandatory ``check_plan`` gate — the hash guards
        the bytes, the verifier guards the invariants."""
        lower, schedule = _make_system()
        plan = compile_plan(lower, schedule)
        plan.batch_ptr = plan.batch_ptr.copy()
        plan.batch_ptr[-1] = plan.n + 5  # batches no longer cover rows
        store = PlanStore(tmp_path)
        key = plan_store_key(lower, schedule, scheduler="growlocal")
        assert store.save(plan, key) is not None
        with pytest.raises(PlanVerificationError):
            store.load(key, matrix=lower, schedule=schedule)
        assert store.get(key, matrix=lower, schedule=schedule) is None
        assert store.counters()["rejects"] == 1

    def test_wrong_matrix_is_stale(self, tmp_path):
        store, key, lower, schedule, _ = _saved_artifact(tmp_path)
        other = narrow_band_lower(lower.n, 0.25, 6.0, seed=99)
        with pytest.raises(PlanArtifactStaleError):
            store.load(key, matrix=other, schedule=schedule)

    def test_wrong_schedule_is_stale(self, tmp_path):
        store, key, lower, schedule, _ = _saved_artifact(tmp_path)
        other = WavefrontScheduler().schedule(
            DAG.from_lower_triangular(lower), 4
        )
        with pytest.raises(PlanArtifactStaleError):
            store.load(key, matrix=lower, schedule=other)

    def test_verify_flags_exactly_the_corrupt_artifact(self, tmp_path):
        store, key, lower, schedule, _ = _saved_artifact(tmp_path)
        key2 = plan_store_key(lower, None)
        store.save(compile_plan(lower), key2)
        _flip_array_byte("diag")(store, key)
        report = store.verify()
        assert report["n_artifacts"] == 2
        assert report["n_bad"] == 1
        assert not report["ok"]
        flagged = [v for v in report["artifacts"] if not v["ok"]]
        assert flagged[0]["stem"] == key.stem()
        assert flagged[0]["error_type"] == "PlanArtifactCorruptError"


class TestLRUGc:
    def test_gc_evicts_least_recently_used(self, tmp_path):
        store = PlanStore(tmp_path)
        lowers = [narrow_band_lower(80, 0.25, 6.0, seed=s)
                  for s in range(3)]
        keys = [plan_store_key(m, None) for m in lowers]
        for m, k in zip(lowers, keys, strict=True):
            store.save(compile_plan(m), k)
        # deterministic LRU order without wall-clock dependence
        for age, k in enumerate(keys):
            _, sidecar, _ = store._paths(k)
            os.utime(sidecar, (1_000_000 + age, 1_000_000 + age))
        # touching key 0 (a load) makes key 1 the eviction victim
        store.load(keys[0], matrix=lowers[0])
        _, sidecar0, _ = store._paths(keys[0])
        os.utime(sidecar0, (1_000_010, 1_000_010))
        one_size = os.path.getsize(store._paths(keys[0])[0]) + \
            os.path.getsize(store._paths(keys[0])[1])
        result = store.gc(max_bytes=2 * one_size + 64)
        assert keys[1].stem() in result["removed"]
        assert store.get(keys[0], matrix=lowers[0]) is not None
        assert store.get(keys[2], matrix=lowers[2]) is not None
        assert store.get(keys[1], matrix=lowers[1]) is None

    def test_gc_clears_stale_locks(self, tmp_path):
        store, key, _, _, _ = _saved_artifact(tmp_path)
        lock = Path(tmp_path) / "crashed-writer.lock"
        lock.touch()
        store.gc()
        assert not lock.exists()

    def test_env_budget_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_STORE_MAX_BYTES", "lots")
        with pytest.raises(ConfigurationError):
            PlanStore(tmp_path)


class TestConcurrency:
    def test_racing_threads_one_artifact_per_key(self, tmp_path):
        lowers = [narrow_band_lower(90, 0.25, 6.0, seed=s)
                  for s in range(3)]
        keys = [plan_store_key(m, None) for m in lowers]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        stores = [PlanStore(tmp_path) for _ in range(n_threads)]
        results: list[list] = [[] for _ in range(n_threads)]
        errors = []

        def worker(tid):
            try:
                cache = PlanCache(plan_store=stores[tid])
                barrier.wait()
                for m, k in zip(lowers, keys, strict=True):
                    plan = cache.get_or_build(
                        ("serial", m.n, k.stem()),
                        lambda m=m: compile_plan(m),
                        store_key=k, source_matrix=m,
                    )
                    results[tid].append(plan)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        names = os.listdir(tmp_path)
        assert not [n for n in names if n.endswith(".lock")]
        assert not [n for n in names if n.endswith(".tmp")]
        for k in keys:
            stem = k.stem()
            assert f"{stem}.npz" in names
            assert f"{stem}.json" in names
        # exactly one npz+sidecar per key, nothing else
        artifacts = [n for n in names if n != "plan-store.json"]
        assert len(artifacts) == 2 * len(keys)
        # no torn reads: every thread's plans solve identically
        b = np.ones(90)
        x0 = get_backend("numpy").solve(results[0][0], b)
        for tid in range(n_threads):
            assert len(results[tid]) == len(keys)
            for plan in results[tid]:
                assert plan.n == 90
        for tid in range(1, n_threads):
            assert np.array_equal(
                get_backend("numpy").solve(results[tid][0], b), x0
            )


class TestPlanCacheTier:
    def test_disk_hit_skips_compile(self, tmp_path):
        store, key, lower, schedule, _ = _saved_artifact(tmp_path)
        cache = PlanCache(plan_store=store)
        n0 = compile_count()
        plan = cache.get_or_build(
            "k", lambda: compile_plan(lower, schedule),
            store_key=key, source_matrix=lower, source_schedule=schedule,
        )
        assert compile_count() == n0
        assert plan.provenance == "store"
        # second lookup is a pure memory hit (no second store read)
        hits0 = store.counters()["hits"]
        again = cache.get_or_build("k", lambda: 1 / 0, store_key=key)
        assert again is plan
        assert store.counters()["hits"] == hits0

    def test_build_populates_store(self, tmp_path):
        lower, schedule = _make_system()
        store = PlanStore(tmp_path)
        key = plan_store_key(lower, schedule, scheduler="growlocal")
        cache = PlanCache(plan_store=store)
        plan = cache.get_or_build(
            "k", lambda: compile_plan(lower, schedule),
            store_key=key, source_matrix=lower, source_schedule=schedule,
        )
        assert plan.provenance == "compiled"
        assert store.counters() == {**store.counters(),
                                    "misses": 1, "saves": 1}
        assert len(store) == 1

    def test_env_gate_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(PLAN_STORE_ENV_VAR, raising=False)
        assert PlanCache().plan_store is None
        monkeypatch.setenv(PLAN_STORE_ENV_VAR, str(tmp_path / "ps"))
        cache = PlanCache()
        assert cache.plan_store is not None
        assert cache.plan_store.path == str(tmp_path / "ps")
        # resolution is sticky per cache instance
        monkeypatch.delenv(PLAN_STORE_ENV_VAR)
        assert cache.plan_store is not None

    def test_no_store_key_never_touches_disk(self, tmp_path):
        store = PlanStore(tmp_path)
        cache = PlanCache(plan_store=store)
        cache.get_or_build("k", lambda: 42)
        assert store.counters()["misses"] == 0


class TestWiring:
    def test_run_instance_counts_store_traffic(self, tmp_path,
                                               monkeypatch):
        from repro.experiments.datasets import DatasetInstance
        from repro.experiments.runner import run_instance
        from repro.machine.model import get_machine

        monkeypatch.setenv(PLAN_STORE_ENV_VAR, str(tmp_path))
        lower = narrow_band_lower(100, 0.25, 6.0, seed=1)
        inst = DatasetInstance("plan_store_wiring", lower)
        machine = get_machine("intel_xeon_6238t")
        scheduler = GrowLocalScheduler()
        cold = run_instance(inst, scheduler, machine, n_cores=4)
        assert cold.plan_store_misses > 0
        assert cold.plan_store_hits == 0
        # a fresh cache in the same process loads every plan back
        warm = run_instance(inst, scheduler, machine, n_cores=4)
        assert warm.plan_store_hits > 0
        assert warm.plan_store_rejects == 0
        assert np.isclose(warm.speedup, cold.speedup)

    def test_service_register_stamps_plan_source(self, tmp_path,
                                                 monkeypatch):
        from repro.service import SolveService

        monkeypatch.setenv(PLAN_STORE_ENV_VAR, str(tmp_path))
        lower = narrow_band_lower(80, 0.2, 5.0, seed=0)
        with SolveService() as svc:
            svc.register("sys", lower)
            assert svc.stats("sys").plan_source == "compiled"
        with SolveService() as svc:
            svc.register("sys", lower)
            stats = svc.stats("sys")
            assert stats.plan_source == "store"
            assert stats.as_row()["plan_source"] == "store"
            x = svc.solve("sys", np.ones(80))
            assert np.allclose(
                x, get_backend("numpy").solve(compile_plan(lower),
                                              np.ones(80))
            )

    def test_two_process_warm_start_zero_compiles(self, tmp_path):
        """The fleet contract: a second process against a warm store
        performs ZERO ``compile_plan`` calls (counter-asserted, like
        the persistent-JIT warm-start check)."""
        probe = (
            "import json\n"
            "from repro.exec import PlanCache, compile_count, "
            "compile_plan\n"
            "from repro.graph.dag import DAG\n"
            "from repro.matrix.generators import narrow_band_lower\n"
            "from repro.scheduler import GrowLocalScheduler\n"
            "from repro.store import plan_store_key\n"
            "cache = PlanCache()\n"
            "plans = []\n"
            "for seed in (0, 1):\n"
            "    L = narrow_band_lower(100, 0.25, 6.0, seed=seed)\n"
            "    S = GrowLocalScheduler().schedule("
            "DAG.from_lower_triangular(L), 4)\n"
            "    for sched in (None, S):\n"
            "        key = plan_store_key(L, sched)\n"
            "        plans.append(cache.get_or_build(\n"
            "            (seed, sched is None),\n"
            "            lambda L=L, s=sched: compile_plan(L, s),\n"
            "            store_key=key, source_matrix=L,\n"
            "            source_schedule=sched,\n"
            "        ))\n"
            "print(json.dumps({'compiles': compile_count(),\n"
            "                  'sources': sorted({p.provenance "
            "for p in plans})}))\n"
        )
        import repro

        src_root = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        env[PLAN_STORE_ENV_VAR] = str(tmp_path)

        def run():
            proc = subprocess.run(
                [sys.executable, "-c", probe], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold = run()
        assert cold["compiles"] == 4
        assert cold["sources"] == ["compiled"]
        warm = run()
        assert warm["compiles"] == 0
        assert warm["sources"] == ["store"]


class TestToolchainDigest:
    def test_digest_is_stable_and_short(self):
        assert toolchain_digest() == toolchain_digest()
        assert len(toolchain_digest()) == 16

    def test_plan_artifact_errors_are_repro_errors(self):
        from repro.errors import ReproError

        for exc in (PlanArtifactMissingError, PlanArtifactCorruptError,
                    PlanArtifactVersionError, PlanArtifactStaleError):
            assert issubclass(exc, PlanArtifactError)
            assert issubclass(exc, ReproError)
