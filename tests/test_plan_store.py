"""Tests for the persisted-plan store (:mod:`repro.store.plan_store`).

Three tiers, mirroring the store's contract:

* **round-trip properties** (hypothesis): for random matrices, with
  and without a schedule, ``save`` then ``load`` is bit-identical
  across every array field and the loaded plan's solves are bitwise
  equal to the freshly compiled plan's on every available backend;
* **corruption corpus**: every mutation class (torn sidecar, truncated
  npz, per-array byte flips, stale fingerprint, wrong format version,
  toolchain drift, hash-valid sidecars whose scalars do not parse or
  do not describe the arrays and the key) is rejected by ``load`` with
  its named error, counted by ``get`` as a reject its caller falls
  back from by compiling, and flagged by ``verify`` — never crashes,
  never serves the corrupt plan; a store of an earlier format version
  is refused by name;
* **fleet behavior**: exactly-one-artifact-per-key under racing
  threads, LRU disk budgeting, a service serving a loaded plan, and a
  second process that loads every plan from a warm store performing
  zero ``compile_plan`` calls.
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

from repro.errors import (
    ConfigurationError,
    MatrixFormatError,
    PlanArtifactCorruptError,
    PlanArtifactError,
    PlanArtifactMissingError,
    PlanArtifactStaleError,
    PlanArtifactVersionError,
    PlanVerificationError,
)
from repro.exec import available_backends, compile_plan, get_backend
from repro.graph.dag import DAG
from repro.matrix.generators import narrow_band_lower
from repro.scheduler import GrowLocalScheduler, WavefrontScheduler
from repro.store import (
    PLAN_STORE_VERSION,
    PlanKey,
    PlanStore,
    plan_store_key,
    toolchain_digest,
)
from repro.store.plan_store import ARRAY_FIELDS, _artifact_hash
from tests.conftest import lower_triangular_matrices

SCALAR_FIELDS = ("direction", "singular_row", "_singular_reason")


def _saved_artifact(store_dir, n=120, seed=0):
    """Compile, save and return (store, key, matrix, plan)."""
    lower = narrow_band_lower(n, 0.25, 6.0, seed=seed)
    store = PlanStore(store_dir)
    key = plan_store_key(lower)
    plan = compile_plan(lower)
    assert store.save(plan, key) is not None
    return store, key, lower, plan


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
        assert key == plan_store_key(lower)
        with tempfile.TemporaryDirectory() as tmp:
            store = PlanStore(tmp)
            assert store.save(fresh, key) is not None
            loaded = store.load(key, matrix=lower)
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
        store, key, lower, _ = _saved_artifact(tmp_path)
        loaded = store.load(key, matrix=lower)
        assert loaded.matrix is lower
        # the source is optional: a structural load is fine without it
        bare = store.load(key)
        assert bare.matrix is None

    def test_sidecar_still_carrying_created_by_loads(self, tmp_path):
        """Sidecars no longer carry the host tag ``created_by``; one
        written with it (outside the content hash) still loads through
        the full gate."""
        store, key, lower, plan = _saved_artifact(tmp_path)
        _, sidecar_path, _ = store._paths(key)
        assert "created_by" not in json.loads(
            Path(sidecar_path).read_text()
        )
        _edit_sidecar(store, key, created_by="node7-0123456789ab")
        loaded = store.load(key, matrix=lower)
        assert loaded.provenance == "store"
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(loaded, name),
                                  getattr(plan, name)), name

    def test_save_is_first_writer_wins(self, tmp_path):
        store, key, _, plan = _saved_artifact(tmp_path)
        assert store.save(plan, key) is None
        assert store.counters()["save_races"] == 1

    def test_key_plan_mismatch_is_config_error(self, tmp_path):
        store, key, _, plan = _saved_artifact(tmp_path)
        for wrong in (
            PlanKey(key.matrix_fingerprint, direction="backward"),
            PlanKey(key.matrix_fingerprint, dtype="float32"),
        ):
            with pytest.raises(ConfigurationError):
                store.save(plan, wrong)


class TestExactKey:
    def test_key_components_separate_artifacts(self, tmp_path):
        lower = narrow_band_lower(120, 0.25, 6.0, seed=0)
        keys = {
            plan_store_key(lower),
            plan_store_key(lower, dtype="float32"),
            plan_store_key(lower, direction="backward"),
            plan_store_key(narrow_band_lower(120, 0.25, 6.0, seed=1)),
        }
        assert len({k.stem() for k in keys}) == len(keys)

    def test_every_schedule_of_a_matrix_shares_its_key(self):
        """A plan is its matrix's level set, so a schedule never changes
        the key; it is only checked to cover the matrix's rows."""
        lower = narrow_band_lower(120, 0.25, 6.0, seed=0)
        dag = DAG.from_lower_triangular(lower)
        for schedule in (GrowLocalScheduler().schedule(dag, 4),
                         WavefrontScheduler().schedule(dag, 2)):
            assert plan_store_key(lower, schedule) == plan_store_key(lower)
        other = narrow_band_lower(60, 0.25, 6.0, seed=0)
        with pytest.raises(MatrixFormatError, match="covers 60 rows"):
            plan_store_key(lower, WavefrontScheduler().schedule(
                DAG.from_lower_triangular(other), 2))

    def test_missing_key_is_named_miss(self, tmp_path):
        store, _, lower, _ = _saved_artifact(tmp_path)
        other = plan_store_key(lower, direction="backward")
        with pytest.raises(PlanArtifactMissingError):
            store.load(other)
        assert store.get(other) is None
        assert store.counters()["misses"] == 1
        assert store.counters()["rejects"] == 0

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
    """Version 2 dropped the persisted fusion grouping, version 3 the
    per-batch superstep array and version 4 the schedule's program
    (``core_rows``, ``core_ptr``, ``row_step``) and every schedule field
    of the key and the sidecar; a store or an artifact of an earlier
    version is refused by name, never reinterpreted."""

    def _old_version(self, store_dir, version=1):
        """A store laid out with an earlier meta and sidecar version."""
        store, key, lower, _ = _saved_artifact(store_dir)
        _edit_sidecar(store, key, format_version=version)
        (store_dir / "plan-store.json").write_text(
            json.dumps({"version": version})
        )
        return store, key, lower

    def _assert_store_refused(self, store_dir, version):
        assert PLAN_STORE_VERSION == 4 and len(ARRAY_FIELDS) == 7
        self._old_version(store_dir, version)
        with pytest.raises(ConfigurationError,
                           match=rf"version {version}\b.*version 4\b"):
            PlanStore(store_dir)

    def _assert_sidecar_refused(self, store_dir, version):
        store, key, lower = self._old_version(store_dir, version)
        with pytest.raises(PlanArtifactVersionError,
                           match=rf"format version {version}\b"):
            store.load(key, matrix=lower)
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

    def test_version_3_store_is_refused_by_name(self, tmp_path):
        self._assert_store_refused(tmp_path, 3)

    def test_version_3_sidecar_is_a_version_error(self, tmp_path):
        """A version-3 sidecar keyed by scheduler and cores, as that
        format wrote it, is refused by its version before its key is
        read."""
        store, key, lower = self._old_version(tmp_path, 3)
        _edit_sidecar(
            store, key,
            key={"matrix_fingerprint": key.matrix_fingerprint,
                 "scheduler": "growlocal", "cores": 4,
                 "dtype": "float64"},
            schedule_identity="sched-4x9-0123456789ab",
        )
        with pytest.raises(PlanArtifactVersionError,
                           match=r"format version 3\b.*version 4\b"):
            store.load(key, matrix=lower)
        verdicts = store.verify()["artifacts"]
        assert [v["error_type"] for v in verdicts] == [
            "PlanArtifactVersionError"
        ]


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


def _rehashed_sidecar(**updates):
    """Edit the sidecar, then recompute its content hash, as a writer
    that produced a malformed artifact would: the hash alone cannot
    tell, so the load must read the scalars themselves."""

    def mutate(store, key):
        npz_path, sidecar_path, _ = store._paths(key)
        with np.load(npz_path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in ARRAY_FIELDS}

        def rehash():
            sidecar = json.loads(Path(sidecar_path).read_text())
            scalars = {name: value for name, value in sidecar.items()
                       if name != "content_hash"}
            return sidecar["content_hash"], _artifact_hash(arrays, scalars)

        stored, recomputed = rehash()
        assert stored == recomputed  # hashes exactly what the store does
        _edit_sidecar(store, key, **updates)
        _edit_sidecar(store, key, content_hash=rehash()[1])

    return mutate


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
    pytest.param(_rehashed_sidecar(singular_row="abc"),
                 PlanArtifactCorruptError,
                 id="rehashed-unparseable-scalar"),
    pytest.param(_rehashed_sidecar(n=lambda n: n + 1),
                 PlanArtifactCorruptError,
                 id="rehashed-row-count-not-the-plans"),
    pytest.param(_rehashed_sidecar(direction="backward"),
                 PlanArtifactStaleError,
                 id="rehashed-direction-not-the-keys"),
] + [
    pytest.param(_flip_array_byte(field), PlanArtifactCorruptError,
                 id=f"byte-flip-{field}")
    for field in ARRAY_FIELDS
]


class TestCorruptionCorpus:
    @pytest.mark.parametrize("mutate, expected", CORRUPTION_CORPUS)
    def test_load_rejects_with_named_error(self, tmp_path, mutate,
                                           expected):
        store, key, lower, _ = _saved_artifact(tmp_path)
        mutate(store, key)
        with pytest.raises(expected):
            store.load(key, matrix=lower)

    @pytest.mark.parametrize("mutate, expected", CORRUPTION_CORPUS)
    def test_cache_falls_back_to_compile(self, tmp_path, mutate,
                                         expected):
        """``get`` turns every rejection into ``None``, counted and
        named, and its caller falls back to compiling."""
        store, key, lower, fresh = _saved_artifact(tmp_path)
        mutate(store, key)
        assert store.get(key, matrix=lower) is None
        assert store.counters()["rejects"] == 1
        assert store.counters()["misses"] == 0
        assert store.last_reject.startswith(expected.__name__)
        plan = compile_plan(lower)
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
        lower = narrow_band_lower(120, 0.25, 6.0, seed=0)
        plan = compile_plan(lower)
        plan.batch_ptr = plan.batch_ptr.copy()
        plan.batch_ptr[-1] = plan.n + 5  # batches no longer cover rows
        store = PlanStore(tmp_path)
        key = plan_store_key(lower)
        assert store.save(plan, key) is not None
        with pytest.raises(PlanVerificationError):
            store.load(key, matrix=lower)
        assert store.get(key, matrix=lower) is None
        assert store.counters()["rejects"] == 1

    def test_wrong_matrix_is_stale(self, tmp_path):
        store, key, lower, _ = _saved_artifact(tmp_path)
        other = narrow_band_lower(lower.n, 0.25, 6.0, seed=99)
        with pytest.raises(PlanArtifactStaleError):
            store.load(key, matrix=other)

    @pytest.mark.parametrize("mutate, expected", CORRUPTION_CORPUS)
    def test_verify_flags_instead_of_raising(self, tmp_path, mutate,
                                             expected):
        store, key, _, _ = _saved_artifact(tmp_path)
        mutate(store, key)
        report = store.verify()
        assert not report["ok"]
        assert [(v["stem"], v["error_type"])
                for v in report["artifacts"]] == [
            (key.stem(), expected.__name__)
        ]

    def test_verify_flags_exactly_the_corrupt_artifact(self, tmp_path):
        store, key, lower, _ = _saved_artifact(tmp_path)
        upper = lower.transpose()
        key2 = plan_store_key(upper, direction="backward")
        store.save(compile_plan(upper, direction="backward"), key2)
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
        store, key, _, _ = _saved_artifact(tmp_path)
        lock = Path(tmp_path) / "crashed-writer.lock"
        lock.touch()
        store.gc()
        assert not lock.exists()

    def test_env_budget_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_STORE_MAX_BYTES", "lots")
        with pytest.raises(ConfigurationError):
            PlanStore(tmp_path)

    def test_negative_budget_is_refused(self, tmp_path, monkeypatch):
        """A negative budget would evict every artifact, the one just
        saved included, so ``save`` returned a sidecar path that no
        longer existed; every way of setting it is refused by value."""
        with pytest.raises(ConfigurationError, match=r"max_bytes=-5\b"):
            PlanStore(tmp_path, max_bytes=-5)
        monkeypatch.setenv("REPRO_PLAN_STORE_MAX_BYTES", "-5")
        with pytest.raises(ConfigurationError,
                           match=r"REPRO_PLAN_STORE_MAX_BYTES=-5\b"):
            PlanStore(tmp_path)
        monkeypatch.delenv("REPRO_PLAN_STORE_MAX_BYTES")
        store, key, _, _ = _saved_artifact(tmp_path)
        with pytest.raises(ConfigurationError, match=r"max_bytes=-1\b"):
            store.gc(max_bytes=-1)
        assert len(store) == 1 and store.counters()["evictions"] == 0

    def test_zero_budget_is_legal(self, tmp_path):
        store = PlanStore(tmp_path, max_bytes=0)
        lower = narrow_band_lower(80, 0.25, 6.0, seed=0)
        # the save's own budget pass evicted what it wrote: no path
        assert store.save(compile_plan(lower), plan_store_key(lower)) is None
        assert len(store) == 0
        assert store.counters()["evictions"] == 1

    def test_budgeted_save_keeps_other_writers_locks(self, tmp_path):
        """A save's budget pass only evicts: another writer's live claim
        on key B survives a budgeted save of key A, so B's first writer
        still wins."""
        lowers = [narrow_band_lower(80, 0.25, 6.0, seed=s)
                  for s in range(2)]
        key_a, key_b = (plan_store_key(m) for m in lowers)
        store = PlanStore(tmp_path, max_bytes=10**9)
        lock_b = Path(store._paths(key_b)[2])
        lock_b.touch()  # B's writer is materializing it right now
        assert store.save(compile_plan(lowers[0]), key_a) is not None
        assert lock_b.exists()
        assert PlanStore(tmp_path).save(compile_plan(lowers[1]),
                                        key_b) is None


class TestConcurrency:
    def test_racing_threads_one_artifact_per_key(self, tmp_path):
        lowers = [narrow_band_lower(90, 0.25, 6.0, seed=s)
                  for s in range(3)]
        keys = [plan_store_key(m, None) for m in lowers]
        n_threads = 8
        barrier = threading.Barrier(n_threads, timeout=120)
        stores = [PlanStore(tmp_path) for _ in range(n_threads)]
        results: list[list] = [[] for _ in range(n_threads)]
        lost = [0] * n_threads
        errors = []

        def worker(tid):
            try:
                store = stores[tid]
                barrier.wait()
                for m, k in zip(lowers, keys, strict=True):
                    if store.save(compile_plan(m), k) is None:
                        lost[tid] += 1
                # every writer has committed or lost before any load
                barrier.wait()
                for m, k in zip(lowers, keys, strict=True):
                    results[tid].append(store.load(k, matrix=m))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
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
        # every save that lost the key's claim is counted as a race
        assert sum(s.counters()["save_races"] for s in stores) == sum(lost)
        assert (sum(s.counters()["saves"] for s in stores) + sum(lost)
                == n_threads * len(keys))
        # no torn reads: every thread's plans solve identically
        b = np.ones(90)
        x0 = get_backend("numpy").solve(results[0][0], b)
        for tid in range(n_threads):
            assert len(results[tid]) == len(keys)
            for plan in results[tid]:
                assert plan.n == 90
                assert plan.provenance == "store"
        for tid in range(1, n_threads):
            assert np.array_equal(
                get_backend("numpy").solve(results[tid][0], b), x0
            )


class TestWiring:
    def test_service_register_stamps_plan_source(self, tmp_path):
        """A plan loaded from the store and registered with ``plan=``
        reports ``plan_source == "store"`` and solves bit-equal to the
        compiled plan; a registration without one compiles."""
        from repro.service import SolveService

        lower = narrow_band_lower(80, 0.2, 5.0, seed=0)
        compiled = compile_plan(lower)
        store = PlanStore(tmp_path)
        key = plan_store_key(lower)
        assert store.save(compiled, key) is not None
        loaded = store.load(key, matrix=lower)
        b = np.random.default_rng(5).standard_normal(80)
        with SolveService() as svc:
            svc.register("compiled", lower)
            svc.register("sys", lower, plan=loaded)
            assert svc.stats("compiled").plan_source == "compiled"
            stats = svc.stats("sys")
            assert stats.plan_source == "store"
            assert stats.as_row()["plan_source"] == "store"
            assert np.array_equal(svc.solve("sys", b),
                                  svc.solve("compiled", b))

    def test_two_process_warm_start_zero_compiles(self, tmp_path):
        """The warm-start contract: a second process that takes every
        plan from a warm store through ``PlanStore.load`` performs ZERO
        ``compile_plan`` calls (counter-asserted, like the persistent-JIT
        warm-start check)."""
        probe = (
            "import json, sys\n"
            "from repro.exec import compile_count, compile_plan\n"
            "from repro.matrix.generators import narrow_band_lower\n"
            "from repro.store import PlanStore, plan_store_key\n"
            "mode, path = sys.argv[1:]\n"
            "store = PlanStore(path)\n"
            "plans = []\n"
            "for seed in (0, 1):\n"
            "    L = narrow_band_lower(100, 0.25, 6.0, seed=seed)\n"
            "    for M, d in ((L, 'forward'), "
            "(L.transpose(), 'backward')):\n"
            "        key = plan_store_key(M, direction=d)\n"
            "        if mode == 'write':\n"
            "            plan = compile_plan(M, direction=d)\n"
            "            assert store.save(plan, key) is not None\n"
            "        else:\n"
            "            plan = store.load(key, matrix=M)\n"
            "        plans.append(plan)\n"
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

        def run(mode):
            proc = subprocess.run(
                [sys.executable, "-c", probe, mode, str(tmp_path)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold = run("write")
        assert cold["compiles"] == 4
        assert cold["sources"] == ["compiled"]
        warm = run("read")
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
