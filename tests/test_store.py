"""The fleet-wide ObservationStore layer: the tuner's training
data-plane.

The load-bearing acceptance checks live here:

* measured races of :meth:`~repro.tuner.Autotuner.tune` append genuine
  observations to a configured store, and a subsequent ``retrain``
  produces a model whose warm start runs **zero races** on the same
  matrices;
* two stores built under different machine fingerprints merge
  deterministically, dedup identical observations, and a model trained
  on the merged store never mixes measured and simulated regimes;
* torn writes never lose the previous good profile/model/shard
  (atomic temp-file + rename everywhere persistence happens);
* coverage-aware pruning spans the observed feature space instead of
  forgetting whole regions the way FIFO truncation does.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import PlanCache, get_backend
from repro.experiments.datasets import DatasetInstance
from repro.experiments.parallel import run_suite_parallel
from repro.experiments.runner import compiled_entry, run_suite
from repro.machine.model import get_machine
from repro.matrix.generators import erdos_renyi_lower, narrow_band_lower
from repro.scheduler.registry import make_scheduler
from repro.solver.sptrsv import forward_substitution
from repro.store import (
    ObservationStore,
    build_record,
    coverage_prune,
    farthest_point_order,
    machine_fingerprint,
    record_key,
)
from repro.tuner import (
    Autotuner,
    LearnedTunerModel,
    TuningProfile,
    extract_features,
    load_model,
    load_profile,
    save_model,
    save_profile,
)

CANDIDATES = ("growlocal", "hdagg", "wavefront")
N_CORES = 8


@pytest.fixture(scope="module")
def machine():
    return get_machine("intel_xeon_6238t")


@pytest.fixture(scope="module")
def small_inst():
    return DatasetInstance(
        "store_nb", narrow_band_lower(400, 0.1, 8.0, seed=5)
    )


@pytest.fixture(scope="module")
def features(small_inst):
    return extract_features(small_inst, n_cores=N_CORES)


def _fill(store, features, scheduler, seconds_list, *, mode="simulated",
          reordered=False, n_cores=N_CORES):
    for seconds in seconds_list:
        store.add_observation(
            features, scheduler, seconds,
            scheduling_seconds=seconds / 10.0, n_cores=n_cores,
            mode=mode, reordered=reordered,
        )


# ---------------------------------------------------------------------------
# store basics
# ---------------------------------------------------------------------------
class TestStoreBasics:
    def test_in_memory_store_round_trip(self, features):
        store = ObservationStore(None, fingerprint="mem")
        record = store.add_observation(
            features, "growlocal", 1.5, mode="simulated", n_cores=4,
            machine="intel_xeon_6238t", source="tune",
        )
        assert len(store) == 1
        assert list(store) == [record]
        assert record["fingerprint"] == "mem"
        assert record["mode"] == "simulated"
        store.flush()  # no-op, never raises

    def test_rejects_non_regime_modes(self, features):
        """Producer-path invariant: only genuine measurement regimes
        enter the store — predictions (or untagged seconds) cannot."""
        store = ObservationStore(None)
        for bad in ("", "predicted", "learned", "wallclock"):
            with pytest.raises(ConfigurationError):
                store.add_observation(features, "growlocal", 1.0,
                                      mode=bad)
        assert len(store) == 0

    def test_disk_store_persists_across_reopen(self, tmp_path, features):
        path = tmp_path / "fleet"
        store = ObservationStore(path, fingerprint="m1")
        _fill(store, features, "growlocal", [1.0, 2.0])
        store.flush()
        again = ObservationStore(path, fingerprint="m1")
        assert len(again) == 2
        _fill(again, features, "hdagg", [3.0])
        again.flush()
        third = ObservationStore(path)
        assert len(third) == 3
        # the two writers claimed distinct shards
        shards = [f for f in os.listdir(path) if f.endswith(".jsonl")]
        assert len(shards) == 2

    def test_concurrent_writers_claim_distinct_shards(self, tmp_path,
                                                      features):
        path = tmp_path / "fleet"
        a = ObservationStore(path, fingerprint="w")
        b = ObservationStore(path, fingerprint="w")
        _fill(a, features, "growlocal", [1.0])
        _fill(b, features, "hdagg", [2.0])
        a.flush()
        b.flush()
        merged = ObservationStore(path)
        assert {r["scheduler"] for r in merged} == {"growlocal", "hdagg"}

    def test_unflushed_records_are_iterable(self, tmp_path, features):
        store = ObservationStore(tmp_path / "s", fingerprint="m")
        _fill(store, features, "serial", [1.0])
        assert len(store) == 1  # visible before flush

    def test_create_false_requires_existing_dir(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ObservationStore(tmp_path / "missing", create=False)

    def test_store_path_colliding_with_a_file_is_a_clear_error(
        self, tmp_path
    ):
        """Pointing --store at an existing regular file must raise the
        library error (CLI exit 2), not a raw FileExistsError."""
        collision = tmp_path / "profile.json"
        collision.write_text("{}")
        with pytest.raises(ConfigurationError):
            ObservationStore(collision)

    def test_unknown_store_version_raises(self, tmp_path):
        path = tmp_path / "future"
        path.mkdir()
        (path / "store.json").write_text('{"version": 99}')
        with pytest.raises(ConfigurationError):
            ObservationStore(path)

    def test_corrupt_lines_are_skipped(self, tmp_path, features):
        path = tmp_path / "fleet"
        store = ObservationStore(path, fingerprint="m1")
        _fill(store, features, "growlocal", [1.0])
        store.flush()
        (path / "obs-handedit-0000.jsonl").write_text(
            "not json\n" + json.dumps(
                build_record(features, "hdagg", 2.0, mode="simulated")
            ) + "\n"
        )
        assert len(ObservationStore(path)) == 2

    def test_fingerprint_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE_FINGERPRINT", "ci-x")
        assert machine_fingerprint() == "ci-x"
        monkeypatch.delenv("REPRO_MACHINE_FINGERPRINT")
        assert machine_fingerprint() != "ci-x"

    def test_fingerprint_is_sanitized_for_shard_names(self, tmp_path,
                                                      features,
                                                      monkeypatch):
        """A path-separator-bearing fingerprint (a natural hostname
        override) must neither crash the flush nor write shards the
        store cannot see again."""
        store = ObservationStore(tmp_path / "s", fingerprint="node/1")
        assert "/" not in store.fingerprint
        _fill(store, features, "serial", [1.0])
        store.flush()
        assert len(ObservationStore(tmp_path / "s")) == 1
        monkeypatch.setenv("REPRO_MACHINE_FINGERPRINT", "../escape")
        assert "/" not in machine_fingerprint()

    def test_record_key_is_content_identity(self, features):
        a = build_record(features, "growlocal", 1.0, mode="simulated",
                         fingerprint="m1")
        b = build_record(features, "growlocal", 1.0, mode="simulated",
                         fingerprint="m1")
        c = build_record(features, "growlocal", 1.0, mode="simulated",
                         fingerprint="m2")
        assert record_key(a) == record_key(b)
        assert record_key(a) != record_key(c)


# ---------------------------------------------------------------------------
# atomic persistence (satellite: torn writes never lose the good file)
# ---------------------------------------------------------------------------
class TestAtomicWrites:
    def _assert_no_temp_litter(self, directory):
        assert not [f for f in os.listdir(directory)
                    if f.endswith(".tmp")]

    def test_save_profile_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "profile.json"
        good = TuningProfile(machine="good-machine")
        save_profile(good, path)
        bad = TuningProfile(machine="bad")
        bad.entries["k"] = {"unserializable": object()}
        with pytest.raises(TypeError):
            save_profile(bad, path)
        assert load_profile(path).machine == "good-machine"
        self._assert_no_temp_litter(tmp_path)

    def test_save_model_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(LearnedTunerModel.fit([]), path)

        class Broken(LearnedTunerModel):
            def as_dict(self):
                return {"version": 1, "oops": object()}

        with pytest.raises(TypeError):
            save_model(Broken(), path)
        assert len(load_model(path)) == 0
        self._assert_no_temp_litter(tmp_path)

    def test_store_flush_failure_keeps_previous_shard(self, tmp_path,
                                                      features):
        path = tmp_path / "fleet"
        store = ObservationStore(path, fingerprint="m")
        _fill(store, features, "growlocal", [1.0])
        store.flush()
        # a record the JSON encoder chokes on: the whole shard content
        # is serialized before any byte is written, so the flushed line
        # survives
        store._writer_records.append({"bad": object()})
        store._dirty = True
        with pytest.raises(TypeError):
            store.flush()
        assert len(ObservationStore(path)) == 1
        self._assert_no_temp_litter(path)


# ---------------------------------------------------------------------------
# merge (satellite: cross-machine determinism + dedup + regimes)
# ---------------------------------------------------------------------------
class TestMerge:
    def _two_machine_stores(self, tmp_path, features):
        shared = build_record(features, "serial", 9.0, mode="simulated",
                              n_cores=N_CORES, fingerprint="shared")
        a = ObservationStore(tmp_path / "a", fingerprint="m1")
        _fill(a, features, "growlocal", [1.0, 2.0])
        a.ingest([dict(shared)])
        a.flush()
        b = ObservationStore(tmp_path / "b", fingerprint="m2")
        _fill(b, features, "growlocal", [1.5, 2.5])
        b.ingest([dict(shared)])
        b.flush()
        return a, b

    def test_cross_machine_merge_dedups_and_is_deterministic(
        self, tmp_path, features
    ):
        a, b = self._two_machine_stores(tmp_path, features)
        first = ObservationStore(tmp_path / "m_first",
                                 fingerprint="dest")
        stats_first = first.merge([a.path, b.path])
        second = ObservationStore(tmp_path / "m_second",
                                  fingerprint="dest")
        stats_second = second.merge([a.path, b.path])

        assert stats_first == stats_second
        assert list(first) == list(second)  # deterministic merge
        assert stats_first.records_read == len(a) + len(b) == 6
        # the byte-identical "shared" record collapsed once
        assert stats_first.duplicates == 1
        assert stats_first.added == 5
        fingerprints = {r["fingerprint"] for r in first}
        assert fingerprints == {"m1", "m2", "shared"}

    def test_remerge_is_idempotent(self, tmp_path, features):
        a, b = self._two_machine_stores(tmp_path, features)
        dest = ObservationStore(tmp_path / "dest", fingerprint="dest")
        dest.merge([a.path, b.path])
        before = list(dest)
        stats = dest.merge([a.path, b.path])
        assert stats.added == 0
        assert stats.duplicates == stats.records_read
        assert list(dest) == before

    def test_model_from_merged_store_trains_on_one_regime(
        self, tmp_path, features
    ):
        """A merged fleet store with both regimes never pools them into
        one ranking: fit trains on the majority (or explicit) regime
        only, and the model records which."""
        a = ObservationStore(tmp_path / "sim", fingerprint="m1")
        _fill(a, features, "growlocal", [1.0, 1.1, 1.2, 1.3],
              mode="simulated")
        a.flush()
        b = ObservationStore(tmp_path / "meas", fingerprint="m2")
        _fill(b, features, "growlocal", [5.0, 5.5], mode="measured")
        b.flush()
        merged = ObservationStore(tmp_path / "merged",
                                  fingerprint="dest")
        merged.merge([a.path, b.path])

        majority = LearnedTunerModel.fit(merged)
        assert majority.mode == "simulated"
        assert majority.n_samples("growlocal") == 4
        measured = LearnedTunerModel.fit(merged, mode="measured")
        assert measured.mode == "measured"
        assert measured.n_samples("growlocal") == 2

    def test_merge_requires_existing_sources(self, tmp_path):
        dest = ObservationStore(tmp_path / "dest")
        with pytest.raises(ConfigurationError):
            dest.merge([tmp_path / "nope"])


# ---------------------------------------------------------------------------
# coverage-aware pruning (replaces FIFO truncation)
# ---------------------------------------------------------------------------
class TestPrune:
    def test_farthest_point_order_covers_clusters(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                        [50.0, 50.0], [50.1, 50.0]])
        picked = pts[farthest_point_order(pts, k=2)]
        # one representative per cluster, not two from the bigger one
        assert (picked[:, 0] < 1.0).sum() == 1
        assert (picked[:, 0] > 49.0).sum() == 1

    def _clustered_records(self):
        f_band = extract_features(
            narrow_band_lower(300, 0.1, 6.0, seed=1), n_cores=N_CORES
        )
        f_er = extract_features(
            erdos_renyi_lower(300, 0.02, seed=2), n_cores=N_CORES
        )
        records = []
        # 50 old records covering the ER cluster, then 50 new narrow-
        # band ones: FIFO truncation to 10 would forget ER entirely
        for i in range(50):
            records.append(build_record(
                f_er, "growlocal", 2.0 + i * 1e-3, mode="simulated",
                n_cores=N_CORES,
            ))
        for i in range(50):
            records.append(build_record(
                f_band, "growlocal", 1.0 + i * 1e-3, mode="simulated",
                n_cores=N_CORES,
            ))
        return records, f_er, f_band

    def test_prune_spans_feature_space_not_recency(self):
        records, f_er, f_band = self._clustered_records()
        kept = coverage_prune(records, 10)
        assert len(kept) == 10
        kept_ns = {r["features"]["n"] for r in kept}
        # both clusters survive (FIFO would have dropped all ER records)
        fingerprints = {
            json.dumps(r["features"], sort_keys=True) for r in kept
        }
        assert json.dumps(f_er.as_dict(), sort_keys=True) in fingerprints
        assert json.dumps(f_band.as_dict(), sort_keys=True) in fingerprints
        assert kept_ns == {300}

    def test_prune_is_deterministic_and_keeps_every_variant(self):
        records, _, _ = self._clustered_records()
        # add a second (scheduler, reordered, mode) variant with few
        # records: proportional budgets must still keep at least one
        tail = [build_record(
            extract_features(narrow_band_lower(200, 0.1, 5.0, seed=3),
                             n_cores=N_CORES),
            "hdagg", 4.0, mode="measured", n_cores=N_CORES,
        )]
        full = records + tail
        once = coverage_prune(list(full), 10)
        twice = coverage_prune(list(full), 10)
        assert once == twice
        assert {r["scheduler"] for r in once} == {"growlocal", "hdagg"}

    def test_prune_keeps_newest_record_per_feature_vector(self):
        records, _, _ = self._clustered_records()
        kept = coverage_prune(records, 2)
        # per surviving vector the newest (last-appended) record wins
        by_sched = sorted(r["seconds"] for r in kept)
        assert by_sched == [pytest.approx(1.0 + 49e-3),
                            pytest.approx(2.0 + 49e-3)]

    def test_store_prune_rewrites_shards(self, tmp_path):
        records, _, _ = self._clustered_records()
        store = ObservationStore(tmp_path / "s", fingerprint="m1")
        store.ingest(records[:60])
        store.flush()
        other = ObservationStore(tmp_path / "s", fingerprint="m2")
        other.ingest(records[60:])
        other.flush()
        pruner = ObservationStore(tmp_path / "s", fingerprint="p")
        stats = pruner.prune(10)
        assert (stats.before, stats.after) == (100, 10)
        assert stats.dropped == 90
        reopened = ObservationStore(tmp_path / "s")
        assert len(reopened) == 10
        # superseded shards are gone; only the pruned shard remains
        shards = [f for f in os.listdir(tmp_path / "s")
                  if f.endswith(".jsonl")]
        assert len(shards) == 1

    def test_prune_below_budget_is_a_no_op(self, tmp_path, features):
        store = ObservationStore(tmp_path / "s")
        _fill(store, features, "serial", [1.0, 2.0])
        stats = store.prune(10)
        assert (stats.before, stats.after, stats.dropped) == (2, 2, 0)
        assert len(store) == 2


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------
class TestStats:
    def test_stats_shape_and_counts(self, tmp_path, features):
        store = ObservationStore(tmp_path / "s", fingerprint="m1")
        _fill(store, features, "growlocal", [1.0, 1.1],
              mode="simulated", reordered=True)
        _fill(store, features, "growlocal", [5.0], mode="measured")
        _fill(store, features, "serial", [2.0], mode="simulated")
        store.flush()
        stats = store.stats()
        assert stats["n_observations"] == 4
        assert stats["n_shards"] == 1
        assert stats["machines"] == ["m1"]
        assert stats["modes"] == {"simulated": 3, "measured": 1}
        growlocal = stats["schedulers"]["growlocal"]
        assert growlocal["n"] == 3
        assert growlocal["regimes"]["simulated"]["n"] == 2
        assert growlocal["regimes"]["simulated"]["reordered"] == 2
        assert growlocal["regimes"]["simulated"]["unique_features"] == 1
        assert growlocal["regimes"]["measured"]["n"] == 1
        assert stats["schedulers"]["serial"]["n"] == 1
        assert "trained" in stats


# ---------------------------------------------------------------------------
# staleness-triggered retraining
# ---------------------------------------------------------------------------
class TestRetrain:
    def test_retrain_fires_on_staleness_then_gates(self, tmp_path,
                                                   features):
        store = ObservationStore(tmp_path / "s", fingerprint="m1")
        _fill(store, features, "growlocal", [1.0, 1.2, 1.4])
        _fill(store, features, "serial", [3.0, 3.1, 3.2])
        # a never-trained regime is stale however small min_new is set
        assert store.needs_retrain()
        model = store.retrain(model_path=tmp_path / "model.json")
        assert model is not None and model.mode == "simulated"
        assert set(model.schedulers) == {"growlocal", "serial"}
        assert len(load_model(tmp_path / "model.json")) == len(model)

        # watermark advanced: nothing new -> no retrain
        assert not store.needs_retrain()
        assert store.retrain() is None

        # a few new observations stay under the default gate ...
        _fill(store, features, "growlocal", [1.6])
        assert store.retrain() is None
        # ... but clear an explicit low gate, and force always works
        assert store.retrain(min_new=1) is not None
        assert store.retrain(force=True) is not None

    def test_prune_clamps_the_retrain_watermark(self, tmp_path,
                                                features):
        """Pruning shrinks the count; the watermark must follow, or
        the staleness gate stays jammed until the count re-exceeds its
        pre-prune level."""
        store = ObservationStore(tmp_path / "s")
        _fill(store, features, "growlocal",
              [1.0 + i * 0.01 for i in range(20)])
        assert store.retrain() is not None  # watermark at 20
        store.prune(5)
        # new traffic after the prune must re-trigger staleness with a
        # low gate even though the absolute count (5 + new) is far
        # below the old watermark
        _fill(store, features, "growlocal", [2.0, 2.1])
        assert store.needs_retrain(min_new=2)
        assert store.retrain(min_new=2) is not None

    def test_empty_fit_never_replaces_an_existing_model(self, tmp_path,
                                                        features):
        """A forced retrain on too little data must raise, not replace
        a working model file with an empty one."""
        path = tmp_path / "model.json"
        rich = ObservationStore(tmp_path / "rich")
        for name in ("growlocal", "hdagg", "serial"):
            _fill(rich, features, name, [1.0, 1.1, 1.2])
        assert len(rich.retrain(model_path=path)) == 3
        before = path.read_bytes()

        thin = ObservationStore(tmp_path / "thin")
        _fill(thin, features, "growlocal", [1.0])
        _fill(thin, features, "hdagg", [2.0])
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            thin.retrain(force=True, model_path=path)
        assert path.read_bytes() == before
        assert len(load_model(path).schedulers) == 3

    def test_empty_fit_does_not_advance_the_watermark(self, tmp_path,
                                                      features):
        store = ObservationStore(tmp_path / "s")
        _fill(store, features, "growlocal", [1.0])  # below min_fit
        model = store.retrain()
        assert model is not None and len(model) == 0
        # nothing was learned: the regime stays stale
        assert store.needs_retrain()

    def test_retrain_on_empty_store_returns_none(self, tmp_path):
        store = ObservationStore(tmp_path / "s")
        assert not store.needs_retrain()
        assert store.retrain(force=True) is None

    def test_retrain_trains_one_regime_only(self, tmp_path, features):
        store = ObservationStore(tmp_path / "s")
        _fill(store, features, "growlocal", [1.0, 1.1, 1.2],
              mode="simulated")
        _fill(store, features, "growlocal", [9.0, 9.5], mode="measured")
        model = store.retrain(force=True)  # majority regime: simulated
        assert model.mode == "simulated"
        assert model.n_samples("growlocal") == 3
        measured = store.retrain(mode="measured", force=True)
        assert measured.mode == "measured"
        assert measured.n_samples("growlocal") == 2

    def test_retrain_rejects_unknown_mode(self, tmp_path):
        store = ObservationStore(tmp_path / "s")
        with pytest.raises(ConfigurationError):
            store.retrain(mode="predicted")


# ---------------------------------------------------------------------------
# tuner -> store integration
# ---------------------------------------------------------------------------
class TestTunerStoreIntegration:
    def test_tune_with_store_keeps_profile_thin(self, tmp_path, machine,
                                                small_inst):
        store = ObservationStore(tmp_path / "s", fingerprint="m1")
        profile = TuningProfile(machine=machine.name)
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=1e15, seed=0)
        decision = tuner.tune(small_inst, machine, n_cores=N_CORES,
                              profile=profile, store=store)
        assert decision.source == "raced"
        # observations went to the store; the profile holds the decision
        assert set(profile.as_dict()) == {"version", "machine", "entries"}
        assert len(profile) == 1
        records = list(store)
        assert len(records) == len(CANDIDATES) + 1
        assert all(r["mode"] == "simulated" for r in records)
        assert all(r["source"] == "tune" for r in records)
        assert all(r["machine"] == machine.name for r in records)
        assert all(r["fingerprint"] == "m1" for r in records)

        # warm start appends nothing
        warm = Autotuner(candidates=CANDIDATES, mode="simulated",
                         expected_solves=1e15, seed=0)
        again = warm.tune(small_inst, machine, n_cores=N_CORES,
                          profile=profile, store=store)
        assert again.source == "profile"
        assert len(store) == len(records)

    def test_fit_consumes_store_iterator(self, tmp_path, machine):
        """LearnedTunerModel.fit trains straight off a store — no
        materialized profile list in between."""
        store = ObservationStore(tmp_path / "s")
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=1e15, seed=0)
        for i in range(3):
            inst = DatasetInstance(
                f"fit{i}", narrow_band_lower(250 + 50 * i, 0.1,
                                             6.0 + i, seed=500 + i)
            )
            tuner.tune(inst, machine, n_cores=N_CORES, store=store)
        store.flush()
        model = LearnedTunerModel.fit(store)
        assert set(model.schedulers) == set(CANDIDATES) | {"serial"}

    def test_run_suite_routes_auto_observations_to_store(
        self, tmp_path, machine
    ):
        instances = [
            DatasetInstance(
                f"suite{i}", narrow_band_lower(250 + 40 * i, 0.1, 6.0,
                                               seed=600 + i)
            )
            for i in range(2)
        ]
        store = ObservationStore(tmp_path / "s")
        schedulers = {
            "auto": make_scheduler(
                "auto",
                tuner=Autotuner(candidates=CANDIDATES, mode="simulated",
                                expected_solves=1e15, seed=0),
            ),
            "growlocal": make_scheduler("growlocal"),
        }
        run_suite(instances, schedulers, machine, n_cores=N_CORES,
                  store=store)
        records = list(ObservationStore(tmp_path / "s"))  # flushed
        assert len(records) == 2 * (len(CANDIDATES) + 1)
        assert all(r["source"] == "suite" for r in records)

    def test_parallel_suite_merges_worker_stores(self, tmp_path,
                                                 machine):
        instances = [
            DatasetInstance(
                f"par{i}", narrow_band_lower(250 + 40 * i, 0.1, 6.0,
                                             seed=700 + i)
            )
            for i in range(3)
        ]

        def schedulers():
            return {
                "auto": make_scheduler(
                    "auto",
                    tuner=Autotuner(candidates=CANDIDATES,
                                    mode="simulated",
                                    expected_solves=1e15, seed=0),
                ),
            }

        store = ObservationStore(tmp_path / "sharded")
        run_suite_parallel(instances, schedulers(), machine,
                           n_cores=4, workers=2, store=store)
        records = list(ObservationStore(tmp_path / "sharded"))
        assert len(records) == 3 * (len(CANDIDATES) + 1)
        # deterministic merge: records land grouped in instance order
        # (each instance has a distinct n), regardless of which worker
        # finished first
        sizes = [r["features"]["n"] for r in records]
        per_inst = len(CANDIDATES) + 1
        assert sizes == [n for n in (250, 290, 330)
                         for _ in range(per_inst)]
        assert all(r["source"] == "suite" for r in records)
        # simulated per-solve seconds match the sequential suite's
        # determinism guarantees: same records modulo wall-clock
        # scheduling_seconds
        single = ObservationStore(tmp_path / "single")
        run_suite_parallel(instances, schedulers(), machine,
                           n_cores=4, workers=1, store=single)
        strip = [
            {k: v for k, v in r.items() if k != "scheduling_seconds"}
            for r in records
        ]
        strip_single = [
            {k: v for k, v in r.items() if k != "scheduling_seconds"}
            for r in ObservationStore(tmp_path / "single")
        ]
        assert strip == strip_single

    def test_parallel_suite_honors_pre_attached_store(self, tmp_path,
                                                      machine):
        """Regression: AutoScheduler(store=...) run through worker
        processes must not append to pickled store copies — the
        attached store becomes the parent-side merge destination."""
        fleet = ObservationStore(tmp_path / "fleet")
        instances = [
            DatasetInstance(
                f"pre{i}", narrow_band_lower(240 + 40 * i, 0.1, 6.0,
                                             seed=900 + i)
            )
            for i in range(2)
        ]
        auto = make_scheduler(
            "auto",
            store=fleet,
            tuner=Autotuner(candidates=CANDIDATES, mode="simulated",
                            expected_solves=1e15, seed=0),
        )
        run_suite_parallel(instances, {"auto": auto}, machine,
                           n_cores=4, workers=2)
        assert len(ObservationStore(tmp_path / "fleet")) \
            == 2 * (len(CANDIDATES) + 1)
        # two different pre-attached stores are ambiguous
        other = make_scheduler(
            "auto",
            store=ObservationStore(tmp_path / "other"),
            tuner=Autotuner(candidates=CANDIDATES, mode="simulated",
                            expected_solves=1e15, seed=1),
        )
        with pytest.raises(ConfigurationError):
            run_suite_parallel(instances, {"a": auto, "b": other},
                               machine, n_cores=4, workers=2)

    def test_run_suite_restores_scheduler_attachments(self, tmp_path,
                                                      machine):
        fleet = ObservationStore(tmp_path / "fleet")
        suite_store = ObservationStore(tmp_path / "suite")
        auto = make_scheduler(
            "auto",
            store=fleet,
            tuner=Autotuner(candidates=CANDIDATES, mode="simulated",
                            expected_solves=1e15, seed=0),
        )
        auto.tuner.observation_source = "custom"
        inst = DatasetInstance(
            "rs_nb", narrow_band_lower(240, 0.1, 6.0, seed=910)
        )
        run_suite([inst], {"auto": auto}, machine, n_cores=4,
                  store=suite_store)
        assert len(suite_store) == len(CANDIDATES) + 1
        assert auto.observation_store is fleet
        assert auto.tuner.observation_source == "custom"

    def test_workers_one_restores_caller_store_attachment(
        self, tmp_path, machine
    ):
        """Regression: with workers=1 the shards run on the caller's
        live scheduler objects — the throwaway per-shard sink must not
        stay attached (later observations would be silently lost)."""
        fleet = ObservationStore(tmp_path / "fleet")
        auto = make_scheduler(
            "auto",
            store=fleet,
            tuner=Autotuner(candidates=CANDIDATES, mode="simulated",
                            expected_solves=1e15, seed=0),
        )
        auto.tuner.observation_source = "custom"
        inst = DatasetInstance(
            "restore_nb", narrow_band_lower(260, 0.1, 6.0, seed=800)
        )
        other = ObservationStore(tmp_path / "other")
        run_suite_parallel([inst], {"auto": auto}, machine,
                           n_cores=4, workers=1, store=other)
        assert auto._store is fleet
        assert auto.tuner.observation_source == "custom"
        # a later direct decision still reaches the caller's store
        inst2 = DatasetInstance(
            "restore_nb2", narrow_band_lower(280, 0.1, 6.0, seed=801)
        )
        auto.resolve_for_instance(inst2, machine, n_cores=4)
        assert any(r["source"] == "custom" for r in fleet)


# ---------------------------------------------------------------------------
# the acceptance loop: measured races -> store -> retrain -> zero-race warm
# ---------------------------------------------------------------------------
class TestServiceStoreLoop:
    """The measured loop on ``reorder=False`` plans, the unpermuted
    systems a solve service serves."""

    def test_measured_races_feed_store_and_retrain_warm_starts(
        self, tmp_path, machine
    ):
        """Acceptance: measured races append observations to a
        configured store; retraining from that store yields a model
        whose warm start runs zero races on the same matrices."""
        insts = [
            DatasetInstance(
                f"loop{i}",
                narrow_band_lower(250 + 60 * i, 0.12, 6.0 + i,
                                  seed=300 + i),
            )
            for i in range(3)
        ]
        store = ObservationStore(tmp_path / "fleet", fingerprint="svc")
        profile = TuningProfile(machine=machine.name)
        cache = PlanCache()
        tuner = Autotuner(candidates=CANDIDATES, mode="measured",
                          budget_seconds=0.02, seed=0)
        cold = [
            tuner.tune(inst, machine, n_cores=N_CORES, reorder=False,
                       plan_cache=cache, profile=profile, store=store)
            for inst in insts
        ]
        store.flush()
        assert tuner.races_run == len(insts)
        # the records were flushed to disk: a fresh reader sees them
        records = list(ObservationStore(store.path, create=False))
        assert records
        # genuine measured seconds only: wall-clock regime, the tuner's
        # provenance, the unpermuted (reorder=False) variant
        assert all(r["mode"] == "measured" for r in records)
        assert all(r["source"] == "tune" for r in records)
        assert all(r["reordered"] is False for r in records)
        assert all(r["seconds"] > 0 for r in records)

        model = store.retrain(model_path=tmp_path / "model.json")
        assert model is not None and model.mode == "measured"
        assert model.schedulers  # the races covered the finalists

        warm_tuner = Autotuner(candidates=CANDIDATES, mode="measured",
                               budget_seconds=0.02, seed=0,
                               prior="learned", model=model,
                               min_prediction_samples=2,
                               max_prediction_std=100.0)
        n_before = len(store)
        warm = [
            warm_tuner.tune(inst, machine, n_cores=N_CORES,
                            reorder=False, plan_cache=cache,
                            profile=profile, store=store)
            for inst in insts
        ]
        assert warm_tuner.races_run == 0  # every decision came warm
        assert [d.scheduler for d in warm] == [d.scheduler for d in cold]
        assert all(d.source == "profile" for d in warm)
        assert len(store) == n_before  # warm starts append nothing
        # the warm fast path skipped the prior entirely: the learned
        # prior never scored (or fell back on) a single candidate
        assert warm_tuner.learned_prior.n_predicted == 0
        assert warm_tuner.learned_prior.n_fallback == 0
        # each warm pick solves the original system
        rng = np.random.default_rng(3)
        for inst, decision in zip(insts, warm, strict=True):
            plan = compiled_entry(
                inst, make_scheduler(decision.scheduler), N_CORES, False,
                cache,
            ).plan
            b = rng.standard_normal(inst.n)
            np.testing.assert_allclose(
                get_backend().solve(plan, b),
                forward_substitution(inst.lower, b), rtol=1e-10,
            )

    def test_empty_store_keeps_cost_prior_bit_identical(self, tmp_path,
                                                        machine):
        """An empty store degrades to the PR 3 behavior: retrain yields
        no model, and a learned-prior tuner without one decides exactly
        like the cost-model tuner."""
        store = ObservationStore(tmp_path / "empty")
        assert store.retrain(force=True) is None
        inst = DatasetInstance(
            "empty_nb", narrow_band_lower(300, 0.1, 8.0, seed=9)
        )
        cache = PlanCache()
        cost = Autotuner(candidates=CANDIDATES, mode="simulated",
                         expected_solves=1e15, seed=0)
        learned = Autotuner(candidates=CANDIDATES, mode="simulated",
                            expected_solves=1e15, seed=0,
                            prior="learned")
        a = cost.tune(inst, machine, n_cores=N_CORES, plan_cache=cache)
        b = learned.tune(inst, machine, n_cores=N_CORES,
                         plan_cache=cache, store=store)
        assert a.as_dict() == b.as_dict()
