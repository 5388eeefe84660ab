"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.matrix.generators import narrow_band_lower
from repro.matrix.io_mm import write_matrix_market


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "L.mtx"
    write_matrix_market(narrow_band_lower(300, 0.14, 8.0, seed=0), path)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_and_schedule(tmp_path, capsys):
    mtx = str(tmp_path / "m.mtx")
    assert main(["generate", "--kind", "erdos_renyi", "--n", "300",
                 "--p", "0.01", "--seed", "1", "--output", mtx]) == 0
    sched = str(tmp_path / "s.json")
    assert main(["schedule", "--matrix", mtx, "--scheduler", "growlocal",
                 "--cores", "4", "--output", sched]) == 0
    out = capsys.readouterr().out
    assert "supersteps" in out
    assert "wrote" in out


def test_solve_with_and_without_schedule(matrix_file, tmp_path, capsys):
    sched = str(tmp_path / "s.json")
    main(["schedule", "--matrix", matrix_file, "--cores", "4",
          "--output", sched])
    xout = str(tmp_path / "x.npy")
    assert main(["solve", "--matrix", matrix_file, "--schedule", sched,
                 "--output", xout]) == 0
    x_sched = np.load(xout)
    assert main(["solve", "--matrix", matrix_file,
                 "--output", xout]) == 0
    x_serial = np.load(xout)
    np.testing.assert_allclose(x_sched, x_serial, rtol=1e-10)


def test_solve_with_torn_schedule_is_a_clean_error(matrix_file, tmp_path,
                                                    capsys):
    sched = tmp_path / "s.json"
    main(["schedule", "--matrix", matrix_file, "--cores", "4",
          "--output", str(sched)])
    sched.write_text(sched.read_text()[:-10])  # a write cut short
    capsys.readouterr()
    assert main(["solve", "--matrix", matrix_file,
                 "--schedule", str(sched)]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_custom_rhs(matrix_file, tmp_path):
    rhs = tmp_path / "b.npy"
    np.save(rhs, np.linspace(1, 2, 300))
    assert main(["solve", "--matrix", matrix_file,
                 "--rhs", str(rhs)]) == 0


def test_simulate(matrix_file, tmp_path, capsys):
    sched = str(tmp_path / "s.json")
    main(["schedule", "--matrix", matrix_file, "--cores", "4",
          "--output", sched])
    assert main(["simulate", "--matrix", matrix_file,
                 "--schedule", sched]) == 0
    out = capsys.readouterr().out
    assert "speed-up" in out


def test_compare(matrix_file, capsys):
    assert main(["compare", "--matrix", matrix_file,
                 "--cores", "4"]) == 0
    out = capsys.readouterr().out
    assert "growlocal" in out
    assert "hdagg" in out


def test_machines(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "intel_xeon_6238t" in out


def test_datasets_narrow_band(capsys):
    assert main(["datasets", "--name", "narrow_band"]) == 0
    assert "NB_10k" in capsys.readouterr().out


def test_suite_sharded(capsys):
    assert main(["suite", "--dataset", "erdos_renyi", "--limit", "2",
                 "--schedulers", "growlocal,hdagg", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "growlocal" in out and "hdagg" in out
    assert "geomean speed-up" in out
    assert "plan cache" in out


def test_suite_handles_never_amortizing_scheduler(capsys):
    """Regression: an all-inf amortization column (parallel never beats
    serial, e.g. hdagg on narrow-band) must render as '-', not error."""
    assert main(["suite", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "hdagg"]) == 0
    out = capsys.readouterr().out
    assert "hdagg" in out


def test_suite_rejects_unknown_scheduler(capsys):
    assert main(["suite", "--dataset", "erdos_renyi", "--limit", "1",
                 "--schedulers", "nope"]) == 2
    assert "unknown schedulers" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    pytest.param(["--rate", "inf"], id="rate-inf"),
    pytest.param(["--rate", "nan"], id="rate-nan"),
    pytest.param(["--duration", "inf"], id="duration-inf"),
    pytest.param(["--zipf", "nan"], id="zipf-nan"),
    pytest.param(["--timeout", "nan"], id="timeout-nan"),
])
def test_loadgen_refuses_non_finite_values(flags, capsys):
    """``--rate inf`` used to loop forever building the schedule; every
    non-finite rate, duration, skew or deadline is a one-line error."""
    assert main(["loadgen", "--systems", "1", *flags]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_error(capsys):
    assert main(["schedule", "--matrix", "/nonexistent.mtx"]) == 2


def test_generate_all_kinds(tmp_path):
    for kind in ("erdos_renyi", "narrow_band", "grid2d", "rcm_mesh"):
        out = str(tmp_path / f"{kind}.mtx")
        assert main(["generate", "--kind", kind, "--n", "100",
                     "--output", out]) == 0


def test_compare_json(matrix_file, capsys):
    import json

    assert main(["compare", "--matrix", matrix_file, "--cores", "4",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 300
    names = {r["scheduler"] for r in data["results"]}
    assert {"growlocal", "hdagg"} <= names
    # strict JSON: the sanitizer must have mapped inf to null
    for r in data["results"]:
        amort = r["amortization"]
        assert amort is None or isinstance(amort, (int, float))


def test_suite_json(capsys):
    import json

    assert main(["suite", "--dataset", "erdos_renyi", "--limit", "1",
                 "--schedulers", "growlocal,hdagg", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_instances"] == 1
    assert set(data["results"]) == {"growlocal", "hdagg"}
    assert set(data["geomean_speedup"]) == {"growlocal", "hdagg"}
    row = data["results"]["growlocal"][0]
    assert row["n_cores"] > 0 and row["speedup"] > 0


def test_tune_writes_profile_and_warm_starts(tmp_path, capsys):
    import json

    profile = str(tmp_path / "profile.json")
    args = ["tune", "--dataset", "narrow_band", "--limit", "1",
            "--schedulers", "growlocal,hdagg", "--mode", "simulated",
            "--seed", "0", "--cores", "8"]
    assert main([*args, "--output", profile, "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["races_run"] == 1 and cold["warm_starts"] == 0
    picked = [d["scheduler"] for d in cold["decisions"]]
    assert all(p in ("growlocal", "hdagg", "serial") for p in picked)

    # re-running against the written profile skips racing entirely
    assert main([*args, "--profile", profile, "--json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["races_run"] == 0 and warm["warm_starts"] == 1
    assert all(d["source"] == "profile" for d in warm["decisions"])
    assert [d["scheduler"] for d in warm["decisions"]] == picked


def test_tune_table_output(tmp_path, capsys):
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "growlocal,hdagg", "--mode", "simulated",
                 "--cores", "8"]) == 0
    out = capsys.readouterr().out
    assert "tune: narrow_band" in out
    assert "race(s)" in out


def test_tune_rejects_unknown_candidates(capsys):
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "nope"]) == 2
    assert "candidate" in capsys.readouterr().err


def test_tune_rejects_auto_as_candidate(capsys):
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "auto"]) == 2
    assert "candidate" in capsys.readouterr().err


def test_tune_train_writes_model_and_warm_learned_run(tmp_path, capsys):
    import json

    profile = str(tmp_path / "profile.json")
    model = str(tmp_path / "model.json")
    args = ["tune", "--dataset", "narrow_band", "--limit", "2",
            "--schedulers", "growlocal,hdagg", "--mode", "simulated",
            "--seed", "0", "--cores", "8"]

    # cold run: races, writes profile incl. training observations
    assert main([*args, "--output", profile, "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["prior"] == "cost"
    # (growlocal, hdagg, serial) observed on each of the 2 instances
    assert cold["n_observations"] == 6
    picked = [d["scheduler"] for d in cold["decisions"]]

    # --train: warm-runs against the profile, fits + writes the model
    assert main([*args, "--profile", profile, "--train",
                 "--model", model, "--json"]) == 0
    trained = json.loads(capsys.readouterr().out)
    assert trained["races_run"] == 0 and trained["warm_starts"] == 2
    assert set(trained["trained"]["schedulers"]) == {
        "growlocal", "hdagg", "serial"
    }

    # --model implies the learned prior; the profile still warm-starts
    assert main([*args, "--profile", profile, "--model", model,
                 "--json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["prior"] == "learned"
    assert warm["races_run"] == 0
    assert [d["scheduler"] for d in warm["decisions"]] == picked

    # without the profile the learned prior actually predicts (the
    # tiny store clears a min-samples gate of 1)
    assert main([*args, "--model", model, "--min-samples", "1",
                 "--max-std", "100", "--json"]) == 0
    learned = json.loads(capsys.readouterr().out)
    assert learned["prior"] == "learned"
    assert learned["learned_prior"]["n_predicted"] > 0


def test_tune_writes_sidecar_store(tmp_path, capsys):
    import json

    from repro.store import ObservationStore

    profile = str(tmp_path / "profile.json")
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "growlocal,hdagg", "--mode", "simulated",
                 "--seed", "0", "--cores", "8", "--output", profile,
                 "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["store"] == profile + ".store"
    assert cold["n_observations"] == 3
    store = ObservationStore(profile + ".store", create=False)
    assert len(store) == 3
    # the profile itself stays a thin v3 decision cache
    data = json.loads(open(profile).read())
    assert data["version"] == 3
    assert "observations" not in data


def test_tune_explicit_store_and_refused_v2_profile(tmp_path, capsys):
    import json

    from repro.store import ObservationStore

    profile = str(tmp_path / "profile.json")
    store_dir = str(tmp_path / "fleet.store")
    args = ["tune", "--dataset", "narrow_band", "--limit", "1",
            "--schedulers", "growlocal,hdagg", "--mode", "simulated",
            "--seed", "0", "--cores", "8"]
    assert main([*args, "--output", profile, "--store", store_dir,
                 "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["store"] == store_dir
    assert len(ObservationStore(store_dir, create=False)) == 3

    # a version-2 profile with inline observations is refused with a
    # named error; neither the file nor the store is touched
    data = json.loads(open(profile).read())
    data.update(version=2, observations=list(ObservationStore(store_dir)))
    v2 = json.dumps(data)
    open(profile, "w").write(v2)
    assert main([*args, "--profile", profile, "--store", store_dir,
                 "--json"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "version 2" in err
    assert open(profile).read() == v2
    assert len(ObservationStore(store_dir, create=False)) == 3


def test_tune_train_without_profile_or_store_fits_in_memory(tmp_path,
                                                            capsys):
    import json

    from repro.tuner import load_model

    model = str(tmp_path / "model.json")
    assert main(["tune", "--dataset", "narrow_band", "--limit", "2",
                 "--schedulers", "growlocal,hdagg", "--mode", "simulated",
                 "--seed", "0", "--cores", "8", "--train", "--model",
                 model, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["store"] is None
    assert out["n_observations"] == 6
    assert set(out["trained"]["schedulers"]) == {"growlocal", "hdagg",
                                                 "serial"}
    assert load_model(model).schedulers == out["trained"]["schedulers"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_store_stats_json_shape(tmp_path, capsys):
    import json

    store_dir = str(tmp_path / "fleet.store")
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "growlocal,hdagg", "--mode",
                 "simulated", "--seed", "0", "--cores", "8",
                 "--store", store_dir, "--json"]) == 0
    capsys.readouterr()
    assert main(["store", "stats", "--store", store_dir, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_observations"] == 3
    assert stats["n_shards"] == 1
    assert isinstance(stats["machines"], list) and stats["machines"]
    assert stats["modes"] == {"simulated": 3}
    assert stats["sources"] == {"tune": 3}
    assert set(stats["schedulers"]) == {"growlocal", "hdagg", "serial"}
    for entry in stats["schedulers"].values():
        assert entry["n"] == 1
        regime = entry["regimes"]["simulated"]
        assert set(regime) == {"n", "reordered", "unique_features"}
        assert regime["unique_features"] == 1
    assert "trained" in stats
    # table output renders too
    assert main(["store", "stats", "--store", store_dir]) == 0
    assert "store:" in capsys.readouterr().out


def test_store_merge_retrain_prune_cli_loop(tmp_path, capsys,
                                            monkeypatch):
    """The fleet loop end to end: cold tune on two 'machines', merge
    their stores, retrain, prune — every verb with --json."""
    import json

    args = ["tune", "--dataset", "narrow_band", "--limit", "2",
            "--schedulers", "growlocal,hdagg", "--mode", "simulated",
            "--seed", "0", "--cores", "8"]
    monkeypatch.setenv("REPRO_MACHINE_FINGERPRINT", "ci-a")
    assert main([*args, "--store", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("REPRO_MACHINE_FINGERPRINT", "ci-b")
    assert main([*args, "--store", str(tmp_path / "b")]) == 0
    monkeypatch.delenv("REPRO_MACHINE_FINGERPRINT")
    capsys.readouterr()

    merged = str(tmp_path / "merged")
    assert main(["store", "merge", "--into", merged,
                 str(tmp_path / "a"), str(tmp_path / "b"),
                 "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["records_read"] == 12
    assert out["added"] == 12  # distinct fingerprints: no dedup
    assert out["duplicates"] == 0
    assert out["n_observations"] == 12

    assert main(["store", "stats", "--store", merged, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["machines"] == ["ci-a", "ci-b"]

    model = str(tmp_path / "model.json")
    assert main(["store", "retrain", "--store", merged,
                 "--model", model, "--json"]) == 0
    trained = json.loads(capsys.readouterr().out)
    assert trained["trained"] is True
    assert trained["mode"] == "simulated"
    assert set(trained["schedulers"]) == {"growlocal", "hdagg",
                                          "serial"}
    assert all(n >= 4 for n in trained["n_samples"].values())

    # freshly trained: the staleness gate reports nothing new
    assert main(["store", "retrain", "--store", merged,
                 "--model", model, "--json"]) == 0
    stale = json.loads(capsys.readouterr().out)
    assert stale["trained"] is False
    assert stale["model"] is None

    assert main(["store", "prune", "--store", merged, "--keep", "6",
                 "--json"]) == 0
    pruned = json.loads(capsys.readouterr().out)
    assert (pruned["before"], pruned["after"]) == (12, 6)
    # every (scheduler, regime) variant survives the thinning
    assert main(["store", "stats", "--store", merged, "--json"]) == 0
    after = json.loads(capsys.readouterr().out)
    assert set(after["schedulers"]) == {"growlocal", "hdagg", "serial"}


def test_store_verbs_require_existing_store(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert main(["store", "stats", "--store", missing]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert main(["store", "retrain", "--store", missing,
                 "--model", str(tmp_path / "m.json")]) == 2


def test_tune_train_requires_model_path(capsys):
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--train"]) == 2
    assert "--model" in capsys.readouterr().err


def test_tune_model_with_cost_prior_rejected(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("{}")
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--prior", "cost", "--model", str(model)]) == 2
    assert "learned" in capsys.readouterr().err


def test_tune_train_with_prior_learned_ranks_with_existing_model(
    tmp_path, capsys
):
    import json

    profile = str(tmp_path / "profile.json")
    model = str(tmp_path / "model.json")
    args = ["tune", "--dataset", "narrow_band", "--limit", "2",
            "--schedulers", "growlocal,hdagg", "--mode", "simulated",
            "--seed", "0", "--cores", "8"]
    assert main([*args, "--output", profile]) == 0
    assert main([*args, "--profile", profile, "--train",
                 "--model", model]) == 0
    capsys.readouterr()

    # --prior learned --train with an existing model: the model ranks
    # the run (no profile -> the prior actually fires), then refreshes
    assert main([*args, "--prior", "learned", "--train",
                 "--model", model, "--min-samples", "2",
                 "--max-std", "100", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["prior"] == "learned"
    assert out["learned_prior"]["n_predicted"] > 0
    assert out["trained"]["schedulers"]  # refreshed model written


def test_tune_train_refuses_to_overwrite_model_with_empty_fit(
    tmp_path, capsys
):
    import json

    model = str(tmp_path / "model.json")
    args = ["tune", "--dataset", "narrow_band",
            "--schedulers", "growlocal,hdagg", "--mode", "simulated",
            "--seed", "0", "--cores", "8"]
    # a real model from two instances
    assert main([*args, "--limit", "2", "--train", "--model",
                 model]) == 0
    before = json.loads(open(model).read())
    assert before["models"]
    capsys.readouterr()

    # one instance -> one observation per variant -> empty fit: the
    # existing model must survive, with a clear error
    assert main([*args, "--limit", "1", "--train", "--model",
                 model]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert json.loads(open(model).read()) == before


# ----------------------------------------------------------------------
# repro check
# ----------------------------------------------------------------------

def test_check_source_clean_head(capsys):
    assert main(["check", "source"]) == 0
    assert "clean" in capsys.readouterr().out


def test_check_source_json_payload(capsys):
    import json

    assert main(["check", "source", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["n_findings"] == 0
    assert len(payload["rules"]) == 6


def test_check_source_seeded_violation_nonzero(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("import time\nassert time.time()\n")
    assert main(["check", "source", "--path", str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    fired = {f["rule"] for f in payload["findings"]}
    assert fired == {"wallclock-timing", "no-bare-assert"}


def test_check_plan_matrix(matrix_file, capsys):
    import json

    assert main(["check", "plan", "--matrix", matrix_file,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["n_plans"] == 1
    assert payload["plans"][0]["plan"] == matrix_file


def test_check_plan_builtin_corpus(capsys):
    import json

    assert main(["check", "plan", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["n_plans"] == 7
    assert len(payload["invariants"]) == 10
    names = {p["plan"] for p in payload["plans"]}
    assert any("backward" in n for n in names)
    assert set(payload["invariants"]) >= {
        "dependency-safety", "gather-bounds", "batch-pointer",
    }


def test_check_all_human_output(capsys):
    assert main(["check", "all"]) == 0
    out = capsys.readouterr().out
    assert "source: clean" in out
    assert "plan: clean" in out


def test_check_rules_catalogue(capsys):
    assert main(["check", "source", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "lock-discipline" in out and "atomic-write" in out


def test_check_missing_path_is_error(capsys):
    assert main(["check", "source", "--path", "/no/such/dir"]) == 2
    assert "error" in capsys.readouterr().err


class TestPlansVerbs:
    """``repro plans save|load|ls|gc|verify`` over a store directory."""

    def test_save_load_ls_roundtrip(self, matrix_file, tmp_path, capsys):
        import json

        store = str(tmp_path / "plans")
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file, "--scheduler", "growlocal",
                     "--cores", "4", "--json"]) == 0
        saved = json.loads(capsys.readouterr().out)
        assert saved["saved"] is True
        assert saved["key"]["cores"] == 4
        # second save of the same key is a no-op, not an error
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file, "--scheduler", "growlocal",
                     "--cores", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["saved"] is False
        assert main(["plans", "load", "--store", store,
                     "--matrix", matrix_file, "--scheduler", "growlocal",
                     "--cores", "4", "--json"]) == 0
        loaded = json.loads(capsys.readouterr().out)
        assert loaded["hit"] is True
        assert loaded["provenance"] == "store"
        assert main(["plans", "ls", "--store", store, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["artifacts"]) == 1
        assert listing["artifacts"][0]["stem"] == saved["stem"]

    def test_load_miss_exits_nonzero(self, matrix_file, tmp_path, capsys):
        store = str(tmp_path / "plans")
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file]) == 0
        capsys.readouterr()
        # different key (serial vs scheduled) -> miss
        assert main(["plans", "load", "--store", store,
                     "--matrix", matrix_file, "--scheduler", "growlocal",
                     "--cores", "4"]) == 1
        assert "no plan artifact" in capsys.readouterr().out

    def test_verify_flags_corruption_and_exits_nonzero(
        self, matrix_file, tmp_path, capsys
    ):
        import json
        from pathlib import Path

        store = str(tmp_path / "plans")
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file]) == 0
        capsys.readouterr()
        npz = next(Path(store).glob("plan-*.npz"))
        data = bytearray(npz.read_bytes())
        data[len(data) // 2] ^= 0xFF
        npz.write_bytes(bytes(data))
        assert main(["plans", "verify", "--store", store,
                     "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["n_bad"] == 1
        assert report["artifacts"][0]["error_type"] in (
            "PlanArtifactCorruptError", "PlanVerificationError",
        )
        # the rejected artifact never serves: load falls to exit 1
        assert main(["plans", "load", "--store", store,
                     "--matrix", matrix_file]) == 1

    def test_gc_and_missing_store_error(self, matrix_file, tmp_path,
                                        capsys):
        store = str(tmp_path / "plans")
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file]) == 0
        assert main(["plans", "gc", "--store", store,
                     "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 artifact(s) evicted" in out
        assert main(["plans", "ls", "--store",
                     str(tmp_path / "absent")]) == 2
        assert "error" in capsys.readouterr().err

    def test_schedule_and_scheduler_are_exclusive(self, matrix_file,
                                                  tmp_path, capsys):
        assert main(["plans", "save", "--store", str(tmp_path / "p"),
                     "--matrix", matrix_file,
                     "--schedule", "s.json",
                     "--scheduler", "growlocal"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
