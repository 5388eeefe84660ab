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
    """A schedule decides nothing in a plan-based solve, so ``solve``
    has no ``--schedule`` flag (argparse exits 2); without one it writes
    the solution scipy computes."""
    import scipy.sparse.linalg as spla

    from repro.matrix.io_mm import read_matrix_market

    sched = str(tmp_path / "s.json")
    main(["schedule", "--matrix", matrix_file, "--cores", "4",
          "--output", sched])
    xout = str(tmp_path / "x.npy")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--matrix", matrix_file, "--schedule", sched,
              "--output", xout])
    assert exc.value.code == 2
    assert "--schedule" in capsys.readouterr().err
    assert main(["solve", "--matrix", matrix_file,
                 "--output", xout]) == 0
    lower = read_matrix_market(matrix_file).lower_triangle()
    np.testing.assert_allclose(
        np.load(xout),
        spla.spsolve_triangular(lower.to_scipy().tocsr(),
                                np.ones(lower.n), lower=True),
        rtol=1e-10,
    )


def test_simulate_with_torn_schedule_is_a_clean_error(matrix_file,
                                                       tmp_path, capsys):
    sched = tmp_path / "s.json"
    main(["schedule", "--matrix", matrix_file, "--cores", "4",
          "--output", str(sched)])
    sched.write_text(sched.read_text()[:-10])  # a write cut short
    capsys.readouterr()
    assert main(["simulate", "--matrix", matrix_file,
                 "--schedule", str(sched)]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_refuses_a_racing_schedule(tmp_path, capsys):
    """A schedule file that is not valid for its matrix is refused, not
    priced: every row in superstep 0 over 2 cores read as a speed-up."""
    from repro.graph.dag import DAG
    from repro.scheduler.schedule import Schedule
    from repro.scheduler.serialize import save_schedule_json

    lower = narrow_band_lower(400, 0.2, 6.0, seed=0)
    mtx = tmp_path / "L.mtx"
    write_matrix_market(lower, mtx)
    racing = Schedule(np.arange(lower.n) * 2 // lower.n,
                      np.zeros(lower.n, dtype=np.int64), 2)
    assert not racing.is_valid(DAG.from_lower_triangular(lower))
    sched = tmp_path / "racing.json"
    save_schedule_json(racing, sched)
    capsys.readouterr()
    assert main(["simulate", "--matrix", str(mtx),
                 "--schedule", str(sched)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "speed-up" not in captured.out


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
            "--schedulers", "growlocal,hdagg", "--cores", "8"]
    assert main([*args, "--output", profile, "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["warm_starts"] == 0
    assert all(d["source"] == "ranked" for d in cold["decisions"])
    picked = [d["scheduler"] for d in cold["decisions"]]
    assert all(p in ("growlocal", "hdagg", "serial") for p in picked)

    # re-running against the written profile skips ranking entirely
    assert main([*args, "--profile", profile, "--json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["warm_starts"] == 1
    assert all(d["source"] == "profile" for d in warm["decisions"])
    assert [d["scheduler"] for d in warm["decisions"]] == picked


def test_tune_table_output(tmp_path, capsys):
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "growlocal,hdagg", "--cores", "8"]) == 0
    out = capsys.readouterr().out
    assert "tune: narrow_band" in out
    assert "0 warm start(s) from profile" in out


def test_tune_rejects_unknown_candidates(capsys):
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "nope"]) == 2
    assert "candidate" in capsys.readouterr().err


def test_tune_rejects_auto_as_candidate(capsys):
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "auto"]) == 2
    assert "candidate" in capsys.readouterr().err


def test_tune_output_writes_only_the_profile(tmp_path, capsys):
    """``--output`` writes the decisions-only profile and nothing beside
    it; the JSON payload carries decisions and warm-start counts only."""
    import json

    profile = tmp_path / "profile.json"
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "growlocal,hdagg", "--cores", "8",
                 "--output", str(profile), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]
    assert set(out) == {"dataset", "machine", "wall_seconds",
                        "warm_starts", "decisions"}
    assert json.loads(profile.read_text())["version"] == 4


def test_tune_refuses_v2_profile(tmp_path, capsys):
    """A version-2 profile with inline observations is refused with a
    named error, and the file is left untouched."""
    import json

    profile = str(tmp_path / "profile.json")
    args = ["tune", "--dataset", "narrow_band", "--limit", "1",
            "--schedulers", "growlocal,hdagg", "--cores", "8"]
    assert main([*args, "--output", profile]) == 0
    capsys.readouterr()
    data = json.loads(open(profile).read())
    data.update(version=2, observations=[
        {"scheduler": "growlocal", "seconds": 1e-4, "mode": "simulated"},
    ])
    v2 = json.dumps(data)
    open(profile, "w").write(v2)
    assert main([*args, "--profile", profile, "--json"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "version 2" in err
    assert open(profile).read() == v2


@pytest.mark.parametrize("flag", [
    pytest.param("--expected-solves=0", id="solves-zero"),
    pytest.param("--expected-solves=-5", id="solves-negative"),
    pytest.param("--expected-solves=nan", id="solves-nan"),
])
def test_tune_refuses_out_of_range_objectives(flag, capsys):
    """Zero expected solves used to crash with a ZeroDivisionError,
    negative ones rewarded scheduling cost, and NaN silently disabled
    the objective: each is now a one-line error."""
    assert main(["tune", "--dataset", "narrow_band", "--limit", "1",
                 "--schedulers", "wavefront", flag]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--mode=simulated", "--budget-s=0.05",
                                  "--seed=0"])
def test_tune_has_no_racing_flags(flag, capsys):
    """``repro tune`` takes no racing option: argparse refuses each."""
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--dataset", "narrow_band", "--limit", "1", flag])
    assert exc.value.code == 2
    assert flag.split("=")[0] in capsys.readouterr().err


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
    # one plan per (matrix, direction): a schedule no longer changes
    # the plan, so scheduled copies would be byte-identical
    assert payload["n_plans"] == 3
    assert len(payload["invariants"]) == 8
    names = {p["plan"] for p in payload["plans"]}
    assert len(names) == 3
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
                     "--matrix", matrix_file, "--json"]) == 0
        saved = json.loads(capsys.readouterr().out)
        assert saved["saved"] is True
        assert saved["key"]["direction"] == "forward"
        assert set(saved["key"]) == {"matrix_fingerprint", "direction",
                                     "dtype"}
        # second save of the same key is a no-op, not an error
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["saved"] is False
        assert main(["plans", "load", "--store", store,
                     "--matrix", matrix_file, "--json"]) == 0
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
        # another matrix is another key -> miss
        other = tmp_path / "other.mtx"
        write_matrix_market(narrow_band_lower(300, 0.14, 8.0, seed=1),
                            other)
        assert main(["plans", "load", "--store", store,
                     "--matrix", str(other)]) == 1
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

    def test_save_evicted_by_its_budget_is_not_saved(
        self, matrix_file, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_PLAN_STORE_MAX_BYTES", "0")
        store = str(tmp_path / "plans")
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file, "--json"]) == 0
        saved = json.loads(capsys.readouterr().out)
        assert saved["saved"] is False and saved["artifact"] is None
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "already persisted" not in out and "evicted" in out

    def test_gc_refuses_a_negative_budget(self, matrix_file, tmp_path,
                                          capsys):
        store = str(tmp_path / "plans")
        assert main(["plans", "save", "--store", store,
                     "--matrix", matrix_file]) == 0
        capsys.readouterr()
        assert main(["plans", "gc", "--store", store,
                     "--max-bytes", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_bytes=-5" in err
        assert main(["plans", "ls", "--store", store, "--json"]) == 0
        assert '"stem"' in capsys.readouterr().out  # nothing evicted
