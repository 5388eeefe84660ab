"""Verdicts and the claim rule of ``bench/compare.py`` on synthetic runs."""

from __future__ import annotations

import json

import pytest

from bench import compare

# op_p50_s: lower is better, bound 0.15; ops_per_s: higher is better
BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def seeded(values) -> dict[int, float]:
    """Runs keyed by seed 0, 1, ..."""
    return dict(enumerate(values))


def write_runs(directory, values, *, metric="op_p50_s", workload="w",
               valid=True, trace=False):
    directory.mkdir(exist_ok=True)
    for seed, value in enumerate(values):
        record = {
            "workload": workload, "seed": seed, "trace": trace,
            "valid": valid,
            "result": {"metrics": {metric: {"value": value, "unit": "s"}}},
        }
        suffix = "-trace" if trace else ""
        (directory / f"{workload}-s{seed}{suffix}.json").write_text(
            json.dumps(record)
        )
    return directory


def run_compare(tmp_path, base, new, *args, metric="op_p50_s"):
    base_dir = write_runs(tmp_path / "base", base, metric=metric)
    new_dir = write_runs(tmp_path / "new", new, metric=metric)
    return compare.main([str(base_dir), str(new_dir), *args])


@pytest.mark.parametrize(
    ("new", "expected"),
    [
        ([v * 1.05 for v in BASE], "ok"),
        ([v * 1.30 for v in BASE], "regressed"),
        # new set too noisy to say anything
        ([0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.65, 1.35, 1.0, 1.0], "unresolved"),
    ],
)
def test_verdicts(new, expected):
    metric = {"name": "op_p50_s", "better": "lower", "bound": 0.15}
    assert compare.verdict(seeded(BASE), seeded(new), metric) == expected


def test_wide_spread_is_ok_when_every_new_run_beats_every_base_run():
    metric = {"name": "op_p50_s", "better": "lower", "bound": 0.15}
    base = [1.0, 1.5, 2.0, 1.2, 1.8]
    new = [0.5, 0.6, 0.9, 0.7, 0.55]
    assert compare.verdict(seeded(base), seeded(new), metric) == "ok"


def test_higher_is_better_metrics_regress_downwards():
    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.15}
    worse = seeded([v * 0.7 for v in BASE])
    better = seeded([v * 1.3 for v in BASE])
    assert compare.verdict(seeded(BASE), worse, metric) == "regressed"
    assert compare.verdict(seeded(BASE), better, metric) == "ok"


def test_exact_metric_regresses_when_any_seed_reads_worse():
    metric = {"name": "sim_speedup", "better": "higher", "bound": 0.15}
    # speed-ups differ 20% between seeds, yet each seed repeats exactly
    base = seeded([2.0, 2.4, 1.9, 2.3, 2.1])
    assert compare.verdict(base, dict(base), metric) == "ok"
    one_seed_worse = {**base, 3: 2.3 * 0.99}
    assert compare.verdict(base, one_seed_worse, metric) == "regressed"
    assert compare.verdict(base, {**base, 3: 2.5}, metric) == "ok"


def test_exit_code_flags_regressions(tmp_path, capsys):
    assert run_compare(tmp_path, BASE, [v * 1.3 for v in BASE]) == 1
    assert "regressed" in capsys.readouterr().out


def test_claim_met(tmp_path, capsys):
    new = [v * 0.8 for v in BASE]
    assert run_compare(tmp_path, BASE, new, "--claim", "op_p50_s@w") == 0
    assert "claim op_p50_s@w: met" in capsys.readouterr().out


def test_claim_needs_nine_of_ten_pair_wins(tmp_path, capsys):
    new = [v * 0.8 for v in BASE]
    new[0] = new[1] = 5.0  # two pairs lost: 8/10
    assert run_compare(tmp_path, BASE, new, "--claim", "op_p50_s@w") == 1
    assert "NOT met (won 8/10" in capsys.readouterr().out


def test_claim_needs_median_gap_beyond_base_quartile_distance(tmp_path):
    new = [v - 0.001 for v in BASE]  # wins every pair by a hair
    assert run_compare(tmp_path, BASE, new, "--claim", "op_p50_s@w") == 1


def test_traced_and_invalid_runs_are_left_out(tmp_path, capsys):
    base_dir = write_runs(tmp_path / "base", BASE)
    new_dir = write_runs(tmp_path / "new", [v * 1.3 for v in BASE],
                         valid=False)
    write_runs(new_dir, [v * 1.3 for v in BASE], workload="t", trace=True)
    assert compare.main([str(base_dir), str(new_dir)]) == 0
    assert "skipped invalid run" in capsys.readouterr().out
