"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE_DIR NEW_DIR [--claim METRIC@WORKLOAD ...]

Each directory holds the per-run records that ``bench/run.py --out``
writes; traced runs and runs marked invalid are left out.  For every
(end-to-end metric, workload) pair both sets' medians and quartiles are
printed with a verdict:

* ``regressed``: the new median is worse than the base median by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: not regressed, but the run-to-run spread (quartile
  distance over median) of either set is wider than the bound, and not
  every new run beats every base run;
* ``ok`` otherwise.

A metric in :data:`EXACT_METRICS` is fixed by the seed: the same seed
gives the same value on every run, so its quartile distance measures
how inputs differ between seeds, not noise.  Such a pair is
``regressed`` as soon as one seed run on both sides reads worse on the
new side, by any amount.

``--claim METRIC@WORKLOAD`` asks whether the new set beats the base
set on that pair: runs are paired by seed, the new run must win at
least 9 of every 10 pairs (ties count for neither), and the medians
must differ, in the better direction, by more than the base set's
quartile distance.

The exit code is 1 when a pair regressed or a claim is not met, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import the ``bench`` package from the checkout root
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import ROOT

#: Share of seed pairs the new set must win for a claim.
CLAIM_WIN_SHARE = 0.9
#: Metrics a seed fixes exactly (a simulation, not a timing).
EXACT_METRICS = frozenset({"sim_speedup"})


def load_runs(directory) -> tuple[dict, list[str]]:
    """``workload -> seed -> metric -> value`` from the untraced, valid
    run records in ``directory``, and the names of invalid records."""
    runs: dict = defaultdict(dict)
    invalid = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "result" not in record or record["trace"]:
            continue
        if not record["valid"]:
            invalid.append(path.name)
            continue
        runs[record["workload"]][record["seed"]] = {
            name: entry["value"]
            for name, entry in record["result"]["metrics"].items()
        }
    return runs, invalid


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, values) -> "Summary":
        values = list(values)
        if len(values) < 2:
            return cls(values[0], values[0], values[0])
        q1, median, q3 = statistics.quantiles(values, n=4)
        return cls(median, q1, q3)

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @property
    def spread(self) -> float:
        return self.iqr / abs(self.median) if self.median else 0.0


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(base: dict[int, float], new: dict[int, float], metric: dict) -> str:
    """The verdict on one (metric, workload) pair from its seed-keyed
    base and new runs."""
    better, bound = metric["better"], metric["bound"]
    shared = set(base) & set(new)
    if metric["name"] in EXACT_METRICS and shared:
        worse = any(beats(base[seed], new[seed], better) for seed in shared)
        return "regressed" if worse else "ok"
    base, new = list(base.values()), list(new.values())
    b, n = Summary.of(base), Summary.of(new)
    if worse_by(b.median, n.median, better) > bound:
        return "regressed"
    if max(b.spread, n.spread) > bound and not all(
        beats(x, y, better) for x in new for y in base
    ):
        return "unresolved"
    return "ok"


def claim_met(
    base: dict[int, float], new: dict[int, float], better: str
) -> tuple[bool, str]:
    """The claim rule on two seed-keyed run sets of one pair."""
    seeds = sorted(set(base) & set(new))
    if not seeds:
        return False, "no runs share a seed"
    wins = sum(beats(new[s], base[s], better) for s in seeds)
    b = Summary.of(base.values())
    n = Summary.of(new.values())
    margin = abs(n.median - b.median)
    why = (f"won {wins}/{len(seeds)} pairs; medians differ by "
           f"{margin:.6g}, base quartile distance {b.iqr:.6g}")
    met = (
        wins >= CLAIM_WIN_SHARE * len(seeds)
        and beats(n.median, b.median, better)
        and margin > b.iqr
    )
    return met, why


def compare(base_runs: dict, new_runs: dict, metrics: list[dict]):
    """One row per (metric, workload) pair present in both sets."""
    rows = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        base_seeds, new_seeds = base_runs[workload], new_runs[workload]
        for metric in metrics:
            name = metric["name"]
            base = {s: run[name] for s, run in base_seeds.items() if name in run}
            new = {s: run[name] for s, run in new_seeds.items() if name in run}
            if base and new:
                rows.append((name, workload, Summary.of(base.values()),
                             Summary.of(new.values()),
                             verdict(base, new, metric)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two directories of benchmark run records."
    )
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    benchmark = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    base_runs, base_invalid = load_runs(args.base)
    new_runs, new_invalid = load_runs(args.new)
    for name in base_invalid + new_invalid:
        print(f"skipped invalid run {name}")

    status = 0
    for name, workload, b, n, result in compare(
        base_runs, new_runs, list(metrics.values())
    ):
        change = worse_by(b.median, n.median, metrics[name]["better"])
        print(f"{name} {workload} base={b.median:.6g} [{b.q1:.6g}, "
              f"{b.q3:.6g}] new={n.median:.6g} [{n.q1:.6g}, {n.q3:.6g}] "
              f"worse_by={change:+.1%} {result}")
        if result == "regressed":
            status = 1

    for claim in args.claim:
        name, _, workload = claim.partition("@")
        if name not in metrics or not workload:
            parser.error(f"--claim {claim!r}: expected METRIC@WORKLOAD "
                         "with an end-to-end metric")
        base = {seed: run[name]
                for seed, run in base_runs.get(workload, {}).items()}
        new = {seed: run[name]
               for seed, run in new_runs.get(workload, {}).items()}
        met, why = claim_met(base, new, metrics[name]["better"])
        print(f"claim {claim}: {'met' if met else 'NOT met'} ({why})")
        if not met:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
