#!/usr/bin/env python
"""Tuning profiles: cold tune -> warm start -> one unseen matrix.

Walks the profile-reuse loop the autotuner is built around:

1. **cold** — tune a small seeded fleet; every instance is ranked by the
   cost-model prior, whose first pick is recorded in a
   :class:`~repro.tuner.TuningProfile`;
2. **warm** — re-tune the fleet against the saved and reloaded profile:
   every decision comes back from the profile, so **nothing is ranked**
   (asserted: the plan cache sees no lookup) and the picks are the cold
   ones;
3. **unseen** — tune one matrix the profile has never seen: it is
   ranked once, and its decision joins the profile.

Run:  python examples/autotune_profile.py
"""

import os
import tempfile

from repro.exec import PlanCache
from repro.experiments.datasets import DatasetInstance
from repro.machine.model import get_machine
from repro.matrix.generators import erdos_renyi_lower, narrow_band_lower
from repro.tuner import Autotuner, TuningProfile, load_profile, save_profile

CANDIDATES = ("growlocal", "hdagg", "wavefront")
N_CORES = 8


def build_fleet() -> list[DatasetInstance]:
    fleet = []
    for i in range(8):
        n = 400 + 80 * i
        if i % 2 == 0:
            fleet.append(DatasetInstance(
                f"fleet_nb{i}",
                narrow_band_lower(n, 0.08, 6.0 + i, seed=i),
            ))
        else:
            fleet.append(DatasetInstance(
                f"fleet_er{i}", erdos_renyi_lower(n, 8.0 / n, seed=i),
            ))
    return fleet


def make_tuner() -> Autotuner:
    return Autotuner(candidates=CANDIDATES, expected_solves=1e6)


def main() -> None:
    machine = get_machine("intel_xeon_6238t")
    fleet = build_fleet()
    cache = PlanCache()

    # 1. cold: rank and record every instance
    profile = TuningProfile(machine=machine.name)
    cold_tuner = make_tuner()
    cold = [
        cold_tuner.tune(inst, machine, n_cores=N_CORES,
                        plan_cache=cache, profile=profile)
        for inst in fleet
    ]
    print(f"cold pass: {len(cold)} instances ranked")
    for d in cold:
        print(f"  {d.instance:10s} -> {d.scheduler:10s} ({d.source})")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.json")
        save_profile(profile, path)
        profile = load_profile(path)

    # 2. warm: the reloaded profile answers every instance
    warm_tuner = make_tuner()
    lookups = (cache.hits, cache.misses)
    warm = [
        warm_tuner.tune(inst, machine, n_cores=N_CORES,
                        plan_cache=cache, profile=profile)
        for inst in fleet
    ]
    assert (cache.hits, cache.misses) == lookups, "warm path must not rank"
    assert all(d.source == "profile" for d in warm)
    assert [d.scheduler for d in warm] == [d.scheduler for d in cold]
    print("warm pass: 0 instances ranked "
          "(every decision served from the profile)")

    # 3. an unseen instance misses the profile and is ranked once
    fresh = DatasetInstance("fresh_nb",
                            narrow_band_lower(700, 0.08, 9.0, seed=99))
    decision = warm_tuner.tune(fresh, machine, n_cores=N_CORES,
                               plan_cache=cache, profile=profile)
    assert decision.source == "ranked"
    print(f"unseen instance: ranked, picked {decision.scheduler}; the "
          f"profile now holds {len(profile)} decisions")


if __name__ == "__main__":
    main()
