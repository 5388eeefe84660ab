#!/usr/bin/env python
"""The learned tuner prior: cold tune -> train -> warm start.

Walks the full profile-reuse loop the autotuner is built around:

1. **cold** — tune a small seeded fleet with the cost-model prior; every
   run races finalists, records its decision in the tuning profile and
   appends ``(features, scheduler, seconds)`` observations to an
   in-memory :class:`~repro.store.ObservationStore` (the training
   store);
2. **train** — fit the ridge-regression ensemble
   (:class:`~repro.tuner.LearnedTunerModel`) on the accumulated
   observations, one model per scheduler, leave-one-out predictive
   variance as the uncertainty gate;
3. **warm** — re-tune the fleet with ``Autotuner(prior="learned")``
   against the saved profile: every decision comes back from the
   profile, so **zero races run** (asserted), and a fresh unseen
   instance is ranked by pure inference — no per-candidate cost-model
   simulation.

Run:  python examples/autotune_learned.py
"""

from repro.exec import PlanCache
from repro.experiments.datasets import DatasetInstance
from repro.machine.model import get_machine
from repro.matrix.generators import erdos_renyi_lower, narrow_band_lower
from repro.store import ObservationStore
from repro.tuner import Autotuner, LearnedTunerModel, TuningProfile

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


def main() -> None:
    machine = get_machine("intel_xeon_6238t")
    fleet = build_fleet()
    cache = PlanCache()

    # 1. cold: cost-model prior, racing, observations accumulate
    profile = TuningProfile(machine=machine.name)
    store = ObservationStore(None)
    cold_tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                           expected_solves=1e6, seed=0)
    cold = [
        cold_tuner.tune(inst, machine, n_cores=N_CORES,
                        plan_cache=cache, profile=profile, store=store)
        for inst in fleet
    ]
    print(f"cold pass: {cold_tuner.races_run} races, "
          f"{len(store)} training observations")
    for d in cold:
        print(f"  {d.instance:10s} -> {d.scheduler:10s} ({d.source})")

    # 2. train the learned prior from the store
    model = LearnedTunerModel.fit(store)
    print(f"trained models for: {', '.join(model.schedulers)}")

    # 3. warm: learned prior + profile -> zero races on the whole fleet
    warm_tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                           expected_solves=1e6, seed=0,
                           prior="learned", model=model,
                           min_prediction_samples=3,
                           max_prediction_std=5.0)
    warm = [
        warm_tuner.tune(inst, machine, n_cores=N_CORES,
                        plan_cache=cache, profile=profile)
        for inst in fleet
    ]
    assert warm_tuner.races_run == 0, "warm path must not race"
    assert all(d.source == "profile" for d in warm)
    assert [d.scheduler for d in warm] == [d.scheduler for d in cold]
    print(f"warm pass: {warm_tuner.races_run} races "
          "(every decision served from the profile)")

    # an unseen instance: the learned prior ranks it by inference; the
    # uncertainty gate falls back to the cost model only where the
    # model is out of its depth
    fresh = DatasetInstance("fresh_nb",
                            narrow_band_lower(700, 0.08, 9.0, seed=99))
    decision = warm_tuner.tune(fresh, machine, n_cores=N_CORES,
                               plan_cache=cache, profile=profile)
    stats = warm_tuner.learned_prior
    print(f"fresh instance: picked {decision.scheduler} "
          f"({stats.n_predicted} candidates priced by inference, "
          f"{stats.n_fallback} by cost-model fallback)")


if __name__ == "__main__":
    main()
