"""Micro-benchmarks of the autotuner's cost structure.

The tuner's reason to exist is that it answers "which scheduler should
run this matrix" *without* paying the exhaustive sweep every time:

* through a shared :class:`~repro.exec.PlanCache`, tuning compiles no
  triple an exhaustive suite over the same candidates has not already
  paid for — the prior and the race are cache hits on top of the sweep,
  so adding ``"auto"`` to a suite is almost free;
* warm-starting from a persisted profile skips ranking *and* racing,
  so re-tuning a known fleet of systems costs feature extraction plus a
  dictionary lookup;
* the **learned prior** replaces the cost-model prior's one simulation
  per candidate with one ridge inference per candidate: on a seeded
  20-instance corpus it must match the exhaustive per-instance best at
  least as often as the cost-model prior while ranking candidates
  >= 10x faster than per-candidate simulation (asserted below).

``REPRO_BENCH_SMOKE=1`` shrinks the instances so the assertions can run
on every CI push.
"""

import os
import time

import numpy as np

from repro.exec import PlanCache
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import run_suite
from repro.experiments.tables import format_table
from repro.machine.model import get_machine
from repro.matrix.generators import erdos_renyi_lower, narrow_band_lower
from repro.scheduler.registry import make_scheduler
from repro.store import ObservationStore
from repro.tuner import (
    Autotuner,
    LearnedPrior,
    LearnedTunerModel,
    TuningProfile,
    extract_features,
    rank_candidates,
)
from repro.utils.timing import Timer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N = 2_000 if SMOKE else 10_000
#: Store-scale cases: observations in the synthetic fleet store, and
#: the coverage-prune target.
N_STORE = 5_000 if SMOKE else 50_000
PRUNE_KEEP = N_STORE // 10
CANDIDATES = ("growlocal", "hdagg", "wavefront")
N_CORES = 8


def test_tuning_adds_no_compiles_over_an_exhaustive_sweep():
    lower = narrow_band_lower(N, 0.05, 20.0, seed=0)
    inst = DatasetInstance("bench", lower)
    machine = get_machine("intel_xeon_6238t")
    cache = PlanCache()

    schedulers = {n: make_scheduler(n) for n in (*CANDIDATES, "serial")}
    with Timer() as t_sweep:
        run_suite([inst], schedulers, machine, n_cores=N_CORES,
                  plan_cache=cache)
    misses_after_sweep = cache.misses

    tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                      expected_solves=1e15, seed=0)
    with Timer() as t_tune:
        decision = tuner.tune(inst, machine, n_cores=N_CORES,
                              plan_cache=cache)

    # the whole tuning pipeline rode the sweep's compiled triples
    assert cache.misses == misses_after_sweep, (
        "tuning recompiled triples the exhaustive sweep already built"
    )

    # warm start: profile hit skips ranking and racing entirely
    profile = TuningProfile(machine=machine.name)
    tuner.tune(inst, machine, n_cores=N_CORES, plan_cache=cache,
               profile=profile)
    races_before = tuner.races_run
    with Timer() as t_warm:
        warm = tuner.tune(inst, machine, n_cores=N_CORES,
                          plan_cache=cache, profile=profile)
    assert warm.source == "profile"
    assert tuner.races_run == races_before

    print()
    print(format_table(
        ["stage", "time s", "pick"],
        [
            ["exhaustive sweep", f"{t_sweep.elapsed:.3f}", "-"],
            ["tune (shared cache)", f"{t_tune.elapsed:.3f}",
             decision.scheduler],
            ["tune (profile warm)", f"{t_warm.elapsed:.3f}",
             warm.scheduler],
        ],
        title=f"autotuner cost structure (n={N}, {len(CANDIDATES)} "
              f"candidates)",
    ))
    assert warm.scheduler == decision.scheduler
    assert np.isfinite(t_warm.elapsed)


# ---------------------------------------------------------------------------
# the learned prior: accuracy parity + >=10x ranking speedup
# ---------------------------------------------------------------------------
def _seeded_corpus(n_instances: int = 20) -> list[DatasetInstance]:
    """A fixed-seed mixed corpus (narrow bands + Erdős–Rényi)."""
    base = 250 if SMOKE else 700
    insts = []
    for i in range(n_instances):
        n = base + 41 * i
        if i % 2 == 0:
            insts.append(DatasetInstance(
                f"corpus_nb{i}",
                narrow_band_lower(n, 0.08, 5.0 + (i % 5) * 3.0, seed=i),
            ))
        else:
            insts.append(DatasetInstance(
                f"corpus_er{i}",
                erdos_renyi_lower(n, 8.0 / n, seed=i),
            ))
    return insts


def test_learned_prior_accuracy_parity_and_ranking_speedup():
    """Acceptance: on a seeded 20-instance corpus the learned prior's
    pick matches the exhaustive per-instance best at least as often as
    the cost-model prior's, and ranking by inference is >= 10x faster
    than ranking by per-candidate cost-model simulation."""
    machine = get_machine("intel_xeon_6238t")
    corpus = _seeded_corpus(20)
    cache = PlanCache()

    # ground truth: exhaustive sweep over the pool (+ serial)
    schedulers = {n: make_scheduler(n) for n in (*CANDIDATES, "serial")}
    exhaustive = run_suite(corpus, schedulers, machine,
                           n_cores=N_CORES, plan_cache=cache)

    def n_matches(picks: list[str]) -> int:
        matches = 0
        for i, pick in enumerate(picks):
            per_sched = {name: exhaustive[name][i].parallel_cycles
                         for name in exhaustive}
            if per_sched[pick] <= min(per_sched.values()) * (1 + 1e-12):
                matches += 1
        return matches

    # cold pass with the cost prior builds the training store
    store = ObservationStore(None)
    cost = Autotuner(candidates=CANDIDATES, mode="simulated",
                     expected_solves=1e15, seed=0)
    cost_picks = [
        cost.tune(inst, machine, n_cores=N_CORES, plan_cache=cache,
                  store=store).scheduler
        for inst in corpus
    ]

    model = LearnedTunerModel.fit(store)
    learned = Autotuner(candidates=CANDIDATES, mode="simulated",
                        expected_solves=1e15, seed=0,
                        prior="learned", model=model,
                        min_prediction_samples=3,
                        max_prediction_std=5.0)
    learned_picks = [
        learned.tune(inst, machine, n_cores=N_CORES, plan_cache=cache)
        .scheduler
        for inst in corpus
    ]

    m_cost, m_learned = n_matches(cost_picks), n_matches(learned_picks)
    assert m_learned >= m_cost, (
        f"learned prior matched the exhaustive best on {m_learned}/20 "
        f"instances, cost-model prior on {m_cost}/20"
    )
    assert learned.learned_prior.n_predicted > 0

    # ranking speed: pure inference vs per-candidate simulation, both
    # on a fully warm plan cache and precomputed features (the tuner
    # extracts features regardless of prior)
    inst = corpus[0]
    features = extract_features(inst, n_cores=N_CORES)
    prior = LearnedPrior(model, min_samples=3, max_std=5.0)
    reps = 10

    t0 = time.perf_counter()
    for _ in range(reps):
        rank_candidates(inst, CANDIDATES, machine, n_cores=N_CORES,
                        plan_cache=cache, expected_solves=1e15)
    cost_rank_s = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        prior.rank(inst, CANDIDATES, machine, n_cores=N_CORES,
                   plan_cache=cache, features=features,
                   expected_solves=1e15)
    learned_rank_s = (time.perf_counter() - t0) / reps
    assert prior.n_fallback == 0, "gate rejected a trained candidate"

    speedup = cost_rank_s / learned_rank_s
    print()
    print(format_table(
        ["prior", "rank time ms", "matches /20"],
        [
            ["cost model (per-candidate sim)",
             f"{cost_rank_s * 1e3:.3f}", str(m_cost)],
            ["learned (per-candidate inference)",
             f"{learned_rank_s * 1e3:.4f}", str(m_learned)],
        ],
        title=f"prior ranking cost ({len(CANDIDATES)} candidates + "
              f"serial, speedup {speedup:.0f}x)",
    ))
    assert speedup >= 10.0, (
        f"learned ranking only {speedup:.1f}x faster than simulation"
    )


# ---------------------------------------------------------------------------
# the observation store at fleet scale: coverage prune + linear merge
# ---------------------------------------------------------------------------
def test_store_prune_preserves_learned_pick_quality(tmp_path):
    """Coverage-aware pruning of a fleet-scale store must not cost
    accuracy: a model trained on the 10x-pruned store matches the
    exhaustive per-instance best within one pick of the model trained
    on the full store, on the seeded corpus."""
    machine = get_machine("intel_xeon_6238t")
    corpus = _seeded_corpus(20)
    cache = PlanCache()

    schedulers = {n: make_scheduler(n) for n in (*CANDIDATES, "serial")}
    exhaustive = run_suite(corpus, schedulers, machine,
                           n_cores=N_CORES, plan_cache=cache)

    # one cold pass builds the genuine observation base (~80 records),
    # inflated to N_STORE with seeded log-space jitter on the seconds —
    # the redundancy a long-running fleet accumulates
    base = ObservationStore(None)
    cost = Autotuner(candidates=CANDIDATES, mode="simulated",
                     expected_solves=1e15, seed=0)
    for inst in corpus:
        cost.tune(inst, machine, n_cores=N_CORES, plan_cache=cache,
                  store=base)
    rng = np.random.default_rng(0)
    records = []
    while len(records) < N_STORE:
        for obs in base:
            record = dict(obs)
            record["seconds"] = float(obs["seconds"]) * float(
                np.exp(rng.normal(0.0, 0.05))
            )
            records.append(record)
            if len(records) >= N_STORE:
                break

    store = ObservationStore(tmp_path / "fleet", fingerprint="bench")
    store.ingest(records)
    store.flush()

    with Timer() as t_fit_full:
        model_full = LearnedTunerModel.fit(records)
    with Timer() as t_prune:
        stats = store.prune(PRUNE_KEEP)
    assert stats.before == N_STORE
    assert stats.after <= PRUNE_KEEP
    with Timer() as t_fit_pruned:
        model_pruned = LearnedTunerModel.fit(store)

    def n_matches(model) -> int:
        prior = LearnedPrior(model, min_samples=3, max_std=5.0)
        matches = 0
        for i, inst in enumerate(corpus):
            features = extract_features(inst, n_cores=N_CORES)
            pick = prior.rank(inst, CANDIDATES, machine,
                              n_cores=N_CORES, plan_cache=cache,
                              features=features,
                              expected_solves=1e15)[0].name
            per_sched = {name: exhaustive[name][i].parallel_cycles
                         for name in exhaustive}
            if per_sched[pick] <= min(per_sched.values()) * (1 + 1e-12):
                matches += 1
        return matches

    m_full, m_pruned = n_matches(model_full), n_matches(model_pruned)
    print()
    print(format_table(
        ["store", "records", "fit s", "matches /20"],
        [
            ["full", str(N_STORE), f"{t_fit_full.elapsed:.3f}",
             str(m_full)],
            ["pruned (coverage)", str(stats.after),
             f"{t_fit_pruned.elapsed:.3f}", str(m_pruned)],
        ],
        title=f"coverage prune {N_STORE} -> {PRUNE_KEEP} "
              f"(prune {t_prune.elapsed:.3f}s)",
    ))
    assert m_pruned >= m_full - 1, (
        f"pruned-store model matched {m_pruned}/20, full-store model "
        f"{m_full}/20 — coverage prune lost more than one pick"
    )


def test_store_merge_is_linear_in_total_observations(tmp_path):
    """Merging 10 shards is O(total observations): every source record
    is read exactly once (the counter proves there is no per-source
    quadratic re-read), and re-merging adds nothing."""
    machine = get_machine("intel_xeon_6238t")
    per_shard = (N_STORE // 10) if SMOKE else 2_000
    n_shards = 10
    features = extract_features(
        DatasetInstance("merge_nb",
                        narrow_band_lower(400, 0.1, 8.0, seed=0)),
        n_cores=N_CORES,
    )

    sources = []
    for s in range(n_shards):
        shard = ObservationStore(tmp_path / f"shard{s}",
                                 fingerprint=f"m{s}")
        for i in range(per_shard):
            shard.add_observation(
                features, CANDIDATES[i % len(CANDIDATES)],
                1.0 + i + 10_000 * s, n_cores=N_CORES,
                mode="simulated", machine=machine.name, source="tune",
            )
        shard.flush()
        sources.append(shard.path)

    total = n_shards * per_shard
    dest = ObservationStore(tmp_path / "merged", fingerprint="dest")
    with Timer() as t_merge:
        stats = dest.merge(sources)
    assert stats.records_read == total, (
        "merge re-read source records — not O(total observations)"
    )
    assert stats.added == total and stats.duplicates == 0
    assert len(dest) == total

    with Timer() as t_again:
        again = dest.merge(sources)
    assert again.records_read == total
    assert again.added == 0 and again.duplicates == total

    print()
    print(format_table(
        ["merge", "records read", "added", "time s"],
        [
            ["10 shards -> empty", str(stats.records_read),
             str(stats.added), f"{t_merge.elapsed:.3f}"],
            ["10 shards -> merged (idempotent)",
             str(again.records_read), str(again.added),
             f"{t_again.elapsed:.3f}"],
        ],
        title=f"store merge ({n_shards} shards x {per_shard} records)",
    ))
