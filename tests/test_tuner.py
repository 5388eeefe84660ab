"""The autotuner subsystem: features, prior, racing, profiles, "auto".

The load-bearing acceptance checks live here:

* on a real dataset the tuner's per-instance pick matches the best
  exhaustive per-instance scheduler for >= 80% of instances;
* tuner selection is deterministic for a fixed seed (simulated racing);
* re-tuning through a persisted profile skips racing (warm start);
* the solve service refuses ``schedule="auto"`` and names the plan
  ``schedule=None`` compiles instead.
"""

import math
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import PlanCache, get_backend
from repro.experiments.datasets import DatasetInstance, build_dataset
from repro.experiments.runner import compiled_entry, run_instance, run_suite
from repro.graph.dag import DAG
from repro.machine.model import get_machine
from repro.matrix.generators import erdos_renyi_lower, narrow_band_lower
from repro.scheduler.registry import available_schedulers, make_scheduler
from repro.service import ServingGateway, SolveService
from repro.solver.sptrsv import forward_substitution
from repro.tuner import (
    Autotuner,
    MatrixFeatures,
    TuningDecision,
    TuningProfile,
    extract_features,
    load_profile,
    save_profile,
    successive_halving,
)
from repro.tuner.auto import _one_arm_per_executed_plan
from repro.tuner.predict import CandidateScore, rank_candidates

CANDIDATES = ("growlocal", "hdagg", "wavefront")
N_CORES = 8


@pytest.fixture(scope="module")
def machine():
    return get_machine("intel_xeon_6238t")


@pytest.fixture(scope="module")
def small_inst():
    return DatasetInstance("nb_small", narrow_band_lower(500, 0.1, 10.0,
                                                         seed=7))


@pytest.fixture(scope="module")
def dataset_instances():
    return list(build_dataset("narrow_band"))[:4]


@pytest.fixture(scope="module")
def shared_cache():
    return PlanCache()


@pytest.fixture(scope="module")
def exhaustive(dataset_instances, machine, shared_cache):
    """Every candidate (plus serial) on every instance, shared cache."""
    schedulers = {
        name: make_scheduler(name) for name in (*CANDIDATES, "serial")
    }
    return run_suite(dataset_instances, schedulers, machine,
                     n_cores=N_CORES, plan_cache=shared_cache)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------
class TestFeatures:
    def test_basic_quantities(self, small_inst):
        f = extract_features(small_inst, n_cores=N_CORES)
        assert f.n == small_inst.n
        assert f.nnz == small_inst.nnz
        assert f.n_wavefronts == small_inst.n_wavefronts
        assert f.avg_wavefront == pytest.approx(small_inst.avg_wavefront)
        assert f.avg_row_nnz == pytest.approx(small_inst.nnz / small_inst.n)
        assert 0 < f.avg_bandwidth <= f.max_bandwidth
        assert 0.0 <= f.cross_edge_fraction <= 1.0
        assert f.n_cores == N_CORES

    def test_accepts_bare_matrix(self, small_inst):
        direct = extract_features(small_inst.lower, n_cores=N_CORES)
        assert direct == extract_features(small_inst, n_cores=N_CORES)

    def test_dict_roundtrip_and_matching(self, small_inst):
        f = extract_features(small_inst, n_cores=N_CORES)
        back = MatrixFeatures.from_dict(f.as_dict())
        assert back == f
        assert f.matches(back)

    def test_different_structure_does_not_match(self, small_inst):
        f = extract_features(small_inst, n_cores=N_CORES)
        other = extract_features(
            DatasetInstance("er", erdos_renyi_lower(500, 0.01, seed=1)),
            n_cores=N_CORES,
        )
        assert not f.matches(other)


# ---------------------------------------------------------------------------
# successive halving
# ---------------------------------------------------------------------------
class TestRace:
    @staticmethod
    def _fixed(times):
        def measure(name, repeats, round_index):
            return times[name]

        return measure

    def test_picks_fastest(self):
        times = {"a": 3.0, "b": 1.0, "c": 2.0}
        res = successive_halving(list(times), self._fixed(times),
                                 budget_seconds=1e9)
        assert res.winner == "b"
        assert not res.exhausted
        # the slowest arm is eliminated first
        assert "a" not in res.rounds[-1]

    def test_handicap_is_part_of_the_objective(self):
        times = {"fast_expensive": 1.0, "slow_cheap": 1.5}
        no_handicap = successive_halving(
            list(times), self._fixed(times), budget_seconds=1e9
        )
        assert no_handicap.winner == "fast_expensive"
        handicapped = successive_halving(
            list(times), self._fixed(times), budget_seconds=1e9,
            handicap={"fast_expensive": 10.0},
        )
        assert handicapped.winner == "slow_cheap"

    def test_budget_exhaustion_keeps_best_so_far(self):
        times = {"a": 5.0, "b": 1.0, "c": 2.0, "d": 3.0}
        res = successive_halving(
            list(times), self._fixed(times),
            budget_seconds=1e-9, base_repeats=1,
        )
        # one full round always runs; afterwards the budget stops the
        # race and the best measured arm wins
        assert res.winner == "b"
        assert res.exhausted

    def test_deterministic_tie_break_by_arm_order(self):
        times = {"x": 1.0, "y": 1.0}
        assert successive_halving(
            ["x", "y"], self._fixed(times), budget_seconds=1e9
        ).winner == "x"
        assert successive_halving(
            ["y", "x"], self._fixed(times), budget_seconds=1e9
        ).winner == "y"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            successive_halving([], self._fixed({}))
        with pytest.raises(ConfigurationError):
            successive_halving(["a"], self._fixed({"a": 1.0}), eta=1)


# ---------------------------------------------------------------------------
# the cost-model prior
# ---------------------------------------------------------------------------
class TestPredict:
    def test_serial_baseline_always_ranked(self, small_inst, machine):
        scores = rank_candidates(small_inst, CANDIDATES, machine,
                                 n_cores=N_CORES)
        assert {s.name for s in scores} == set(CANDIDATES) | {"serial"}

    def test_sorted_by_amortized_objective(self, small_inst, machine):
        scores = rank_candidates(small_inst, CANDIDATES, machine,
                                 n_cores=N_CORES, expected_solves=1e15)
        objectives = [s.objective_seconds for s in scores]
        assert objectives == sorted(objectives)

    def test_shares_the_plan_cache(self, small_inst, machine):
        cache = PlanCache()
        rank_candidates(small_inst, CANDIDATES, machine,
                        n_cores=N_CORES, plan_cache=cache)
        misses = cache.misses
        rank_candidates(small_inst, CANDIDATES, machine,
                        n_cores=N_CORES, plan_cache=cache)
        assert cache.misses == misses  # second ranking is all hits


# ---------------------------------------------------------------------------
# the objective's range: refused up front, never clamped or divided by
# ---------------------------------------------------------------------------
class TestObjectiveValidation:
    @pytest.mark.parametrize("kwargs", [
        pytest.param({"expected_solves": 0}, id="solves-zero"),
        pytest.param({"expected_solves": -5}, id="solves-negative"),
        pytest.param({"expected_solves": math.nan}, id="solves-nan"),
        pytest.param({"budget_seconds": -1.0}, id="budget-negative"),
        pytest.param({"budget_seconds": math.nan}, id="budget-nan"),
    ])
    def test_tuner_refuses(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ConfigurationError, match=name):
            Autotuner(candidates=CANDIDATES, mode="simulated", **kwargs)

    @pytest.mark.parametrize("solves", [0, -5, math.nan])
    def test_rank_candidates_refuses(self, small_inst, machine, solves):
        with pytest.raises(ConfigurationError, match="expected_solves"):
            rank_candidates(small_inst, CANDIDATES, machine,
                            n_cores=N_CORES, expected_solves=solves)

    def test_infinite_expected_solves_ranks_per_solve_seconds(
        self, small_inst, machine
    ):
        """``inf`` means per-solve speed only: the objective is the
        simulated solve time and the decision round-trips."""
        scores = rank_candidates(small_inst, CANDIDATES, machine,
                                 n_cores=N_CORES, expected_solves=math.inf)
        assert all(s.objective_seconds == s.parallel_seconds
                   for s in scores)
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=math.inf, seed=0)
        decision = tuner.tune(small_inst, machine, n_cores=N_CORES)
        assert TuningDecision.from_dict(decision.as_dict()) == decision


# ---------------------------------------------------------------------------
# the full pipeline on a real dataset (acceptance criteria)
# ---------------------------------------------------------------------------
class TestTunerOnDataset:
    def _tune_all(self, instances, machine, cache, **kwargs):
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=1e15, seed=0, **kwargs)
        return tuner, [
            tuner.tune(inst, machine, n_cores=N_CORES, plan_cache=cache)
            for inst in instances
        ]

    def test_matches_exhaustive_best_for_most_instances(
        self, dataset_instances, machine, shared_cache, exhaustive
    ):
        """The tuner's pick achieves the best exhaustive per-instance
        simulated solve time for >= 80% of the dataset's instances."""
        _, decisions = self._tune_all(dataset_instances, machine,
                                      shared_cache)
        matches = 0
        for i, (inst, decision) in enumerate(
            zip(dataset_instances, decisions, strict=True)
        ):
            per_sched = {
                name: exhaustive[name][i].parallel_cycles
                for name in exhaustive
            }
            best_cycles = min(per_sched.values())
            assert decision.instance == inst.name
            if per_sched[decision.scheduler] <= best_cycles * (1 + 1e-12):
                matches += 1
        assert matches >= math.ceil(0.8 * len(dataset_instances)), (
            matches, [d.scheduler for d in decisions],
        )

    def test_selection_is_deterministic_for_a_fixed_seed(
        self, dataset_instances, machine, shared_cache
    ):
        _, first = self._tune_all(dataset_instances, machine, shared_cache)
        _, second = self._tune_all(dataset_instances, machine, shared_cache)
        assert [d.as_dict() for d in first] == [
            d.as_dict() for d in second
        ]

    def test_simulated_picks_repeat_across_plan_caches(
        self, dataset_instances, machine
    ):
        """Two tunings with their own plan caches, so every schedule and
        compile is timed twice.  At ``expected_solves=inf`` the picks and
        the simulated seconds repeat; ``amortization`` carries the
        compile's wall-clock scheduling seconds, so it is not compared."""
        def simulated(decision):
            return (decision.instance, decision.scheduler, decision.reorder,
                    decision.predicted_speedup, decision.objective_seconds,
                    decision.measured_seconds)

        runs = []
        for _ in range(2):
            tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                              expected_solves=math.inf, seed=0)
            runs.append([
                simulated(tuner.tune(inst, machine, n_cores=N_CORES,
                                     plan_cache=PlanCache()))
                for inst in dataset_instances
            ])
        assert runs[0] == runs[1]

    def test_profile_warm_start_skips_racing(
        self, dataset_instances, machine, shared_cache, tmp_path
    ):
        profile = TuningProfile(machine=machine.name)
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=1e15, seed=0)
        cold = [
            tuner.tune(inst, machine, n_cores=N_CORES,
                       plan_cache=shared_cache, profile=profile)
            for inst in dataset_instances
        ]
        assert tuner.races_run == len(dataset_instances)
        assert all(d.source == "raced" for d in cold)

        path = tmp_path / "profile.json"
        save_profile(profile, path)
        reloaded = load_profile(path)
        warm_tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                               expected_solves=1e15, seed=0)
        warm = [
            warm_tuner.tune(inst, machine, n_cores=N_CORES,
                            plan_cache=shared_cache, profile=reloaded)
            for inst in dataset_instances
        ]
        assert warm_tuner.races_run == 0  # every decision came warm
        assert all(d.source == "profile" for d in warm)
        assert [d.scheduler for d in warm] == [d.scheduler for d in cold]

    def test_profile_misses_on_structure_drift(self, machine, tmp_path):
        """A stored decision is not trusted for a matrix whose features
        changed under the same instance name."""
        profile = TuningProfile(machine=machine.name)
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated", seed=0)
        inst_a = DatasetInstance("same_name",
                                 narrow_band_lower(400, 0.1, 8.0, seed=1))
        tuner.tune(inst_a, machine, n_cores=N_CORES, profile=profile)
        inst_b = DatasetInstance("same_name",
                                 erdos_renyi_lower(400, 0.02, seed=2))
        decision = tuner.tune(inst_b, machine, n_cores=N_CORES,
                              profile=profile)
        assert decision.source == "raced"
        assert tuner.races_run == 2

    def test_profile_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"version": 999, "entries": {}}')
        with pytest.raises(ConfigurationError):
            load_profile(path)

    def test_profile_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ConfigurationError):
            load_profile(path)

    def test_decision_dict_roundtrip(self, small_inst, machine):
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated", seed=3)
        decision = tuner.tune(small_inst, machine, n_cores=N_CORES)
        back = TuningDecision.from_dict(decision.as_dict())
        assert back == decision

    def test_measured_mode_smoke(self, small_inst, machine):
        """Measured racing runs real solves: no determinism asserted,
        but the decision must be a ranked candidate and carry a
        measurement."""
        tuner = Autotuner(candidates=CANDIDATES, mode="measured",
                          budget_seconds=0.05, seed=0)
        decision = tuner.tune(small_inst, machine, n_cores=N_CORES)
        assert decision.scheduler in (*CANDIDATES, "serial")
        assert decision.measured_seconds is not None
        assert decision.measured_seconds > 0

    def test_measured_race_gives_unreordered_plans_one_arm(self):
        """Plans run without the reorder execute the same level-set
        arrays, so a measured race gives them one arm, the cheapest to
        schedule, in the place of the first of them; each reordered
        plan keeps its arm."""
        def score(name, scheduling_seconds):
            return CandidateScore(name, 0.0, 0.0, scheduling_seconds, None)

        hdagg, growlocal = score("hdagg", 3.0), score("growlocal", 5.0)
        wavefront, serial = score("wavefront", 1.0), score("serial", 2.0)
        finalists = [hdagg, growlocal, wavefront, serial]
        assert _one_arm_per_executed_plan(finalists, None) == [
            wavefront, growlocal,
        ]
        assert _one_arm_per_executed_plan(finalists, False) == [wavefront]
        assert _one_arm_per_executed_plan(finalists, True) == finalists

    def test_measured_tuning_without_reorder_races_one_arm(
        self, small_inst, machine
    ):
        """With ``reorder=False`` every finalist executes the same plan:
        the pick is the finalist cheapest to schedule and nothing is
        timed."""
        cache = PlanCache()
        tuner = Autotuner(candidates=CANDIDATES, mode="measured",
                          budget_seconds=0.05, seed=0)
        decision = tuner.tune(small_inst, machine, n_cores=N_CORES,
                              reorder=False, plan_cache=cache)
        finalists = rank_candidates(
            small_inst, CANDIDATES, machine, n_cores=N_CORES,
            reorder=False, expected_solves=tuner.expected_solves,
            plan_cache=cache,
        )[: tuner.keep]
        cheapest = min(finalists, key=lambda s: s.scheduling_seconds)
        assert decision.scheduler == cheapest.name
        assert decision.measured_seconds is None
        assert tuner.races_run == 1


# ---------------------------------------------------------------------------
# the "auto" registry entry
# ---------------------------------------------------------------------------
class TestAutoScheduler:
    def test_registered(self):
        assert "auto" in available_schedulers()

    def test_run_instance_resolves_to_the_tuned_pick(
        self, dataset_instances, machine, shared_cache
    ):
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=1e15, seed=0)
        auto = make_scheduler("auto", tuner=tuner)
        inst = dataset_instances[0]
        result = run_instance(inst, auto, machine, n_cores=N_CORES,
                              plan_cache=shared_cache)
        decision = auto.last_decision(inst.name, machine.name, N_CORES)
        assert decision is not None
        assert result.scheduler == decision.scheduler
        # the concrete pick's exhaustive result is reproduced exactly
        direct = run_instance(
            inst, make_scheduler(decision.scheduler), machine,
            n_cores=N_CORES, plan_cache=shared_cache,
        )
        assert result.parallel_cycles == direct.parallel_cycles

    def test_decisions_are_memoized(self, small_inst, machine):
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated", seed=0)
        auto = make_scheduler("auto", tuner=tuner)
        cache = PlanCache()
        auto.resolve_for_instance(small_inst, machine, n_cores=N_CORES,
                                  plan_cache=cache)
        auto.resolve_for_instance(small_inst, machine, n_cores=N_CORES,
                                  plan_cache=cache)
        assert tuner.races_run == 1

    def test_run_suite_accepts_auto(self, dataset_instances, machine,
                                    shared_cache):
        schedulers = {
            "auto": make_scheduler(
                "auto",
                tuner=Autotuner(candidates=CANDIDATES, mode="simulated",
                                expected_solves=1e15, seed=0),
            ),
            "growlocal": make_scheduler("growlocal"),
        }
        results = run_suite(dataset_instances[:2], schedulers, machine,
                            n_cores=N_CORES, plan_cache=shared_cache)
        assert set(results) == {"auto", "growlocal"}
        assert len(results["auto"]) == 2
        for r in results["auto"]:
            assert r.speedup > 0

    def test_run_suite_parallel_accepts_auto(self, machine):
        """The AutoScheduler must survive pickling into pool workers."""
        from repro.experiments.parallel import run_suite_parallel

        instances = [
            DatasetInstance(f"par_{i}",
                            narrow_band_lower(300, 0.1, 8.0, seed=i))
            for i in range(2)
        ]
        schedulers = {
            "auto": make_scheduler(
                "auto",
                tuner=Autotuner(candidates=CANDIDATES, mode="simulated",
                                expected_solves=1e15, seed=0),
            ),
        }
        results = run_suite_parallel(instances, schedulers, machine,
                                     n_cores=4, workers=2)
        assert len(results["auto"]) == 2
        sequential = run_suite(instances, schedulers, machine, n_cores=4)
        assert [r.parallel_cycles for r in results["auto"]] == [
            r.parallel_cycles for r in sequential["auto"]
        ]

    def test_standalone_schedule_is_valid_and_deterministic(self):
        lower = narrow_band_lower(300, 0.1, 8.0, seed=5)
        dag = DAG.from_lower_triangular(lower)
        auto = make_scheduler("auto", mode="simulated",
                              candidates=CANDIDATES, seed=0)
        schedule = auto.schedule(dag, 4)
        schedule.validate(dag)
        again = make_scheduler("auto", mode="simulated",
                               candidates=CANDIDATES, seed=0)
        other = again.schedule(dag, 4)
        assert np.array_equal(schedule.cores, other.cores)
        assert np.array_equal(schedule.supersteps, other.supersteps)

    def test_rejects_tuner_and_options_together(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("auto", tuner=Autotuner(), seed=1)


# ---------------------------------------------------------------------------
# the solve service refuses schedule="auto"
# ---------------------------------------------------------------------------
class TestServiceAuto:
    @pytest.fixture(scope="class")
    def lower(self):
        return narrow_band_lower(600, 0.1, 12.0, seed=11)

    def test_register_rejects_unknown_schedule_spec(self, lower):
        """No string is a schedule spec.  ``"auto"`` is refused too, not
        aliased to ``None``: the message names ``schedule=None`` (the
        level-set plan) and where scheduler choice lives instead."""
        with SolveService() as svc:
            with pytest.raises(ConfigurationError):
                svc.register("sys", lower, schedule="autotune")
        for target in (SolveService(), ServingGateway(n_shards=2)):
            with target:
                with pytest.raises(ConfigurationError) as info:
                    target.register("k", lower, schedule="auto")
                assert target.systems() == []
            message = str(info.value)
            assert "schedule=None" in message
            assert "repro tune" in message
            assert "make_scheduler('auto')" in message


class TestReviewRegressions:
    """Pins for defects found in review of the tuner integration."""

    def test_run_instance_forwards_reorder_to_the_tuner(
        self, small_inst, machine
    ):
        """The tuner must rank/race under the same reorder flag the run
        executes with — a reorder=False run must not be decided on
        Section 5-reordered plans."""
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=1e15, seed=0)
        auto = make_scheduler("auto", tuner=tuner)
        cache = PlanCache()
        result = run_instance(small_inst, auto, machine,
                              n_cores=N_CORES, reorder=False,
                              plan_cache=cache)
        assert not result.reordered
        decision = auto.last_decision(small_inst.name, machine.name,
                                      N_CORES, reorder=False)
        assert decision is not None
        assert decision.reorder is False
        # the decision and the run used the same compiled triples: the
        # winner's reorder=False triple is already cached
        assert (small_inst.name, decision.scheduler, N_CORES,
                False) in cache

    def test_warm_start_rejects_pick_outside_the_candidate_pool(
        self, small_inst, machine, tmp_path
    ):
        """A stored decision is only admissible under the current tuner
        configuration: narrowing the candidate pool must re-tune, never
        return an excluded scheduler from the profile."""
        from repro.tuner import entry_key

        profile = TuningProfile(machine=machine.name)
        wide = Autotuner(candidates=CANDIDATES, mode="simulated",
                         expected_solves=1e15, seed=0)
        wide.tune(small_inst, machine, n_cores=N_CORES, profile=profile)
        # force the stored pick to a scheduler the narrow pool excludes
        key = entry_key(small_inst.name, machine.name, N_CORES)
        profile.entries[key]["scheduler"] = "growlocal"
        narrow = Autotuner(candidates=("hdagg",), mode="simulated",
                           expected_solves=1e15, seed=0)
        decision = narrow.tune(small_inst, machine, n_cores=N_CORES,
                               profile=profile)
        assert decision.scheduler in ("hdagg", "serial")
        assert narrow.races_run == 1  # profile hit was not admissible
        # the re-tuned decision replaced the inadmissible entry
        assert profile.entries[key]["scheduler"] == decision.scheduler

    def test_warm_start_rejects_mismatched_reorder_flag(
        self, small_inst, machine
    ):
        """An explicit reorder flag that differs from the stored
        decision's must re-tune (the service depends on reorder=False
        plans solving the original system)."""
        profile = TuningProfile(machine=machine.name)
        tuner = Autotuner(candidates=("growlocal",), mode="simulated",
                          expected_solves=1e15, seed=0)
        first = tuner.tune(small_inst, machine, n_cores=N_CORES,
                           reorder=True, profile=profile)
        assert first.reorder is True
        second = tuner.tune(small_inst, machine, n_cores=N_CORES,
                            reorder=False, profile=profile)
        assert second.reorder is False
        assert tuner.races_run == 2

    def test_standalone_schedule_widens_past_the_machine_width(self):
        """Regression: schedule(dag, n) with n above the machine preset
        must decide *and* schedule at n, not decide at the clipped
        width."""
        lower = narrow_band_lower(300, 0.1, 8.0, seed=9)
        dag = DAG.from_lower_triangular(lower)
        auto = make_scheduler("auto", mode="simulated",
                              candidates=CANDIDATES, seed=0)
        wide = get_machine("intel_xeon_6238t").n_cores + 8
        schedule = auto.schedule(dag, wide)
        schedule.validate(dag)
        assert schedule.n_cores == wide
        decisions = list(auto._decisions.values())
        assert decisions and all(d.n_cores == wide for d in decisions)

    def test_warm_start_rejects_different_objective(
        self, small_inst, machine
    ):
        """A decision tuned for one Eq. 7.1 amortization target (or
        racing mode) is stale under another and must be re-tuned."""
        profile = TuningProfile(machine=machine.name)
        many = Autotuner(candidates=CANDIDATES, mode="simulated",
                         expected_solves=1e15, seed=0)
        many.tune(small_inst, machine, n_cores=N_CORES, profile=profile)
        few = Autotuner(candidates=CANDIDATES, mode="simulated",
                        expected_solves=1.0, seed=0)
        decision = few.tune(small_inst, machine, n_cores=N_CORES,
                            profile=profile)
        assert few.races_run == 1  # stale objective -> re-raced
        assert decision.expected_solves == 1.0
        # same objective again now warm-starts
        repeat = Autotuner(candidates=CANDIDATES, mode="simulated",
                           expected_solves=1.0, seed=0)
        assert repeat.tune(small_inst, machine, n_cores=N_CORES,
                           profile=profile).source == "profile"
        assert repeat.races_run == 0

    def test_malformed_profile_entry_falls_back_to_retuning(
        self, small_inst, machine
    ):
        """An entry whose features match but whose decision fields are
        missing must re-tune (like a feature mismatch), not crash."""
        from repro.tuner import entry_key

        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=1e15, seed=0)
        profile = TuningProfile(machine=machine.name)
        good = tuner.tune(small_inst, machine, n_cores=N_CORES,
                          profile=profile)
        key = entry_key(small_inst.name, machine.name, N_CORES)
        profile.entries[key] = {
            "features": profile.entries[key]["features"],  # only this
        }
        decision = tuner.tune(small_inst, machine, n_cores=N_CORES,
                              profile=profile)
        assert decision.source == "raced"
        assert decision.scheduler == good.scheduler
        # the repaired entry is written back complete
        assert profile.entries[key]["scheduler"] == good.scheduler


# ---------------------------------------------------------------------------
# the profile format: version 3, decisions only; older files are refused
# ---------------------------------------------------------------------------
class TestProfileFormat:
    @pytest.fixture(scope="class")
    def cold(self, small_inst, machine):
        """A decision from one cold simulated run and its profile."""
        profile = TuningProfile(machine=machine.name)
        tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                          expected_solves=1e15, seed=0)
        decision = tuner.tune(small_inst, machine, n_cores=N_CORES,
                              profile=profile)
        return profile, decision

    @pytest.mark.parametrize("version, inline", [
        pytest.param(1, False, id="v1"),
        pytest.param(2, True, id="v2"),
        pytest.param(3, True, id="v3-with-observations"),
        pytest.param(99, False, id="unknown-version"),
    ])
    def test_load_refuses(self, cold, machine, tmp_path, version,
                          inline):
        """Version 1 and 2 files, and any file still carrying an
        inline observation array, are refused with a named error —
        old training data is never silently dropped."""
        import json

        profile, _ = cold
        data = {"version": version, "machine": machine.name,
                "entries": profile.entries}
        if inline:
            data["observations"] = [
                {"scheduler": "growlocal", "seconds": 1e-4,
                 "mode": "simulated"},
            ]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        cause = "observations" if version == 3 else f"version {version}"
        with pytest.raises(ConfigurationError, match=cause):
            load_profile(path)

    def test_saved_profile_is_decisions_only_and_warm_starts(
        self, cold, small_inst, machine, tmp_path
    ):
        import json

        profile, decision = cold
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        data = json.loads(path.read_text())
        assert data == {"version": 3, "machine": machine.name,
                        "entries": profile.entries}

        warm_tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                               expected_solves=1e15, seed=0)
        warm = warm_tuner.tune(small_inst, machine, n_cores=N_CORES,
                               profile=load_profile(path))
        assert warm_tuner.races_run == 0
        assert warm.source == "profile"
        assert warm.scheduler == decision.scheduler

    def test_save_profile_failure_keeps_previous_file(self, tmp_path):
        """A failed save leaves the previous profile whole and no temp
        file behind."""
        path = tmp_path / "profile.json"
        save_profile(TuningProfile(machine="good-machine"), path)
        bad = TuningProfile(machine="bad")
        bad.entries["k"] = {"unserializable": object()}
        with pytest.raises(TypeError):
            save_profile(bad, path)
        assert load_profile(path).machine == "good-machine"
        assert not [f for f in os.listdir(tmp_path)
                    if f.endswith(".tmp")]

    def test_entry_carrying_max_batch_still_warm_starts(
        self, cold, small_inst, machine, tmp_path
    ):
        """Version-3 entries written with a ``max_batch`` field load and
        warm-start with zero races; the field is ignored."""
        import json

        profile, decision = cold
        entries = {
            key: {**entry, "max_batch": 32}
            for key, entry in profile.entries.items()
        }
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"version": 3, "machine": machine.name,
                                    "entries": entries}))
        warm_tuner = Autotuner(candidates=CANDIDATES, mode="simulated",
                               expected_solves=1e15, seed=0)
        warm = warm_tuner.tune(small_inst, machine, n_cores=N_CORES,
                               profile=load_profile(path))
        assert warm_tuner.races_run == 0
        assert warm.source == "profile"
        assert warm.scheduler == decision.scheduler
        assert "max_batch" not in warm.as_dict()


# ---------------------------------------------------------------------------
# the measured-mode profile round trip, with a solve check
# ---------------------------------------------------------------------------
class TestMeasuredProfileLoop:
    """The measured loop on ``reorder=False`` plans, the unpermuted
    systems a solve service serves."""

    def test_warm_picks_skip_racing_and_solve_the_original_system(
        self, tmp_path, machine
    ):
        insts = [
            DatasetInstance(
                f"loop{i}",
                narrow_band_lower(250 + 60 * i, 0.12, 6.0 + i,
                                  seed=300 + i),
            )
            for i in range(3)
        ]
        profile = TuningProfile(machine=machine.name)
        cache = PlanCache()
        tuner = Autotuner(candidates=CANDIDATES, mode="measured",
                          budget_seconds=0.02, seed=0)
        cold = [
            tuner.tune(inst, machine, n_cores=N_CORES, reorder=False,
                       plan_cache=cache, profile=profile)
            for inst in insts
        ]
        assert tuner.races_run == len(insts)
        assert all(d.source == "raced" and d.reorder is False
                   for d in cold)
        path = tmp_path / "profile.json"
        save_profile(profile, path)

        reloaded = load_profile(path)
        warm_tuner = Autotuner(candidates=CANDIDATES, mode="measured",
                               budget_seconds=0.02, seed=0)
        warm = [
            warm_tuner.tune(inst, machine, n_cores=N_CORES,
                            reorder=False, plan_cache=cache,
                            profile=reloaded)
            for inst in insts
        ]
        assert warm_tuner.races_run == 0  # every decision came warm
        assert [d.scheduler for d in warm] == [d.scheduler for d in cold]
        assert all(d.source == "profile" for d in warm)
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
