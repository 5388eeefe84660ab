"""Priors: rank candidate schedulers without wall-clock racing.

Two priors share one scoring contract (a sorted list of
:class:`CandidateScore`):

* the **cost-model prior** (:func:`rank_candidates`) — schedule each
  candidate, lower it once (memoized in the shared
  :class:`~repro.exec.PlanCache`), and run the plan-based cost kernel of
  :mod:`repro.exec.cost` under a calibrated machine model — exactly what
  :func:`~repro.experiments.runner.run_instance` does.  One simulation
  per candidate per instance;
* the **learned prior** (:class:`LearnedPrior`) — a trained
  :class:`~repro.tuner.learn.LearnedTunerModel` predicts each
  candidate's seconds from the matrix features in **one inference**, and
  an uncertainty gate falls back to the cost model per candidate
  wherever the model is out of its depth (too few samples, or a
  leave-one-out predictive deviation above the threshold).  With an
  empty model every candidate falls back, so the learned prior degrades
  bit-identically to the cost-model prior.

The ranking objective is *amortized* per-solve time (Eq. 7.1 folded into
the objective): ``parallel_seconds + scheduling_seconds / expected_solves``.
A scheduler that simulates fastest but costs minutes to schedule loses to
a slightly slower one that schedules instantly when few solves will reuse
the schedule; as ``expected_solves -> inf`` the objective converges to
pure per-solve time.  The ``serial`` baseline is always ranked alongside
the candidates, so when nothing amortizes the prior (and therefore the
tuner) falls back to serial execution rather than a never-paying-off
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exec import PlanCache
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import (
    ExperimentResult,
    resolve_reorder,
    run_instance,
)
from repro.machine.model import MachineModel
from repro.scheduler.registry import make_scheduler
from repro.tuner.features import MatrixFeatures, extract_features
from repro.tuner.learn import LearnedTunerModel, feature_vector

__all__ = ["CandidateScore", "LearnedPrior", "clip_cores",
           "rank_candidates"]

#: Default candidate pool of the tuner: the paper's own algorithms plus
#: the strongest baselines.  ``spmp`` and ``bspg`` are deliberately not
#: in the default pool — their scheduling cost is super-linear on dense
#: rows — but callers can always pass an explicit candidate list.
DEFAULT_CANDIDATES = ("growlocal", "funnel+gl", "hdagg", "wavefront")


@dataclass(frozen=True)
class CandidateScore:
    """One candidate's prior score on one instance.

    ``objective_seconds`` is the amortized per-solve objective the prior
    ranks by.  ``source`` records which prior produced the numbers:
    ``"cost_model"`` scores keep the full simulated metrics in
    ``result``; ``"learned"`` scores carry model predictions instead
    (``result is None``) together with the predictive ``std_log`` the
    uncertainty gate admitted them under.
    """

    name: str
    objective_seconds: float
    parallel_seconds: float
    scheduling_seconds: float
    result: ExperimentResult | None = None
    source: str = "cost_model"
    predicted_speedup: float | None = None
    predicted_amortization: float | None = None
    std_log: float | None = None

    @property
    def speedup(self) -> float:
        if self.result is not None:
            return self.result.speedup
        return (self.predicted_speedup
                if self.predicted_speedup is not None else math.inf)

    @property
    def amortization(self) -> float:
        if self.result is not None:
            return self.result.amortization
        return (self.predicted_amortization
                if self.predicted_amortization is not None else math.inf)


def clip_cores(machine: MachineModel, n_cores: int | None) -> int:
    """Cores a tuning run targets: the machine's full width when
    unspecified, else capped at the machine's width — the same clipping
    :func:`~repro.experiments.runner.run_instance` applies, so rankings
    and decisions are made at exactly the width the run executes.  (One
    definition, shared by the priors here and the
    :class:`~repro.tuner.auto.Autotuner`.)

    Examples
    --------
    >>> from repro.machine.model import get_machine
    >>> from repro.tuner.predict import clip_cores
    >>> m = get_machine("intel_xeon_6238t")   # 22 cores
    >>> (clip_cores(m, None), clip_cores(m, 8), clip_cores(m, 99))
    (22, 8, 22)
    """
    if n_cores is None:
        return machine.n_cores
    return min(int(n_cores), machine.n_cores)


def _candidate_names(candidates: tuple[str, ...] | list[str]) -> list[str]:
    """Dedupe, keep order, always rank the serial baseline."""
    names = list(dict.fromkeys(candidates))
    if "serial" not in names:
        names.append("serial")
    return names


def _sorted_scores(
    scored: list[tuple[float, int, str, CandidateScore]],
) -> list[CandidateScore]:
    """Ascending by (objective, candidate order, name) — element 0 is
    the prior's pick; ties break deterministically."""
    scored.sort(key=lambda s: (s[0], s[1], s[2]))
    return [score for _, _, _, score in scored]


def rank_candidates(
    inst: DatasetInstance,
    candidates: tuple[str, ...] | list[str],
    machine: MachineModel,
    *,
    n_cores: int | None = None,
    reorder: bool | None = None,
    expected_solves: float = 1000.0,
    plan_cache: PlanCache | None = None,
    include_serial: bool = True,
) -> list[CandidateScore]:
    """Rank ``candidates`` on ``inst`` with the cost-model prior.

    Returns scores sorted ascending by amortized per-solve objective —
    element 0 is the prior's pick.  Ties break by candidate order, then
    name, so the ranking is deterministic.

    Parameters
    ----------
    reorder:
        Forwarded to :func:`~repro.experiments.runner.run_instance`.
        Pass ``False`` when the tuned plan must solve the *original*
        system (a reordered plan solves a symmetrically permuted one).
    expected_solves:
        How many solves are expected to reuse the schedule; weights the
        scheduling cost in the objective (Eq. 7.1).
    plan_cache:
        Shared :class:`~repro.exec.PlanCache`; every candidate's
        compiled triple lands in (or comes from) it.
    include_serial:
        Rank the ``serial`` baseline even when absent from
        ``candidates`` (the default).  The :class:`LearnedPrior` turns
        this off when it delegates only its *uncertain* candidates here.

    Examples
    --------
    >>> from repro.experiments.datasets import DatasetInstance
    >>> from repro.machine.model import get_machine
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.tuner import rank_candidates
    >>> inst = DatasetInstance("nb", narrow_band_lower(200, 0.1, 8.0,
    ...                                                seed=0))
    >>> scores = rank_candidates(inst, ("wavefront",),
    ...                          get_machine("intel_xeon_6238t"),
    ...                          n_cores=4)
    >>> sorted(s.name for s in scores)
    ['serial', 'wavefront']
    >>> scores[0].objective_seconds <= scores[1].objective_seconds
    True
    """
    if expected_solves <= 0:
        expected_solves = 1.0
    cache = plan_cache if plan_cache is not None else PlanCache()
    names = (_candidate_names(candidates) if include_serial
             else list(dict.fromkeys(candidates)))

    scored = []
    for idx, name in enumerate(names):
        result = run_instance(
            inst, make_scheduler(name), machine,
            n_cores=n_cores, reorder=reorder, plan_cache=cache,
        )
        parallel_s = machine.cycles_to_seconds(result.parallel_cycles)
        objective = parallel_s + result.scheduling_seconds / expected_solves
        scored.append((objective, idx, name, CandidateScore(
            name=name,
            objective_seconds=objective,
            parallel_seconds=parallel_s,
            scheduling_seconds=result.scheduling_seconds,
            result=result,
        )))
    return _sorted_scores(scored)


class LearnedPrior:
    """Rank candidates by learned inference, cost-model fallback.

    Wraps a :class:`~repro.tuner.learn.LearnedTunerModel` with the
    uncertainty gate: a candidate is scored by the model only when its
    per-scheduler regressor has seen at least ``min_samples``
    observations *and* predicts with a leave-one-out standard deviation
    of at most ``max_std`` (log space; ``0.75`` ≈ "within a factor ~2 at
    one sigma").  Every other candidate — and every candidate of an
    empty model — is priced by :func:`rank_candidates`, so an untrained
    prior is bit-identical to the cost-model one.

    Mixed rankings must stay on one time scale: a model trained on
    **simulated** observations predicts the same cost-model seconds the
    fallback produces, so per-candidate mixing is comparable; a model
    trained on **measured** (wall-clock) observations is only ranked
    when *every* candidate is admitted — a partial admission falls back
    entirely rather than comparing wall-clock predictions against
    simulated seconds in one objective.

    ``n_predicted`` / ``n_fallback`` count candidate scorings since
    construction (inspectable by tests, surfaced by ``repro tune
    --json``).

    Examples
    --------
    >>> from repro.tuner import LearnedPrior, LearnedTunerModel
    >>> prior = LearnedPrior(LearnedTunerModel.fit([]))
    >>> (prior.n_predicted, prior.n_fallback)
    (0, 0)
    """

    def __init__(
        self,
        model: LearnedTunerModel | None = None,
        *,
        max_std: float = 0.75,
        min_samples: int = 4,
    ) -> None:
        self.model = model if model is not None else LearnedTunerModel()
        self.max_std = float(max_std)
        self.min_samples = int(min_samples)
        #: Candidates scored by model inference since construction.
        self.n_predicted = 0
        #: Candidates priced by the cost model since construction.
        self.n_fallback = 0

    def admissible(self, prediction) -> bool:
        """Whether the gate trusts one
        :class:`~repro.tuner.learn.SecondsPrediction`."""
        return (
            prediction is not None
            and prediction.n_samples >= self.min_samples
            and prediction.std_log <= self.max_std
        )

    def rank(
        self,
        inst: DatasetInstance,
        candidates: tuple[str, ...] | list[str],
        machine: MachineModel,
        *,
        n_cores: int | None = None,
        reorder: bool | None = None,
        expected_solves: float = 1000.0,
        plan_cache: PlanCache | None = None,
        features: MatrixFeatures | None = None,
    ) -> list[CandidateScore]:
        """Drop-in for :func:`rank_candidates` (same contract and the
        same deterministic tie-break), answering from the model where
        the gate admits and from the cost model elsewhere.

        ``features`` lets the caller pass the already-extracted
        :class:`~repro.tuner.features.MatrixFeatures` of ``inst`` (the
        tuner computes them anyway for its profile key), making a fully
        admitted ranking pure inference — no scheduling, lowering or
        simulation at all.
        """
        if expected_solves <= 0:
            expected_solves = 1.0
        names = _candidate_names(candidates)
        if features is None:
            features = extract_features(
                inst, n_cores=clip_cores(machine, n_cores)
            )
        x = feature_vector(features)

        admitted = {}
        for name in names:
            # query the model variant matching the reorder flag this
            # ranking executes under — reordered and unpermuted seconds
            # are separate regressors (a reorder=False ranking never
            # answers from Section 5-reordered training data)
            prediction = self.model.predict_from_vector(
                x, name,
                reordered=resolve_reorder(make_scheduler(name), reorder),
            )
            if self.admissible(prediction):
                admitted[name] = prediction
        if self.model.mode == "measured" and len(admitted) < len(names):
            # wall-clock-trained predictions and simulated cost-model
            # fallback scores are different time scales; a ranking must
            # stay on one of them, so a partial admission falls back
            # entirely (a fully admitted ranking is pure wall-clock and
            # stays learned)
            admitted = {}
        self.n_predicted += len(admitted)
        self.n_fallback += len(names) - len(admitted)

        fallback_names = [n for n in names if n not in admitted]
        by_name: dict[str, CandidateScore] = {}
        if fallback_names:
            for score in rank_candidates(
                inst, fallback_names, machine,
                n_cores=n_cores, reorder=reorder,
                expected_solves=expected_solves, plan_cache=plan_cache,
                include_serial=False,
            ):
                by_name[score.name] = score

        # the serial candidate's per-solve seconds are the speed-up
        # denominator for every learned score (serial is always ranked,
        # so one of the two paths above priced it)
        serial_seconds = (
            admitted["serial"].parallel_seconds
            if "serial" in admitted
            else by_name["serial"].parallel_seconds
        )
        for name, prediction in admitted.items():
            parallel_s = prediction.parallel_seconds
            sched_s = prediction.scheduling_seconds
            gain = serial_seconds - parallel_s
            by_name[name] = CandidateScore(
                name=name,
                objective_seconds=parallel_s + sched_s / expected_solves,
                parallel_seconds=parallel_s,
                scheduling_seconds=sched_s,
                result=None,
                source="learned",
                predicted_speedup=(serial_seconds / parallel_s
                                   if parallel_s > 0 else math.inf),
                predicted_amortization=(sched_s / gain if gain > 0
                                        else math.inf),
                std_log=prediction.std_log,
            )

        return _sorted_scores([
            (by_name[name].objective_seconds, idx, name, by_name[name])
            for idx, name in enumerate(names)
        ])
