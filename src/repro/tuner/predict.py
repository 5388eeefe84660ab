"""The cost-model prior: rank candidate schedulers.

:func:`rank_candidates` schedules each candidate once (memoized in
the shared :class:`~repro.exec.PlanCache`) and prices the schedule with
the cost kernel of :mod:`repro.machine.cost` under a calibrated
machine model — exactly what
:func:`~repro.experiments.runner.run_instance` does.  One simulation per
candidate per instance.

The ranking objective is *amortized* per-solve time (Eq. 7.1 folded into
the objective): ``parallel_seconds + scheduling_seconds / expected_solves``.
A scheduler that simulates fastest but costs minutes to schedule loses to
a slightly slower one that schedules instantly when few solves will reuse
the schedule; as ``expected_solves -> inf`` the objective converges to
pure per-solve time.  The ``serial`` baseline is always ranked alongside
the candidates, so when nothing amortizes the prior (and therefore the
tuner, whose decision is the prior's first pick) falls back to serial
execution rather than a never-paying-off schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.exec import PlanCache
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import ExperimentResult, run_instance
from repro.machine.model import MachineModel
from repro.scheduler.registry import make_scheduler

__all__ = ["CandidateScore", "check_expected_solves", "clip_cores",
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
    ranks by; ``result`` keeps the full simulated metrics.
    """

    name: str
    objective_seconds: float
    parallel_seconds: float
    scheduling_seconds: float
    result: ExperimentResult

    @property
    def speedup(self) -> float:
        return self.result.speedup

    @property
    def amortization(self) -> float:
        return self.result.amortization


def clip_cores(machine: MachineModel, n_cores: int | None) -> int:
    """Cores a tuning run targets: the machine's full width when
    unspecified, else capped at the machine's width — the same clipping
    :func:`~repro.experiments.runner.run_instance` applies, so rankings
    and decisions are made at exactly the width the run executes.  (One
    definition, shared by the prior here and the
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


def check_expected_solves(expected_solves: float) -> float:
    """``expected_solves`` as a float, or
    :class:`~repro.errors.ConfigurationError` unless it is ``> 0``.

    ``inf`` is allowed (per-solve speed only); zero, negative and NaN
    values are refused — they would divide by zero, reward scheduling
    cost, or make every objective NaN.

    Examples
    --------
    >>> from repro.tuner.predict import check_expected_solves
    >>> check_expected_solves(1e3), check_expected_solves(float("inf"))
    (1000.0, inf)
    """
    value = float(expected_solves)
    if not value > 0:
        raise ConfigurationError(
            f"expected_solves must be > 0, got {expected_solves!r}"
        )
    return value


def rank_candidates(
    inst: DatasetInstance,
    candidates: tuple[str, ...] | list[str],
    machine: MachineModel,
    *,
    n_cores: int | None = None,
    reorder: bool | None = None,
    expected_solves: float = 1000.0,
    plan_cache: PlanCache | None = None,
) -> list[CandidateScore]:
    """Rank ``candidates`` on ``inst`` with the cost-model prior.

    Returns scores sorted ascending by amortized per-solve objective —
    element 0 is the prior's pick.  Ties break by candidate order, then
    name.  ``scheduling_seconds`` is wall-clock time, so below
    ``expected_solves=inf`` the ranking can change between runs.

    Parameters
    ----------
    reorder:
        Forwarded to :func:`~repro.experiments.runner.run_instance`.
        Pass ``False`` when the tuned plan must solve the *original*
        system (a reordered plan solves a symmetrically permuted one).
    expected_solves:
        How many solves are expected to reuse the schedule; weights the
        scheduling cost in the objective (Eq. 7.1).  Must be ``> 0``
        (:func:`check_expected_solves`).
    plan_cache:
        Shared :class:`~repro.exec.PlanCache`; every candidate's
        compiled triple lands in (or comes from) it.

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
    expected_solves = check_expected_solves(expected_solves)
    cache = plan_cache if plan_cache is not None else PlanCache()
    # dedupe, keep order, always rank the serial baseline
    names = list(dict.fromkeys(candidates))
    if "serial" not in names:
        names.append("serial")

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
    # ascending by (objective, candidate order, name): ties break
    # deterministically
    scored.sort(key=lambda s: (s[0], s[1], s[2]))
    return [score for _, _, _, score in scored]

