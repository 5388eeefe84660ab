"""The autotuner: per-matrix adaptive scheduler selection.

:class:`Autotuner` answers the paper's central question — *which*
scheduler wins on *which* matrix, and when its scheduling cost amortizes
(Eq. 7.1) — automatically, per instance, instead of requiring the caller
to hard-code a scheduler name:

1. **features** — structural features are extracted once per matrix
   (:mod:`repro.tuner.features`);
2. **prior** — candidate schedulers are ranked cheaply by the calibrated
   machine cost model through the shared plan cache
   (:mod:`repro.tuner.predict`); only the top ``keep`` survive;
3. **race** — the survivors are settled by budgeted successive-halving
   micro-runs (:mod:`repro.tuner.race`), with the amortized scheduling
   cost as a per-arm handicap so Eq. 7.1 stays part of the objective;
4. **profile** — decisions are persisted as versioned JSON
   (:mod:`repro.tuner.profile`) and reloaded for warm starts.

Two racing modes are supported.  ``"measured"`` (the default) times real
backend solves on a seeded right-hand side, at the cost of wall-clock
noise.  Every plan executes its matrix's level set whatever the schedule
(:func:`~repro.exec.compile_plan`), so the finalists that run without
the Section 5 reorder execute the same arrays: a measured race gives
them one arm, the one cheapest to schedule, and separates only plans
that execute differently.  ``"simulated"`` scores arms by cost-model
seconds per solve, which repeat from run to run and tell every schedule
apart.  In both modes the objective adds the wall-clock seconds of
scheduling each candidate, divided by ``expected_solves`` (Eq. 7.1), so
a decision's ``objective_seconds`` and ``amortization`` vary between
processes, and at a small ``expected_solves`` so can the pick.  With
``expected_solves=inf`` the scheduling term is zero, and a simulated
tuning repeats its picks and simulated seconds.

:class:`AutoScheduler` packages a tuner as a registry-compatible
scheduler (name ``"auto"``): the experiment runner resolves it per
instance through the :meth:`~AutoScheduler.resolve_for_instance` hook,
and the standalone :meth:`~AutoScheduler.schedule` path reconstructs a
structural matrix from the DAG so `"auto"` also works where only a DAG
is available (the ``repro schedule`` CLI).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.exec import PlanCache, get_backend
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import compiled_entry, resolve_reorder
from repro.graph.dag import DAG
from repro.machine.model import MachineModel, get_machine
from repro.matrix.csr import CSRMatrix
from repro.obs_gate import get_obs
from repro.scheduler.base import Scheduler
from repro.scheduler.registry import make_scheduler
from repro.scheduler.schedule import Schedule
from repro.tuner.features import MatrixFeatures, extract_features
from repro.tuner.predict import (
    DEFAULT_CANDIDATES,
    CandidateScore,
    check_expected_solves,
    clip_cores,
    rank_candidates,
)
from repro.tuner.profile import TuningProfile, entry_key
from repro.tuner.race import successive_halving

__all__ = [
    "AutoScheduler",
    "Autotuner",
    "TuningDecision",
    "clip_cores",
    "matrix_fingerprint",
]

#: Machine preset assumed when no model is given (the paper's main
#: testbed).
DEFAULT_MACHINE = "intel_xeon_6238t"


@dataclass(frozen=True)
class TuningDecision:
    """The tuner's answer for one (instance, machine, cores) triple.

    Examples
    --------
    >>> from repro.experiments.datasets import DatasetInstance
    >>> from repro.machine.model import get_machine
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.tuner import Autotuner, TuningDecision
    >>> inst = DatasetInstance("nb", narrow_band_lower(120, 0.1, 5.0,
    ...                                                seed=0))
    >>> d = Autotuner(candidates=("wavefront",), mode="simulated",
    ...               seed=0).tune(inst, get_machine("intel_xeon_6238t"),
    ...                            n_cores=4)
    >>> TuningDecision.from_dict(d.as_dict()) == d   # JSON round-trip
    True
    """

    instance: str
    machine: str
    n_cores: int
    scheduler: str
    backend: str
    reorder: bool
    predicted_speedup: float
    objective_seconds: float
    amortization: float
    measured_seconds: float | None
    source: str  # "raced" | "profile"
    seed: int
    #: Objective configuration the decision was made under (checked on
    #: warm starts: a decision tuned for a different amortization target
    #: or racing mode is re-tuned, not reused).
    expected_solves: float
    mode: str
    features: MatrixFeatures

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable view (profile entries, ``--json`` output).

        Non-finite floats (an infinite amortization) are stored as
        ``None`` so the output is strict JSON.
        """
        def _finite(v: float) -> float | None:
            return v if math.isfinite(v) else None

        return {
            "instance": self.instance,
            "machine": self.machine,
            "n_cores": self.n_cores,
            "scheduler": self.scheduler,
            "backend": self.backend,
            "reorder": self.reorder,
            "predicted_speedup": _finite(self.predicted_speedup),
            "objective_seconds": _finite(self.objective_seconds),
            "amortization": _finite(self.amortization),
            "measured_seconds": self.measured_seconds,
            "source": self.source,
            "seed": self.seed,
            "expected_solves": _finite(self.expected_solves),
            "mode": self.mode,
            "features": self.features.as_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: dict[str, object], *, source: str | None = None
    ) -> "TuningDecision":
        """Inverse of :meth:`as_dict`; ``source`` overrides the stored
        provenance (profile hits are re-labelled ``"profile"``).

        Keys this build does not store are ignored, so version-3
        entries that still carry a ``max_batch`` load unchanged."""
        def _num(key: str) -> float:
            v = data.get(key)
            return math.inf if v is None else float(v)

        return cls(
            instance=str(data["instance"]),
            machine=str(data["machine"]),
            n_cores=int(data["n_cores"]),
            scheduler=str(data["scheduler"]),
            backend=str(data["backend"]),
            reorder=bool(data["reorder"]),
            predicted_speedup=_num("predicted_speedup"),
            objective_seconds=_num("objective_seconds"),
            amortization=_num("amortization"),
            measured_seconds=(
                None
                if data.get("measured_seconds") is None
                else float(data["measured_seconds"])
            ),
            source=str(source if source is not None else data["source"]),
            seed=int(data.get("seed", 0)),
            expected_solves=_num("expected_solves"),
            mode=str(data.get("mode", "")),
            features=MatrixFeatures.from_dict(data["features"]),
        )


def _stable_seed(seed: int, name: str) -> int:
    """Mix ``seed`` with a process-independent hash of ``name``."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (int(seed) ^ int.from_bytes(digest[:4], "little")) & 0x7FFFFFFF


def matrix_fingerprint(matrix: CSRMatrix) -> str:
    """Short content hash of a matrix (pattern *and* values).

    Instance names key shared plan caches and persisted profiles, so a
    name standing in for a matrix must change whenever the matrix does —
    an identity- or caller-chosen name would let a cache serve plans of
    a previously seen, different matrix under the same label.

    Examples
    --------
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.tuner import matrix_fingerprint
    >>> a = narrow_band_lower(100, 0.2, 5.0, seed=0)
    >>> matrix_fingerprint(a) == matrix_fingerprint(a)
    True
    >>> b = narrow_band_lower(100, 0.2, 5.0, seed=1)
    >>> matrix_fingerprint(a) != matrix_fingerprint(b)
    True
    """
    h = hashlib.sha256()
    h.update(matrix.indptr.tobytes())
    h.update(matrix.indices.tobytes())
    h.update(matrix.data.tobytes())
    return f"{matrix.n}_{h.hexdigest()[:12]}"


class Autotuner:
    """Select the best scheduler per matrix.

    Parameters
    ----------
    candidates:
        Scheduler names to consider (default
        :data:`~repro.tuner.predict.DEFAULT_CANDIDATES`); the ``serial``
        baseline is always ranked alongside them.
    expected_solves:
        Solves expected to reuse the decision — weights the scheduling
        cost in both the prior objective and the racing handicap
        (Eq. 7.1).  Must be ``> 0``; large values (``inf`` included)
        select for pure per-solve speed.
    keep:
        Finalists the prior forwards into the race.
    budget_seconds / base_repeats:
        Racing budget, ``budget_seconds >= 0`` (see
        :func:`~repro.tuner.race.successive_halving`).
    seed:
        Seeds the right-hand sides of a measured race (a simulated race
        solves none).
    mode:
        ``"measured"`` (wall-clock micro-runs on the auto-selected
        backend, :func:`repro.exec.get_backend`, one arm per executed
        plan) or ``"simulated"`` (cost-model seconds per solve, one arm
        per finalist).  Either way the scheduling term of the objective
        is wall-clock time; see the module docstring for what repeats
        between runs.

    Examples
    --------
    >>> from repro.experiments.datasets import DatasetInstance
    >>> from repro.machine.model import get_machine
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.tuner import Autotuner
    >>> inst = DatasetInstance("nb", narrow_band_lower(150, 0.1, 6.0,
    ...                                                seed=0))
    >>> tuner = Autotuner(candidates=("wavefront",), mode="simulated",
    ...                   seed=0)
    >>> decision = tuner.tune(inst, get_machine("intel_xeon_6238t"),
    ...                       n_cores=4)
    >>> decision.scheduler in ("wavefront", "serial")
    True
    >>> (decision.source, tuner.races_run)
    ('raced', 1)
    """

    def __init__(
        self,
        *,
        candidates: tuple[str, ...] | list[str] | None = None,
        expected_solves: float = 1000.0,
        keep: int = 3,
        budget_seconds: float = 0.25,
        base_repeats: int = 3,
        seed: int = 0,
        mode: str = "measured",
    ) -> None:
        if mode not in ("measured", "simulated"):
            raise ConfigurationError(
                f"unknown tuner mode {mode!r}; use 'measured' or 'simulated'"
            )
        if keep < 1:
            raise ConfigurationError("keep must be >= 1")
        if not float(budget_seconds) >= 0:
            raise ConfigurationError(
                f"budget_seconds must be >= 0, got {budget_seconds!r}"
            )
        self.candidates = tuple(
            candidates if candidates is not None else DEFAULT_CANDIDATES
        )
        self.expected_solves = check_expected_solves(expected_solves)
        self.keep = int(keep)
        self.budget_seconds = float(budget_seconds)
        self.base_repeats = int(base_repeats)
        self.seed = int(seed)
        self.mode = mode
        #: Races actually run (warm starts from a profile skip racing —
        #: observable here and asserted by tests).
        self.races_run = 0

    # ------------------------------------------------------------------
    # the tuning pipeline
    # ------------------------------------------------------------------
    def tune(
        self,
        inst: DatasetInstance,
        machine: MachineModel | None = None,
        *,
        n_cores: int | None = None,
        reorder: bool | None = None,
        plan_cache: PlanCache | None = None,
        profile: TuningProfile | None = None,
    ) -> TuningDecision:
        """Tune one instance; returns the decision (and records it in
        ``profile`` when one is given).

        Parameters
        ----------
        reorder:
            Forwarded to the prior; pass ``False`` when the tuned plan
            must solve the original (unpermuted) system.
        plan_cache:
            Shared :class:`~repro.exec.PlanCache` — candidate plans are
            compiled at most once across the prior, the race and
            exhaustive suites hanging off the same cache.
        profile:
            Warm-start store: a stored decision whose features still
            match, and whose scheduler, reorder flag, amortization
            target and racing mode this tuner admits, is returned
            without ranking or racing; fresh decisions are recorded
            into it.  A malformed entry (hand-edited, truncated) is
            treated like a feature mismatch: it is re-tuned and
            overwritten.
        """
        if machine is None:
            machine = get_machine(DEFAULT_MACHINE)
        cores = clip_cores(machine, n_cores)
        features = extract_features(inst, n_cores=cores)
        key = entry_key(inst.name, machine.name, cores)
        warm = self._warm_start(profile, key, features, reorder)
        if warm is not None:
            return warm

        cache = plan_cache if plan_cache is not None else PlanCache()
        scores = rank_candidates(
            inst, self.candidates, machine,
            n_cores=cores, reorder=reorder,
            expected_solves=self.expected_solves, plan_cache=cache,
        )
        finalists = scores[: self.keep]
        if self.mode == "measured":
            finalists = _one_arm_per_executed_plan(finalists, reorder)
        by_name = {s.name: s for s in scores}
        handicap = {
            s.name: s.scheduling_seconds / self.expected_solves
            for s in finalists
        }
        measure = self._make_measure(
            inst, machine, cores, reorder, cache, finalists
        )
        obs = get_obs()
        if obs is not None:
            # one span per arm measurement plus one around the whole
            # race, so a flushed trace reconstructs which arms ran, in
            # what order, and how long each micro-run took
            inner_measure = measure

            def measure(name, repeats, round_index):
                with obs.span(
                    "tuner.race_arm", arm=name, instance=inst.name,
                    repeats=repeats, round=round_index,
                ):
                    return inner_measure(name, repeats, round_index)

            obs.get_registry().counter("tuner.races").inc()
            race_span = obs.span(
                "tuner.race", instance=inst.name,
                n_arms=len(finalists), mode=self.mode,
            )
        else:
            race_span = nullcontext()
        with race_span:
            race = successive_halving(
                [s.name for s in finalists], measure,
                budget_seconds=self.budget_seconds,
                base_repeats=self.base_repeats,
                handicap=handicap,
            )
        self.races_run += 1

        winner = by_name[race.winner]
        winner_sched = make_scheduler(winner.name)
        decision = TuningDecision(
            instance=inst.name,
            machine=machine.name,
            n_cores=cores,
            scheduler=winner.name,
            backend=get_backend().name,
            reorder=resolve_reorder(winner_sched, reorder),
            predicted_speedup=winner.speedup,
            objective_seconds=winner.objective_seconds,
            amortization=winner.amortization,
            measured_seconds=(
                race.measurements[race.winner][-1]
                if race.winner in race.measurements
                else None
            ),
            source="raced",
            seed=self.seed,
            expected_solves=self.expected_solves,
            mode=self.mode,
            features=features,
        )
        if profile is not None:
            profile.record(key, decision.as_dict())
        return decision

    def _warm_start(
        self,
        profile: TuningProfile | None,
        key: str,
        features: MatrixFeatures,
        reorder: bool | None,
    ) -> TuningDecision | None:
        """The stored, still-admissible decision under ``key`` — or
        ``None`` (no profile, no entry, feature drift, malformed entry,
        or a decision made under an incompatible configuration)."""
        if profile is None:
            return None
        stored = profile.lookup(key, features)
        if stored is None:
            return None
        try:
            decision = TuningDecision.from_dict(stored, source="profile")
        except (KeyError, TypeError, ValueError):
            return None
        if not self._admissible(decision, reorder):
            return None
        return decision

    def _admissible(
        self, decision: TuningDecision, reorder: bool | None
    ) -> bool:
        """Whether a profile-stored decision is valid under *this*
        tuner's configuration.

        The profile key carries (instance, machine, cores) and the
        feature check guards against structure drift, but neither knows
        what the current caller allows: a stored pick outside the
        candidate pool (e.g. the pool was narrowed between runs), made
        under a different explicit reorder flag, or optimized for a
        different objective (amortization target, racing mode) must be
        re-tuned rather than silently returned.
        """
        allowed = set(self.candidates) | {"serial"}
        if decision.scheduler not in allowed:
            return False
        if reorder is not None and decision.reorder != bool(reorder):
            return False
        if not math.isclose(decision.expected_solves,
                            self.expected_solves, rel_tol=1e-9):
            return False
        if decision.mode != self.mode:
            return False
        return True

    # ------------------------------------------------------------------
    # measurement backends for the race
    # ------------------------------------------------------------------
    def _make_measure(self, inst, machine, cores, reorder, cache,
                      finalists):
        if self.mode == "simulated":
            per_solve = {s.name: s.parallel_seconds for s in finalists}

            def measure(name: str, repeats: int, round_index: int) -> float:
                return per_solve[name]

            return measure

        backend = get_backend()
        rng = np.random.default_rng(_stable_seed(self.seed, inst.name))
        b = rng.standard_normal(inst.n)

        def measure(name: str, repeats: int, round_index: int) -> float:
            scheduler = make_scheduler(name)
            entry = compiled_entry(
                inst, scheduler, cores,
                resolve_reorder(scheduler, reorder), cache,
            )
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()  # repro: allow[wallclock-timing]
                backend.solve(entry.plan, b)
                times.append(time.perf_counter() - t0)  # repro: allow[wallclock-timing]
            return statistics.median(times)

        return measure


def _one_arm_per_executed_plan(
    finalists: list[CandidateScore], reorder: bool | None
) -> list[CandidateScore]:
    """The finalists a measured race times: one per executed plan.

    The finalists that run without the Section 5 reorder all execute
    the level set of the unpermuted matrix, so their measurements differ
    by timer noise only.  They collapse into the one cheapest to
    schedule (the one equal measurements pick by its handicap), raced in
    the place of the first of them.  Each reordered plan solves its own
    permutation of the system and keeps its arm.
    """
    plain = [
        s for s in finalists
        if not resolve_reorder(make_scheduler(s.name), reorder)
    ]
    if len(plain) < 2:
        return finalists
    cheapest = min(plain, key=lambda s: s.scheduling_seconds)
    plain_names = {s.name for s in plain}
    return [
        cheapest if s is plain[0] else s
        for s in finalists
        if s.name not in plain_names or s is plain[0]
    ]


# ---------------------------------------------------------------------------
# the registry-facing "auto" scheduler
# ---------------------------------------------------------------------------
def _matrix_from_dag(dag: DAG) -> CSRMatrix:
    """A structurally faithful lower-triangular matrix of ``dag``.

    Unit diagonal; each strict-lower entry ``(v, u)`` mirrors the DAG
    edge ``u -> v`` with value ``-0.5 / indegree(v)``, keeping solves on
    the reconstructed matrix numerically bounded however deep the DAG
    (cost models and racing only care about the structure).
    """
    n = dag.n
    counts = np.diff(dag.parent_ptr)
    dst = np.repeat(np.arange(n, dtype=np.int64), counts)
    src = dag.parent_idx
    vals = np.repeat(-0.5 / np.maximum(counts, 1), counts)
    rows = np.concatenate([dst, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([src, np.arange(n, dtype=np.int64)])
    data = np.concatenate([vals, np.ones(n)])
    return CSRMatrix.from_coo(n, rows, cols, data)


def _dag_instance_name(matrix: CSRMatrix) -> str:
    """Stable content-derived name for a matrix reconstructed from a DAG
    (see :func:`matrix_fingerprint`; reconstructed values are a pure
    function of the structure, so the fingerprint is DAG-stable)."""
    return f"__dag_{matrix_fingerprint(matrix)}"


class AutoScheduler(Scheduler):
    """Registry entry ``"auto"``: a scheduler that picks a scheduler.

    The experiment harness resolves it per instance through
    :meth:`resolve_for_instance` (duck-typed hook consumed by
    :func:`~repro.experiments.runner.run_instance`), so suites and the
    CLI accept ``scheduler="auto"`` and each instance gets its own
    winner.  The standalone :meth:`schedule` path serves callers that
    only have a DAG: a structural matrix is reconstructed, the tuner
    runs under ``machine`` (default: the paper's main testbed), and the
    winning scheduler computes the schedule.

    Decisions are memoized per (instance, machine, cores); pass a
    ``profile`` for cross-process warm starts.

    Examples
    --------
    >>> from repro import DAG, make_scheduler
    >>> from repro.matrix.generators import narrow_band_lower
    >>> L = narrow_band_lower(120, 0.15, 6.0, seed=0)
    >>> auto = make_scheduler("auto", candidates=("wavefront",),
    ...                       mode="simulated", seed=0)
    >>> schedule = auto.schedule(DAG.from_lower_triangular(L), 4)
    >>> schedule.n_cores
    4
    """

    name = "auto"
    execution_mode = "bsp"
    reorders_by_default = False

    def __init__(
        self,
        *,
        machine: MachineModel | str | None = None,
        tuner: Autotuner | None = None,
        profile: TuningProfile | None = None,
        **tuner_options: object,
    ) -> None:
        if tuner is not None and tuner_options:
            raise ConfigurationError(
                "pass either a tuner instance or tuner options, not both"
            )
        self._tuner = tuner if tuner is not None else Autotuner(**tuner_options)
        self._machine = (
            get_machine(machine) if isinstance(machine, str) else machine
        )
        self._profile = profile
        self._decisions: dict[
            tuple[str, str, int, bool | None], TuningDecision
        ] = {}

    @property
    def tuner(self) -> Autotuner:
        return self._tuner

    def decide(
        self,
        inst: DatasetInstance,
        machine: MachineModel | None = None,
        *,
        n_cores: int | None = None,
        plan_cache: PlanCache | None = None,
        reorder: bool | None = None,
    ) -> TuningDecision:
        """The (memoized) tuning decision for ``inst`` on ``machine``.

        ``reorder`` must be the same flag the caller will execute with:
        candidates are ranked and raced under it, so the decision is
        evaluated on exactly the plans the run uses.
        """
        if machine is None:
            machine = self._machine or get_machine(DEFAULT_MACHINE)
        cores = clip_cores(machine, n_cores)
        memo_key = (inst.name, machine.name, cores, reorder)
        if memo_key not in self._decisions:
            self._decisions[memo_key] = self._tuner.tune(
                inst, machine,
                n_cores=cores, reorder=reorder, plan_cache=plan_cache,
                profile=self._profile,
            )
        return self._decisions[memo_key]

    def resolve_for_instance(
        self,
        inst: DatasetInstance,
        machine: MachineModel,
        *,
        n_cores: int | None = None,
        plan_cache: PlanCache | None = None,
        reorder: bool | None = None,
    ) -> Scheduler:
        """Hook for the experiment runner: the concrete scheduler to use
        for ``inst`` (shares the runner's plan cache and reorder flag,
        so the tuner's compiles and the suite's compiles are the same
        entries)."""
        decision = self.decide(
            inst, machine, n_cores=n_cores, plan_cache=plan_cache,
            reorder=reorder,
        )
        return make_scheduler(decision.scheduler)

    def last_decision(
        self,
        inst_name: str,
        machine_name: str,
        n_cores: int,
        reorder: bool | None = None,
    ) -> TuningDecision | None:
        """The memoized decision for a configuration, if one was made."""
        return self._decisions.get(
            (inst_name, machine_name, int(n_cores), reorder)
        )

    def schedule(self, dag: DAG, n_cores: int) -> Schedule:
        """Standalone path: tune on a matrix reconstructed from ``dag``
        and delegate to the winning scheduler."""
        self._check_cores(n_cores)
        matrix = _matrix_from_dag(dag)
        inst = DatasetInstance(_dag_instance_name(matrix), matrix)
        machine = self._machine or get_machine(DEFAULT_MACHINE)
        if n_cores > machine.n_cores:
            # the returned schedule must target the requested width, so
            # widen the machine model rather than letting the decision
            # be made at a clipped core count the schedule won't use
            machine = machine.with_cores(n_cores)
        concrete = self.resolve_for_instance(inst, machine, n_cores=n_cores)
        return concrete.schedule(dag, n_cores)
