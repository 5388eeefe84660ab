"""The autotuner: per-matrix adaptive scheduler selection.

:class:`Autotuner` answers the paper's central question — *which*
scheduler wins on *which* matrix, and when its scheduling cost amortizes
(Eq. 7.1) — automatically, per instance, instead of requiring the caller
to hard-code a scheduler name:

1. **features** — structural features are extracted once per matrix
   (:mod:`repro.tuner.features`);
2. **prior** — candidate schedulers are ranked by the calibrated machine
   cost model through the shared plan cache
   (:mod:`repro.tuner.predict`); the first of the ranking is the pick;
3. **profile** — decisions are persisted as versioned JSON
   (:mod:`repro.tuner.profile`) and reloaded for warm starts.

The ranking objective adds the wall-clock seconds of scheduling each
candidate, divided by ``expected_solves`` (Eq. 7.1), so a decision's
``objective_seconds`` and ``amortization`` vary between processes, and
at a small ``expected_solves`` so can the pick.  With
``expected_solves=inf`` the scheduling term is zero, and a tuning
repeats its picks and simulated seconds.

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
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.exec import PlanCache, get_backend
from repro.experiments.datasets import DatasetInstance
from repro.experiments.runner import resolve_reorder
from repro.graph.dag import DAG
from repro.machine.model import MachineModel, get_machine
from repro.matrix.csr import CSRMatrix
from repro.scheduler.base import Scheduler
from repro.scheduler.registry import make_scheduler
from repro.scheduler.schedule import Schedule
from repro.tuner.features import MatrixFeatures, extract_features
from repro.tuner.predict import (
    DEFAULT_CANDIDATES,
    check_expected_solves,
    clip_cores,
    rank_candidates,
)
from repro.tuner.profile import TuningProfile, entry_key

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
    >>> d = Autotuner(candidates=("wavefront",)).tune(
    ...     inst, get_machine("intel_xeon_6238t"), n_cores=4)
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
    source: str  # "ranked" | "profile"
    #: Amortization target the decision was made under (checked on warm
    #: starts: a decision tuned for a different target is re-tuned, not
    #: reused).
    expected_solves: float
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
            "source": self.source,
            "expected_solves": _finite(self.expected_solves),
            "features": self.features.as_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: dict[str, object], *, source: str | None = None
    ) -> "TuningDecision":
        """Inverse of :meth:`as_dict`; ``source`` overrides the stored
        provenance (profile hits are re-labelled ``"profile"``)."""
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
            source=str(source if source is not None else data["source"]),
            expected_solves=_num("expected_solves"),
            features=MatrixFeatures.from_dict(data["features"]),
        )


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
    """Select the best scheduler per matrix: the prior's first pick.

    Parameters
    ----------
    candidates:
        Scheduler names to consider (default
        :data:`~repro.tuner.predict.DEFAULT_CANDIDATES`); the ``serial``
        baseline is always ranked alongside them.
    expected_solves:
        Solves expected to reuse the decision — weights the scheduling
        cost in the prior objective (Eq. 7.1).  Must be ``> 0``; large
        values (``inf`` included) select for pure per-solve speed.

    Examples
    --------
    >>> from repro.experiments.datasets import DatasetInstance
    >>> from repro.machine.model import get_machine
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.tuner import Autotuner
    >>> inst = DatasetInstance("nb", narrow_band_lower(150, 0.1, 6.0,
    ...                                                seed=0))
    >>> decision = Autotuner(candidates=("wavefront",)).tune(
    ...     inst, get_machine("intel_xeon_6238t"), n_cores=4)
    >>> decision.scheduler in ("wavefront", "serial")
    True
    >>> decision.source
    'ranked'
    """

    def __init__(
        self,
        *,
        candidates: tuple[str, ...] | list[str] | None = None,
        expected_solves: float = 1000.0,
    ) -> None:
        self.candidates = tuple(
            candidates if candidates is not None else DEFAULT_CANDIDATES
        )
        self.expected_solves = check_expected_solves(expected_solves)

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
            compiled at most once across the prior and exhaustive
            suites hanging off the same cache.
        profile:
            Warm-start store: a stored decision whose features still
            match, and whose scheduler, reorder flag and amortization
            target this tuner admits, is returned without ranking;
            fresh decisions are recorded into it.  A malformed entry
            (hand-edited, truncated) is treated like a feature
            mismatch: it is re-tuned and overwritten.
        """
        if machine is None:
            machine = get_machine(DEFAULT_MACHINE)
        cores = clip_cores(machine, n_cores)
        features = extract_features(inst, n_cores=cores)
        key = entry_key(inst.name, machine.name, cores)
        warm = self._warm_start(profile, key, features, reorder)
        if warm is not None:
            return warm

        pick = rank_candidates(
            inst, self.candidates, machine,
            n_cores=cores, reorder=reorder,
            expected_solves=self.expected_solves, plan_cache=plan_cache,
        )[0]
        decision = TuningDecision(
            instance=inst.name,
            machine=machine.name,
            n_cores=cores,
            scheduler=pick.name,
            backend=get_backend().name,
            reorder=resolve_reorder(make_scheduler(pick.name), reorder),
            predicted_speedup=pick.speedup,
            objective_seconds=pick.objective_seconds,
            amortization=pick.amortization,
            source="ranked",
            expected_solves=self.expected_solves,
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
        or a decision made under an incompatible configuration).

        The decision names the backend this process runs, not the one
        stored: the profile may have been written on another host."""
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
        return replace(decision, backend=get_backend().name)

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
        different amortization target must be re-tuned rather than
        silently returned.
        """
        allowed = set(self.candidates) | {"serial"}
        if decision.scheduler not in allowed:
            return False
        if reorder is not None and decision.reorder != bool(reorder):
            return False
        return math.isclose(decision.expected_solves,
                            self.expected_solves, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# the registry-facing "auto" scheduler
# ---------------------------------------------------------------------------
def _matrix_from_dag(dag: DAG) -> CSRMatrix:
    """A structurally faithful lower-triangular matrix of ``dag``.

    Unit diagonal; each strict-lower entry ``(v, u)`` mirrors the DAG
    edge ``u -> v`` with value ``-0.5 / indegree(v)``, keeping solves on
    the reconstructed matrix numerically bounded however deep the DAG
    (the cost model only cares about the structure).
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
    >>> auto = make_scheduler("auto", candidates=("wavefront",))
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
        candidates are ranked under it, so the decision is
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
