"""Autotuner: per-matrix adaptive scheduler selection.

The subsystem that answers *which scheduler should run this matrix on
this machine* automatically — per instance, in the spirit of idiographic
per-subject modeling — instead of one hard-coded global default:

* :mod:`~repro.tuner.features` — vectorized structural feature
  extraction, computed once per matrix;
* :mod:`~repro.tuner.predict` — the prior: candidates ranked by the
  calibrated machine cost model through the shared
  :class:`~repro.exec.PlanCache` (:func:`rank_candidates`), with
  Eq. 7.1 amortization in the objective; its first pick is the
  decision;
* :mod:`~repro.tuner.profile` — versioned JSON tuning profiles: a
  decision cache for warm starts;
* :mod:`~repro.tuner.auto` — the :class:`Autotuner` pipeline and the
  registry-facing :class:`AutoScheduler` (scheduler name ``"auto"``).
"""

from repro.tuner.auto import (
    AutoScheduler,
    Autotuner,
    TuningDecision,
    matrix_fingerprint,
)
from repro.tuner.features import MatrixFeatures, extract_features
from repro.tuner.predict import (
    DEFAULT_CANDIDATES,
    CandidateScore,
    rank_candidates,
)
from repro.tuner.profile import (
    PROFILE_VERSION,
    TuningProfile,
    entry_key,
    load_profile,
    save_profile,
)

__all__ = [
    "AutoScheduler",
    "Autotuner",
    "CandidateScore",
    "DEFAULT_CANDIDATES",
    "MatrixFeatures",
    "PROFILE_VERSION",
    "TuningDecision",
    "TuningProfile",
    "entry_key",
    "extract_features",
    "load_profile",
    "matrix_fingerprint",
    "rank_candidates",
    "save_profile",
]
