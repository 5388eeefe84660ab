"""Autotuner: per-matrix adaptive scheduler selection.

The subsystem that answers *which scheduler should run this matrix on
this machine* automatically — per instance, in the spirit of idiographic
per-subject modeling — instead of one hard-coded global default:

* :mod:`~repro.tuner.features` — vectorized structural feature
  extraction, computed once per matrix;
* :mod:`~repro.tuner.predict` — the priors: candidates ranked by the
  calibrated machine cost model through the shared
  :class:`~repro.exec.PlanCache` (:func:`rank_candidates`), or by one
  trained-model inference per candidate with per-candidate cost-model
  fallback (:class:`LearnedPrior`) — Eq. 7.1 amortization in the
  objective either way;
* :mod:`~repro.tuner.learn` — the ridge-regression ensemble behind the
  learned prior: trained on the records of an observation store (any
  iterable of record dicts), uncertainty-gated by leave-one-out
  predictive variance;
* :mod:`~repro.tuner.race` — budgeted successive-halving racing over
  the surviving finalists;
* :mod:`~repro.tuner.profile` — versioned JSON tuning profiles: a
  decision cache for warm starts (raw training observations live in
  the fleet-wide :mod:`repro.store` data-plane);
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
from repro.tuner.learn import (
    FEATURE_FIELDS,
    MODEL_VERSION,
    LearnedTunerModel,
    SecondsPrediction,
    feature_vector,
    load_model,
    save_model,
    save_trained_model,
)
from repro.tuner.predict import (
    DEFAULT_CANDIDATES,
    CandidateScore,
    LearnedPrior,
    rank_candidates,
)
from repro.tuner.profile import (
    PROFILE_VERSION,
    TuningProfile,
    entry_key,
    load_profile,
    save_profile,
)
from repro.tuner.race import RaceResult, successive_halving

__all__ = [
    "AutoScheduler",
    "Autotuner",
    "CandidateScore",
    "DEFAULT_CANDIDATES",
    "FEATURE_FIELDS",
    "LearnedPrior",
    "LearnedTunerModel",
    "MODEL_VERSION",
    "MatrixFeatures",
    "PROFILE_VERSION",
    "RaceResult",
    "SecondsPrediction",
    "TuningDecision",
    "TuningProfile",
    "entry_key",
    "extract_features",
    "feature_vector",
    "load_model",
    "load_profile",
    "matrix_fingerprint",
    "rank_candidates",
    "save_model",
    "save_profile",
    "save_trained_model",
    "successive_halving",
]
