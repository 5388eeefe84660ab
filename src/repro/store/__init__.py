"""Fleet-wide observation store: the tuner's training data-plane.

Separates raw training observations (this layer) from warm-start
decisions (:mod:`repro.tuner.profile`) and model training
(:mod:`repro.tuner.learn`):

* :class:`ObservationStore` — append-only sharded JSONL records tagged
  with machine fingerprint, reorder variant and provenance mode;
  ``merge`` across profiles/machines with content dedup, ``prune`` by
  feature-space coverage, ``stats`` per-scheduler/per-regime summaries,
  staleness-triggered ``retrain``;
* :func:`~repro.store.prune.coverage_prune` /
  :func:`~repro.store.prune.farthest_point_order` — the thinning that
  replaces FIFO truncation;
* :func:`machine_fingerprint` — which host produced the seconds.

Producers: ``repro tune`` (``--store``) and the sharded suite runner
(per-worker stores merged deterministically).  The CLI surface is
``repro store merge|prune|stats|retrain``.

The sibling :mod:`~repro.store.plan_store` is the *compiled-artifact*
data-plane: :class:`PlanStore` persists lowered
:class:`~repro.exec.plan.ExecutionPlan`s (versioned npz + sidecar,
exact-key lookup, atomic racing writers, LRU disk budget) so warm
processes load instead of compile — behind the mandatory
``check_plan`` integrity gate.  CLI surface:
``repro plans save|load|ls|gc|verify``.
"""

from repro.store.plan_store import (
    PLAN_STORE_ENV_VAR,
    PLAN_STORE_MAX_BYTES_ENV_VAR,
    PLAN_STORE_VERSION,
    PlanKey,
    PlanStore,
    plan_store_from_env,
    plan_store_key,
    schedule_identity,
    toolchain_digest,
)
from repro.store.prune import coverage_prune, farthest_point_order
from repro.store.store import (
    OBSERVATION_MODES,
    STORE_VERSION,
    MergeStats,
    ObservationStore,
    PruneStats,
    build_record,
    machine_fingerprint,
    record_key,
)

__all__ = [
    "MergeStats",
    "OBSERVATION_MODES",
    "ObservationStore",
    "PLAN_STORE_ENV_VAR",
    "PLAN_STORE_MAX_BYTES_ENV_VAR",
    "PLAN_STORE_VERSION",
    "PlanKey",
    "PlanStore",
    "PruneStats",
    "STORE_VERSION",
    "build_record",
    "coverage_prune",
    "farthest_point_order",
    "machine_fingerprint",
    "plan_store_from_env",
    "plan_store_key",
    "record_key",
    "schedule_identity",
    "toolchain_digest",
]
