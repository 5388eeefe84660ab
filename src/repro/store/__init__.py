"""Persisted execution plans: the compiled-artifact data-plane.

:class:`PlanStore` (:mod:`~repro.store.plan_store`) persists lowered
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
    toolchain_digest,
)

__all__ = [
    "PLAN_STORE_ENV_VAR",
    "PLAN_STORE_MAX_BYTES_ENV_VAR",
    "PLAN_STORE_VERSION",
    "PlanKey",
    "PlanStore",
    "plan_store_from_env",
    "plan_store_key",
    "toolchain_digest",
]
