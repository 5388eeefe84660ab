"""Persisted execution plans: versioned, verified plan artifacts.

:class:`PlanStore` (:mod:`~repro.store.plan_store`) persists the lowered
:class:`~repro.exec.plan.ExecutionPlan`s a caller explicitly saves
(versioned npz + sidecar, exact-key lookup, atomic racing writers, LRU
disk budget) and loads them back only behind the mandatory
``check_plan`` integrity gate.  CLI surface:
``repro plans save|load|ls|gc|verify``.
"""

from repro.store.plan_store import (
    PLAN_STORE_MAX_BYTES_ENV_VAR,
    PLAN_STORE_VERSION,
    PlanKey,
    PlanStore,
    plan_store_key,
    toolchain_digest,
)

__all__ = [
    "PLAN_STORE_MAX_BYTES_ENV_VAR",
    "PLAN_STORE_VERSION",
    "PlanKey",
    "PlanStore",
    "plan_store_key",
    "toolchain_digest",
]
