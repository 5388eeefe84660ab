"""Static analysis: plan verification and repo-invariant linting.

The amortized-verification layer (the Eq. 7.1 framing applied to
correctness): pay a one-time *structural* check per compiled artifact
and per source tree instead of per-solve numeric faith.

* :mod:`~repro.analysis.verify` — prove, without executing a sweep,
  that an :class:`~repro.exec.plan.ExecutionPlan` is dependency-safe
  and structurally sound (the integrity gate for cached plans and for
  plans deserialized from the plan store);
* :mod:`~repro.analysis.lint` — an AST rule engine enforcing the
  repo's invariants (seeded RNG, atomic writes, lock discipline, typed
  validation errors, quarantined wall-clock reads);
* :mod:`~repro.analysis.check` — the ``repro check source|plan|all``
  orchestration and its JSON report shapes.
"""

from repro.analysis.check import check_all, check_plans, check_source
from repro.analysis.lint import LintFinding, default_rules, run_lint
from repro.analysis.verify import (
    INVARIANTS,
    VALIDATE_ENV_VAR,
    PlanInvariantViolation,
    PlanVerificationReport,
    check_plan,
    validation_enabled,
    verify_plan,
)

__all__ = [
    "INVARIANTS",
    "VALIDATE_ENV_VAR",
    "LintFinding",
    "PlanInvariantViolation",
    "PlanVerificationReport",
    "check_all",
    "check_plan",
    "check_plans",
    "check_source",
    "default_rules",
    "run_lint",
    "validation_enabled",
    "verify_plan",
]
