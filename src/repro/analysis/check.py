"""The ``repro check`` entry points: run both static-analysis halves.

``repro check source`` lints the library tree against the repo's
invariant rules; ``repro check plan`` statically verifies compiled
:class:`ExecutionPlan` artifacts (a user-supplied matrix, or the
built-in synthetic corpus when none is given); ``repro check all`` runs
both.  Every half returns a JSON-shaped payload (documented in
``docs/analysis.md``) so CI consumes the report as an artifact instead
of scraping text; the CLI exit code is 0 iff every half is clean.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint.engine import rule_catalogue, run_lint
from repro.analysis.verify import INVARIANTS, verify_plan

__all__ = ["check_all", "check_plans", "check_source", "default_source_root"]


def default_source_root() -> Path:
    """The library tree ``repro check source`` scans by default."""
    import repro

    return Path(repro.__file__).resolve().parent


def check_source(paths: list[str] | None = None) -> dict:
    """Lint ``paths`` (default: the installed ``repro`` package tree).

    Returns the JSON payload: rule catalogue, scanned target, findings
    (each with rule id, path, line, message) and the overall verdict.
    """
    if paths:
        targets = [Path(p) for p in paths]
        root = None
    else:
        targets = [default_source_root()]
        root = targets[0]
    findings = run_lint(targets, root=root)
    return {
        "target": [str(t) for t in targets],
        "rules": rule_catalogue(),
        "n_findings": len(findings),
        "findings": [f.as_dict() for f in findings],
        "ok": not findings,
    }


def _corpus():
    """The synthetic verification corpus: irregular shapes, both sweep
    directions.

    Small on purpose — the point is exercising every invariant checker
    against genuinely compiled plans, not benchmarking.  A plan is its
    matrix's level set whatever the schedule, so the corpus holds one
    plan per (matrix, direction).
    """
    from repro.matrix.generators import (
        erdos_renyi_lower,
        narrow_band_lower,
    )

    yield ("narrow-band/forward",
           narrow_band_lower(120, 0.3, 6.0, seed=0), "forward")
    yield ("erdos-renyi/forward",
           erdos_renyi_lower(150, 0.05, seed=1), "forward")
    upper = narrow_band_lower(100, 0.3, 5.0, seed=2).transpose()
    yield "narrow-band/backward", upper, "backward"


def check_plans(matrix_path: str | None = None) -> dict:
    """Statically verify compiled plans, without executing any sweep.

    With ``matrix_path`` the file's lower triangle is compiled and
    verified with full source-consistency cross-checks.  Without it,
    the built-in synthetic corpus compiles and verifies plans across
    matrices and sweep directions — the CI self-check that the compiler
    only ever emits plans the verifier accepts.
    """
    from repro.exec.plan import compile_plan

    reports = []
    if matrix_path is not None:
        from repro.matrix.io_mm import read_matrix_market

        lower = read_matrix_market(matrix_path).lower_triangle()
        cases = [(matrix_path, lower, "forward")]
    else:
        cases = list(_corpus())
    for name, matrix, direction in cases:
        plan = compile_plan(
            matrix, direction=direction,
            validate=False,  # the point is the explicit report below
        )
        report = verify_plan(plan, matrix=matrix)
        reports.append({
            "plan": name,
            "n": plan.n,
            "n_batches": plan.n_batches,
            "direction": direction,
            **report.as_dict(),
        })
    return {
        "invariants": dict(INVARIANTS),
        "n_plans": len(reports),
        "plans": reports,
        "ok": all(r["ok"] for r in reports),
    }


def check_all(
    paths: list[str] | None = None,
    matrix_path: str | None = None,
) -> dict:
    """Both halves; ``ok`` iff source lint and plan verification pass."""
    source = check_source(paths)
    plan = check_plans(matrix_path)
    return {
        "source": source,
        "plan": plan,
        "ok": source["ok"] and plan["ok"],
    }
