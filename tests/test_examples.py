"""Smoke tests: every example script must run to completion.

Examples are part of the public deliverable; running them end-to-end in a
subprocess catches API drift the unit tests can miss.  The heavyweight
dataset-driven comparison example is exercised with a timeout-guarded run.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "solution verified" in out
    assert "speed-up" in out


def test_preconditioned_cg():
    out = _run("preconditioned_cg.py")
    assert "IC(0)-PCG" in out
    assert "amortization threshold" in out


def test_block_scheduling():
    out = _run("block_scheduling.py", timeout=600)
    assert "sched speed-up" in out


def test_solve_service():
    out = _run("solve_service.py")
    assert "bit-equal to sequential solves" in out
    assert "micro-batches" in out


def test_custom_scheduler():
    out = _run("custom_scheduler.py")
    assert "levelpair" in out
    assert "growlocal" in out


def test_forward_backward_ilu():
    out = _run("forward_backward_ilu.py")
    assert "threaded forward schedule == serial forward sweep" in out


def test_autotune_profile():
    out = _run("autotune_profile.py")
    assert "warm pass: 0 instances ranked" in out
    assert "unseen instance" in out


def test_scheduler_comparison():
    out = _run("scheduler_comparison.py", timeout=900)
    assert "narrow_band" in out
