"""Machine-model calibration: fitting simulator constants to targets.

The machine presets in :mod:`repro.machine.model` were produced by the
grid search implemented here: given a set of scheduled instances and
target geomean speed-ups per scheduler
(e.g. the paper's Table 7.1 row), search over barrier/p2p/cache/miss
parameters for the machine whose simulated geomeans minimize the
log-space squared error against the targets.

Exposed as a library API so the calibration is reproducible and can be
re-run when datasets change::

    from repro.experiments.calibration import CalibrationProblem, grid_search

    problem = CalibrationProblem.from_dataset(
        build_dataset("suitesparse"),
        {"growlocal": 10.79, "spmp": 7.60, "hdagg": 3.25},
        n_cores=22,
    )
    best = grid_search(problem, barrier=[700, 1400], p2p=[700, 1400],
                       cache_lines=[768], miss=[24, 40])
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.machine.async_sim import simulate_async
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.model import MachineModel
from repro.machine.serial_sim import simulate_serial
from repro.matrix.permute import permute_symmetric
from repro.scheduler.registry import make_scheduler
from repro.scheduler.reorder import schedule_reordering
from repro.utils.stats import geometric_mean

__all__ = ["CalibrationProblem", "CalibrationResult", "grid_search"]

#: schedulers that apply the Section 5 reordering in their default setup
_REORDERING = ("growlocal", "funnel+gl")


@dataclass
class _PreparedRun:
    """A schedule frozen for repeated re-simulation."""

    serial_matrix: object
    exec_matrix: object
    exec_schedule: object
    mode: str
    sync_dag: object | None


class CalibrationProblem:
    """Frozen schedules + targets; machine parameters remain free."""

    def __init__(
        self,
        runs: dict[str, list[_PreparedRun]],
        targets: dict[str, float],
        n_cores: int,
    ) -> None:
        if set(targets) - set(runs):
            raise ConfigurationError("target scheduler missing from runs")
        self.runs = runs
        self.targets = targets
        self.n_cores = n_cores

    @classmethod
    def from_dataset(
        cls,
        instances,
        targets: dict[str, float],
        *,
        n_cores: int = 22,
    ) -> "CalibrationProblem":
        """Schedule every instance with every target scheduler once."""
        runs: dict[str, list[_PreparedRun]] = {t: [] for t in targets}
        for inst in instances:
            for name in targets:
                scheduler = make_scheduler(name)
                schedule = scheduler.schedule(inst.dag, n_cores)
                exec_matrix, exec_schedule = inst.lower, schedule
                if (name in _REORDERING
                        and scheduler.execution_mode == "bsp"):
                    perm = schedule_reordering(schedule)
                    exec_matrix = permute_symmetric(inst.lower, perm)
                    exec_schedule = schedule.reorder_vertices(perm)
                runs[name].append(_PreparedRun(
                    serial_matrix=inst.lower,
                    exec_matrix=exec_matrix,
                    exec_schedule=exec_schedule,
                    mode=scheduler.execution_mode,
                    sync_dag=getattr(scheduler, "sync_dag", None),
                ))
        return cls(runs, dict(targets), n_cores)

    def evaluate(self, machine: MachineModel) -> dict[str, float]:
        """Geomean speed-up per scheduler under ``machine``."""
        out: dict[str, float] = {}
        for name, prepared in self.runs.items():
            speedups = []
            for run in prepared:
                serial = simulate_serial(run.serial_matrix, machine)
                if run.mode == "async":
                    t = simulate_async(
                        run.exec_matrix, run.exec_schedule,
                        run.sync_dag, machine,
                    ).total_cycles
                else:
                    t = simulate_bsp(
                        run.exec_matrix, run.exec_schedule, machine
                    ).total_cycles
                speedups.append(serial / t)
            out[name] = geometric_mean(speedups)
        return out

    def error(self, measured: dict[str, float]) -> float:
        """Log-space squared error against the targets."""
        return float(sum(
            np.log(measured[k] / v) ** 2 for k, v in self.targets.items()
        ))


@dataclass
class CalibrationResult:
    """Best machine found by :func:`grid_search`."""

    machine: MachineModel
    measured: dict[str, float]
    error: float
    trials: int


def grid_search(
    problem: CalibrationProblem,
    *,
    barrier: list[float],
    p2p: list[float],
    cache_lines: list[int],
    miss: list[float],
    base: MachineModel | None = None,
) -> CalibrationResult:
    """Exhaustive search over the given parameter grids.

    Parameters not in the grid are taken from ``base`` (default: a neutral
    22-core machine with the library's physical compute constants).
    """
    if not (barrier and p2p and cache_lines and miss):
        raise ConfigurationError("every grid must be non-empty")
    from dataclasses import replace

    if base is None:
        base = MachineModel(name="calibration", n_cores=problem.n_cores)
    best: CalibrationResult | None = None
    trials = 0
    for b in barrier:
        for p in p2p:
            for c in cache_lines:
                for m in miss:
                    machine = replace(
                        base, barrier_latency=float(b),
                        p2p_latency=float(p), cache_lines=int(c),
                        miss_penalty=float(m),
                    )
                    measured = problem.evaluate(machine)
                    err = problem.error(measured)
                    trials += 1
                    if best is None or err < best.error:
                        best = CalibrationResult(
                            machine=machine, measured=measured,
                            error=err, trials=trials,
                        )
    assert best is not None  # repro: allow[no-bare-assert]
    best.trials = trials
    return best
