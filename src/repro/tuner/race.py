"""Measured racing: successive halving over surviving candidates.

The cost-model prior (:mod:`repro.tuner.predict`) is cheap but only as
good as the machine calibration; the racing stage settles the finalists
with *measured* micro-runs.  :func:`successive_halving` implements the
classic budgeted tournament: every surviving arm is measured with the
current repeat count, the slower half is eliminated, the repeat count
doubles, and the tournament ends when one arm survives or the budget is
spent.  Early rounds are deliberately noisy-but-cheap; the arms that
matter get geometrically more measurement.

The race is **deterministic given its inputs**: arms are eliminated by
``(measured seconds, arm order)`` with a stable sort, so two races over
the same arms with the same measurement outcomes pick the same winner.
The measurement itself is injected (``measure(arm, repeats, round)``):
the tuner's measured mode times real backend solves on seeded right-hand
sides, its simulated mode returns cost-model seconds, which repeat from
run to run.  The handicap below is wall-clock time in both modes, so a
simulated race repeats its winner only where the handicap is zero
(``expected_solves=inf``) or too small to reorder the arms.

Scheduling cost stays part of the objective through racing too: the
caller folds the Eq. 7.1 amortization term (``scheduling_seconds /
expected_solves``) into a per-arm ``handicap`` added to every measured
score, so a scheduler whose schedule is expensive to *compute* must win
by more than its per-solve advantage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["RaceResult", "successive_halving"]


@dataclass
class RaceResult:
    """Outcome of one successive-halving tournament.

    Attributes
    ----------
    winner:
        The surviving arm.
    scores:
        Last handicapped score of every arm that was ever measured
        (seconds per solve; eliminated arms keep their elimination-round
        score).
    measurements:
        Raw (un-handicapped) measured seconds per arm and round.
    rounds:
        Surviving arms at the start of each round.
    spent_seconds:
        Total measured seconds charged against the budget.
    exhausted:
        True when the budget ran out before the field narrowed to one.
    """

    winner: str
    scores: dict[str, float] = field(default_factory=dict)
    measurements: dict[str, list[float]] = field(default_factory=dict)
    rounds: list[list[str]] = field(default_factory=list)
    spent_seconds: float = 0.0
    exhausted: bool = False


def successive_halving(
    arms: list[str] | tuple[str, ...],
    measure: Callable[[str, int, int], float],
    *,
    budget_seconds: float = 0.5,
    base_repeats: int = 3,
    eta: int = 2,
    handicap: dict[str, float] | None = None,
) -> RaceResult:
    """Race ``arms`` to a single winner under a measurement budget.

    Parameters
    ----------
    arms:
        Arm names, in priority order (the order breaks exact ties, so
        put the prior's ranking first).
    measure:
        ``measure(arm, repeats, round_index) -> seconds`` — the measured
        per-solve seconds of one arm at the given repeat count.  The
        returned value is also what is charged against the budget
        (``seconds * repeats``).
    budget_seconds:
        Total measured seconds the race may spend.  The race always
        completes at least one full round — a budget too small for even
        that degrades to "trust the prior" (arm order) rather than an
        arbitrary partial comparison.
    base_repeats:
        Repeats per arm in the first round; multiplied by ``eta`` each
        round.
    eta:
        Elimination factor: the surviving fraction per round is
        ``1/eta``, and the repeat count grows by the same factor.
    handicap:
        Optional per-arm seconds added to every measured score (the
        amortized scheduling cost, Eq. 7.1).  Missing arms get 0.

    Examples
    --------
    >>> from repro.tuner import successive_halving
    >>> times = {"a": 3.0, "b": 1.0, "c": 2.0}
    >>> race = successive_halving(
    ...     ["a", "b", "c"], lambda arm, repeats, rnd: times[arm],
    ...     budget_seconds=1e9)
    >>> race.winner
    'b'
    >>> race.exhausted
    False
    """
    arms = list(dict.fromkeys(arms))
    if not arms:
        raise ConfigurationError("successive halving needs at least one arm")
    if eta < 2:
        raise ConfigurationError("eta must be >= 2")
    if base_repeats < 1:
        raise ConfigurationError("base_repeats must be >= 1")
    handicap = handicap or {}

    result = RaceResult(winner=arms[0])
    order = {name: i for i, name in enumerate(arms)}
    survivors = arms
    repeats = base_repeats
    round_index = 0

    while len(survivors) > 1:
        result.rounds.append(list(survivors))
        if round_index > 0 and result.spent_seconds >= budget_seconds:
            result.exhausted = True
            break
        scored = []
        for name in survivors:
            seconds = float(measure(name, repeats, round_index))
            result.measurements.setdefault(name, []).append(seconds)
            result.spent_seconds += seconds * repeats
            score = seconds + handicap.get(name, 0.0)
            result.scores[name] = score
            scored.append((score, order[name], name))
        scored.sort()
        n_keep = max(1, -(-len(scored) // eta))  # ceil(len / eta)
        survivors = [name for _, _, name in scored[:n_keep]]
        repeats *= eta
        round_index += 1

    result.winner = survivors[0]
    if len(survivors) == 1:
        result.rounds.append(list(survivors))
    return result
