"""Schedule serialization.

The whole point of spending scheduling time (Table 7.6) is reusing the
schedule across many solves — often across *processes* in practice.  This
module persists schedules as JSON (portable, diff-able) with integrity
metadata (vertex count, core count, a content digest) verified on load.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.scheduler.schedule import Schedule
from repro.utils.atomic import atomic_write_text

__all__ = [
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule_json",
    "load_schedule_json",
]

_FORMAT_VERSION = 1


def _digest(schedule: Schedule) -> str:
    h = hashlib.sha256()
    h.update(schedule.cores.tobytes())
    h.update(schedule.supersteps.tobytes())
    h.update(str(schedule.n_cores).encode())
    return h.hexdigest()[:16]


def schedule_to_dict(schedule: Schedule) -> dict:
    """Plain-dict form of a schedule (JSON-serializable)."""
    return {
        "format_version": _FORMAT_VERSION,
        "n": schedule.n,
        "n_cores": schedule.n_cores,
        "n_supersteps": schedule.n_supersteps,
        "cores": schedule.cores.tolist(),
        "supersteps": schedule.supersteps.tolist(),
        "digest": _digest(schedule),
    }


def schedule_from_dict(data: dict) -> Schedule:
    """Rebuild a schedule, verifying metadata and digest."""
    try:
        version = data["format_version"]
        n = int(data["n"])
        n_cores = int(data["n_cores"])
        cores = np.asarray(data["cores"], dtype=np.int64)
        steps = np.asarray(data["supersteps"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed schedule payload: {exc}"
        ) from exc
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported schedule format version {version}"
        )
    if cores.size != n or steps.size != n:
        raise ConfigurationError("schedule payload length mismatch")
    schedule = Schedule(cores, steps, n_cores)
    expected = data.get("digest")
    if expected is not None and _digest(schedule) != expected:
        raise ConfigurationError("schedule digest mismatch (corrupted?)")
    return schedule


def save_schedule_json(schedule: Schedule, path: str | Path) -> None:
    """Write a schedule as JSON (atomically: temp file + rename, so a
    crash never leaves a torn schedule behind)."""
    atomic_write_text(path, json.dumps(schedule_to_dict(schedule)))


def load_schedule_json(path: str | Path) -> Schedule:
    """Read a JSON schedule written by :func:`save_schedule_json`.

    Raises :class:`~repro.errors.ConfigurationError` when the file is
    not valid JSON or fails the checks of :func:`schedule_from_dict`.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"schedule {path!s} is not valid JSON: {exc}"
        ) from None
    return schedule_from_dict(data)
