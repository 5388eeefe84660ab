"""Persisted tuning profiles: the tuner's **decision cache**.

A profile maps ``(instance, machine, cores)`` to the tuning decision the
autotuner reached, together with the matrix features the decision was
computed from.  Re-running the tuner with a profile skips the ranking
for every entry whose features still match (warm start); a matrix
that changed structure under the same name misses the feature check and
is re-tuned rather than served a stale decision.

A profile holds decisions only.  The file format is versioned and this
build reads version :data:`PROFILE_VERSION` only.  Older files, and any
file that carries an ``observations`` array, raise
:class:`~repro.errors.ConfigurationError` naming the cause: versions 1
and 2 kept training data inline, and a version 3 pick may come from a
measured race rather than the prior, so neither is silently reused.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.tuner.features import MatrixFeatures
from repro.utils.atomic import atomic_write_json

__all__ = [
    "PROFILE_VERSION",
    "TuningProfile",
    "entry_key",
    "load_profile",
    "save_profile",
]

#: Format version of persisted profiles; bump on incompatible changes.
PROFILE_VERSION = 4


def entry_key(instance: str, machine: str, n_cores: int) -> str:
    """The profile key of one (instance, machine, cores) decision.

    Examples
    --------
    >>> from repro.tuner import entry_key
    >>> entry_key("torso3", "intel_xeon_6238t", 8)
    'torso3::intel_xeon_6238t::8'
    """
    return f"{instance}::{machine}::{int(n_cores)}"


@dataclass
class TuningProfile:
    """An in-memory tuning profile (see the module docstring).

    ``entries`` maps :func:`entry_key` strings to plain-dict decision
    records (the :meth:`~repro.tuner.auto.TuningDecision.as_dict` form,
    including the ``features`` sub-dict used for warm-start validation).

    Examples
    --------
    >>> from repro.tuner import TuningProfile
    >>> profile = TuningProfile(machine="intel_xeon_6238t")
    >>> len(profile)
    0
    """

    machine: str = ""
    entries: dict[str, dict] = field(default_factory=dict)

    def lookup(
        self, key: str, features: MatrixFeatures
    ) -> dict | None:
        """The stored decision for ``key`` if its features still match,
        else ``None`` (missing entry or structure drift)."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        try:
            stored = MatrixFeatures.from_dict(entry["features"])
        except (KeyError, TypeError):
            return None
        if not features.matches(stored):
            return None
        return entry

    def record(self, key: str, decision: dict) -> None:
        """Insert or replace the decision stored under ``key``."""
        self.entries[key] = decision

    def __len__(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict:
        return {
            "version": PROFILE_VERSION,
            "machine": self.machine,
            "entries": self.entries,
        }


def save_profile(profile: TuningProfile, path: str | os.PathLike) -> None:
    """Write ``profile`` as JSON (stable key order, human-diffable).

    The write is atomic (temp file + rename, :mod:`repro.utils.atomic`):
    a crash or concurrent suite worker never leaves a torn file, and the
    previous good profile survives any failure.

    Examples
    --------
    >>> import tempfile, os.path
    >>> from repro.tuner import TuningProfile, load_profile, save_profile
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     path = os.path.join(tmp, "profile.json")
    ...     save_profile(TuningProfile(machine="m"), path)
    ...     load_profile(path).machine
    'm'
    """
    atomic_write_json(profile.as_dict(), path)


def load_profile(path: str | os.PathLike) -> TuningProfile:
    """Load a profile written by :func:`save_profile`.

    Raises :class:`~repro.errors.ConfigurationError` on invalid JSON, on
    any version other than :data:`PROFILE_VERSION`, on a file that
    carries an ``observations`` array (versions 1 and 2 kept training
    data inline), and on a structurally invalid file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"tuning profile {path!s} is not valid JSON: {exc}"
            ) from None
    if not isinstance(data, dict) or "version" not in data:
        raise ConfigurationError(
            f"tuning profile {path!s} has no version field"
        )
    if data["version"] != PROFILE_VERSION:
        raise ConfigurationError(
            f"tuning profile {path!s} has version {data['version']!r}; "
            f"this build reads version {PROFILE_VERSION} only; re-tune "
            f"to write a current profile"
        )
    if "observations" in data:
        raise ConfigurationError(
            f"tuning profile {path!s} carries an inline observations "
            f"array; profiles hold decisions only; re-tune to write a "
            f"current profile"
        )
    entries = data.get("entries", {})
    if not isinstance(entries, dict):
        raise ConfigurationError(
            f"tuning profile {path!s}: entries must be an object"
        )
    return TuningProfile(
        machine=str(data.get("machine", "")),
        entries=entries,
    )
