"""Zero-overhead environment gates: observability and plan validation.

Observability (:mod:`repro.obs`) is strictly opt-in, mirroring the
``REPRO_VALIDATE_PLANS`` discipline of the plan verifier: with the
``REPRO_OBS`` environment gate off, ``import repro`` must not import
the subsystem and instrumented call sites must pay nothing beyond one
environment read.  Every instrumented module therefore goes through
this tiny facade instead of importing :mod:`repro.obs` directly::

    from repro.obs_gate import get_obs

    obs = get_obs()          # None when the gate is off
    if obs is not None:
        with obs.span("exec.compile", n=matrix.n):
            ...

The gate is also what the ``direct-timing-in-hot-path`` lint rule
(:mod:`repro.analysis.lint`) points hot-path modules at: wall-clock
reads in ``repro/exec/`` are forbidden outright, so any timing there
must run behind ``get_obs()`` — making "disabled means free" a property
the linter can enforce, not a convention.

``REPRO_OBS_DIR`` names the directory snapshots and traces are flushed
to (default ``.repro-obs``); see :func:`repro.obs.flush`.

:func:`validation_enabled` is the verifier's gate, read by
:func:`~repro.exec.compile_plan` and :class:`~repro.exec.PlanCache`.
It lives here rather than in :mod:`repro.analysis.verify` so the
gate-off compile path never imports the verifier.
"""

from __future__ import annotations

import os

__all__ = ["OBS_DIR_ENV_VAR", "OBS_ENV_VAR", "VALIDATE_ENV_VAR", "get_obs",
           "obs_enabled", "set_enabled", "validation_enabled"]

#: Environment gate: truthy values enable the subsystem.
OBS_ENV_VAR = "REPRO_OBS"

#: Directory metrics snapshots and trace JSONL files are flushed to.
OBS_DIR_ENV_VAR = "REPRO_OBS_DIR"

#: Environment variable switching plan validation on everywhere a plan
#: is compiled or inserted into a :class:`~repro.exec.PlanCache`.
#: Strictly opt-in: unset (the default) keeps the hot path untouched.
VALIDATE_ENV_VAR = "REPRO_VALIDATE_PLANS"

_TRUTHY = frozenset(("1", "true", "yes", "on"))

#: Programmatic override (``repro suite --obs-dir`` and tests):
#: ``None`` defers to the environment, a bool wins outright.
_FORCED: bool | None = None


def obs_enabled() -> bool:
    """Whether observability is on (override first, then ``REPRO_OBS``).

    Examples
    --------
    >>> from repro.obs_gate import obs_enabled, set_enabled
    >>> set_enabled(True)
    >>> obs_enabled()
    True
    >>> set_enabled(None)  # back to the environment gate
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(OBS_ENV_VAR, "").strip().lower() in _TRUTHY


def get_obs():
    """The :mod:`repro.obs` module when the gate is on, else ``None``.

    The import happens lazily on the first enabled call, so the
    disabled path never loads the subsystem — the invariant the exec
    bench's zero-overhead floor pins down.
    """
    if not obs_enabled():
        return None
    import repro.obs as obs

    return obs


def set_enabled(value: bool | None) -> None:
    """Programmatically force the gate on/off; ``None`` restores the
    environment-driven default.  Used by ``--obs-dir`` CLI runs and
    tests; library code should prefer the environment gate."""
    global _FORCED
    _FORCED = value if value is None else bool(value)


def validation_enabled() -> bool:
    """Whether ``REPRO_VALIDATE_PLANS`` switches validation on."""
    return os.environ.get(VALIDATE_ENV_VAR, "").strip().lower() in _TRUTHY
