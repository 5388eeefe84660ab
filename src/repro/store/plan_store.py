"""Persisted execution plans: the fleet's compiled-artifact data-plane.

A :class:`PlanStore` persists the lowered arrays of
:class:`~repro.exec.plan.ExecutionPlan`s on disk, so a later process —
suite workers, services, CLI runs — can load a verified plan instead of
lowering its ``(matrix, schedule)`` pair again.  Only the lowering is
replaced: scheduling is still paid, because the schedule is not
persisted and the store key is built from it.  Lowering is O(nnz), and
so is the integrity gate below, so a load costs about as much as the
compile it replaces.

Format (version :data:`PLAN_STORE_VERSION`)
-------------------------------------------
One artifact is two sibling files under the store directory:

* ``<stem>.npz`` — the plan's ten flat arrays (batch layout, gather
  structure, diagonal, permutations, core program order), written
  uncompressed so members are plain ``.npy`` payloads (nothing is
  pickled and loads pass ``allow_pickle=False``);
* ``<stem>.json`` — the sidecar: format version, the exact lookup key,
  sweep direction, the matrix fingerprint, the schedule identity
  (content hash of the superstep/core assignment), the toolchain
  digest (plan-compiler source + NumPy + Python versions, mirroring
  the persistent-JIT cache key) and a content hash over the arrays
  *and* the sidecar scalars.

The store is keyed **exactly** — ``(matrix_fingerprint, scheduler,
cores, dtype)``, see :class:`PlanKey` — and the stem embeds a hash of
the full key, so lookup is a single ``stat``.  Backend dispatch spans
are derived from the loaded batches, never stored.

Integrity gate
--------------
A deserialized plan may **never** serve unverified.  :meth:`PlanStore
.load` rejects with a named :class:`~repro.errors.PlanArtifactError`
subclass on a version, key, toolchain or content-hash mismatch, and
every surviving plan must still pass the mandatory
:func:`repro.analysis.verify.check_plan` (unconditional — not behind
``REPRO_VALIDATE_PLANS``) before it is returned.  Cache-tier callers
(:meth:`repro.exec.PlanCache.get_or_build`) use :meth:`PlanStore.get`,
which converts every rejection into a counted miss so the caller falls
back to compiling.

Writes are crash- and race-safe: payloads land in a same-directory
temp file and are renamed into place (:mod:`repro.utils.atomic`
semantics), the sidecar is written *after* the npz (a sidecar is the
commit record), and writers claim a key via an exclusive-create lock
file so racing processes produce exactly one artifact per key.  Disk usage is LRU-bounded: loads touch the sidecar
mtime and :meth:`PlanStore.gc` evicts least-recently-used artifacts
beyond the byte budget (``REPRO_PLAN_STORE_MAX_BYTES``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import tempfile
import threading
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import (
    ConfigurationError,
    PlanArtifactCorruptError,
    PlanArtifactError,
    PlanArtifactMissingError,
    PlanArtifactStaleError,
    PlanArtifactVersionError,
    PlanVerificationError,
)
from repro.exec.plan import ExecutionPlan
from repro.obs_gate import get_obs
from repro.utils.atomic import atomic_write_json

__all__ = [
    "PLAN_STORE_ENV_VAR",
    "PLAN_STORE_MAX_BYTES_ENV_VAR",
    "PLAN_STORE_VERSION",
    "PlanKey",
    "PlanStore",
    "plan_store_from_env",
    "plan_store_key",
    "schedule_identity",
    "toolchain_digest",
]

#: Format version of plan-store artifacts; bump on incompatible layout
#: changes.  A mismatch is a named rejection, never a reinterpretation.
PLAN_STORE_VERSION = 3

#: Environment variable pointing the disk tier of every
#: :class:`~repro.exec.PlanCache` at a store directory.
PLAN_STORE_ENV_VAR = "REPRO_PLAN_STORE_DIR"

#: Environment variable bounding a store's disk usage in bytes (LRU
#: eviction beyond it; unset means unbounded).
PLAN_STORE_MAX_BYTES_ENV_VAR = "REPRO_PLAN_STORE_MAX_BYTES"

#: Meta file inside a plan-store directory.
META_FILE = "plan-store.json"

#: The ndarray fields of an :class:`ExecutionPlan`, in canonical hash
#: and serialization order.  Scalars (direction, singularity) travel in
#: the sidecar.
ARRAY_FIELDS = (
    "rows",
    "batch_ptr",
    "off_ptr",
    "off_cols",
    "off_vals",
    "diag",
    "pos",
    "core_rows",
    "core_ptr",
    "row_step",
)

_STEM_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


def _sanitize(value: str) -> str:
    """Filesystem-safe token (stems embed key components)."""
    return _STEM_UNSAFE.sub("-", str(value))[:48].strip(".-") or "x"


def toolchain_digest() -> str:
    """Digest of everything a serialized plan's layout depends on.

    Mirrors the persistent-JIT cache key
    (:func:`repro.exec.kernels_numba.jit_cache_key`): the plan
    compiler's source plus the NumPy and Python versions.  Any change
    rejects existing artifacts as stale instead of serving arrays a
    different lowering produced.

    Examples
    --------
    >>> from repro.store.plan_store import toolchain_digest
    >>> len(toolchain_digest()), toolchain_digest() == toolchain_digest()
    (16, True)
    """
    from repro.exec import plan as plan_module

    h = hashlib.sha256()
    h.update(Path(plan_module.__file__).read_bytes())
    h.update(
        f"|numpy={np.__version__}"
        f"|python={platform.python_version()}".encode()
    )
    return h.hexdigest()[:16]


def schedule_identity(schedule) -> str:
    """Content identity of a schedule (``"__serial__"`` for ``None``).

    Hashes the per-vertex core and superstep assignments, so two
    schedules with identical content share an identity regardless of
    which scheduler object produced them — and a plan artifact can be
    cross-checked against the schedule a later process recomputed.
    """
    if schedule is None:
        return "__serial__"
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(schedule.cores).tobytes())
    h.update(np.ascontiguousarray(schedule.supersteps).tobytes())
    h.update(str(int(schedule.n_cores)).encode())
    return (
        f"sched-{int(schedule.n_cores)}x{int(schedule.n_supersteps)}-"
        f"{h.hexdigest()[:12]}"
    )


@dataclass(frozen=True)
class PlanKey:
    """The exact lookup key of one persisted plan.

    ``scheduler`` is a caller-chosen label (a scheduler registry name,
    a schedule content identity for ad-hoc schedules, ``"__serial__"``
    for serial plans); the sidecar additionally records the schedule's
    *content* identity, so a label collision is caught at load time as
    a stale artifact rather than served.
    """

    matrix_fingerprint: str
    scheduler: str
    cores: int
    dtype: str = "float64"

    def as_dict(self) -> dict:
        return {
            "matrix_fingerprint": self.matrix_fingerprint,
            "scheduler": self.scheduler,
            "cores": int(self.cores),
            "dtype": self.dtype,
        }

    def stem(self) -> str:
        """Deterministic artifact file stem: readable key components
        plus a hash of the exact key (sanitization is lossy; the hash
        is not)."""
        digest = hashlib.sha256(
            json.dumps(self.as_dict(), sort_keys=True).encode()
        ).hexdigest()[:10]
        return (
            f"plan-{_sanitize(self.matrix_fingerprint)}"
            f"-{_sanitize(self.scheduler)}-c{int(self.cores)}"
            f"-{_sanitize(self.dtype)}"
            f"-{digest}"
        )


def plan_store_key(
    matrix,
    schedule=None,
    *,
    scheduler: str | None = None,
    dtype: str = "float64",
    direction: str = "forward",
) -> PlanKey:
    """The :class:`PlanKey` a ``compile_plan(matrix, schedule, ...)``
    call's plan is stored under.

    ``scheduler`` defaults to the schedule's content identity
    (``"__serial__"`` for serial plans).  A non-forward sweep is folded
    into the scheduler label — direction changes the lowering, so it
    must change the key.
    """
    # deferred import: the tuner layer (fingerprints) sits above this
    # store module in some import chains
    from repro.tuner.auto import matrix_fingerprint

    label = scheduler if scheduler is not None else schedule_identity(schedule)
    if direction != "forward":
        label = f"{label}@{direction}"
    return PlanKey(
        matrix_fingerprint=matrix_fingerprint(matrix),
        scheduler=str(label),
        cores=int(schedule.n_cores) if schedule is not None else 1,
        dtype=str(dtype),
    )


def plan_store_from_env() -> "PlanStore | None":
    """The env-gated default store (``REPRO_PLAN_STORE_DIR``), or
    ``None`` when the gate is off."""
    path = os.environ.get(PLAN_STORE_ENV_VAR, "").strip()
    if not path:
        return None
    return PlanStore(path)


def _artifact_hash(arrays: dict, scalars: dict) -> str:
    """Content hash over the arrays *and* the sidecar scalars.

    Any byte flip in any array, and any tamper of a hashed sidecar
    field (direction, singularity, key, schedule identity), changes
    the digest — the corruption gate the load path enforces.
    """
    h = hashlib.sha256()
    h.update(json.dumps(scalars, sort_keys=True).encode())
    for name in ARRAY_FIELDS:
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _obs_span(name: str, **tags: object):
    obs = get_obs()
    return obs.span(name, **tags) if obs is not None else nullcontext()


class PlanStore:
    """Versioned on-disk store of compiled execution plans.

    Parameters
    ----------
    path:
        Store directory, created (with a versioned meta file) when
        missing and ``create`` is true.
    max_bytes:
        LRU disk budget; ``None`` reads ``REPRO_PLAN_STORE_MAX_BYTES``
        (unset: unbounded).  Enforced after every save and by
        :meth:`gc`.
    create:
        Refuse (:class:`~repro.errors.ConfigurationError`) instead of
        creating when the directory is missing — the read-side guard
        of the ``repro plans`` CLI verbs.

    Examples
    --------
    >>> import tempfile
    >>> from repro.exec import compile_plan
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.store import PlanStore, plan_store_key
    >>> L = narrow_band_lower(60, 0.2, 5.0, seed=0)
    >>> key = plan_store_key(L, None)
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     store = PlanStore(tmp)
    ...     _ = store.save(compile_plan(L), key)
    ...     loaded = store.load(key, matrix=L)
    ...     (loaded.provenance, loaded.n, store.hits)
    ('store', 60, 1)
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        max_bytes: int | None = None,
        create: bool = True,
    ) -> None:
        self.path = os.fspath(path)
        if max_bytes is None:
            env = os.environ.get(PLAN_STORE_MAX_BYTES_ENV_VAR, "").strip()
            if env:
                try:
                    max_bytes = int(env)
                except ValueError:
                    raise ConfigurationError(
                        f"{PLAN_STORE_MAX_BYTES_ENV_VAR}={env!r} is not "
                        f"an integer"
                    ) from None
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.rejects = 0
        self.saves = 0
        self.save_races = 0
        self.save_errors = 0
        self.evictions = 0
        #: Reason string of the most recent load rejection (surfaced by
        #: the CLI and tests; informational only).
        self.last_reject: str | None = None
        self._obs = get_obs()
        if not os.path.isdir(self.path):
            if os.path.exists(self.path):
                raise ConfigurationError(
                    f"plan store path {self.path!r} exists but is not "
                    "a directory"
                )
            if not create:
                raise ConfigurationError(
                    f"plan store {self.path!r} does not exist"
                )
            os.makedirs(self.path, exist_ok=True)
        self._check_meta()

    # ------------------------------------------------------------------
    # meta / layout
    # ------------------------------------------------------------------
    def _meta_path(self) -> str:
        return os.path.join(self.path, META_FILE)

    def _check_meta(self) -> None:
        meta_path = self._meta_path()
        if os.path.exists(meta_path):
            with open(meta_path, "r", encoding="utf-8") as fh:
                try:
                    meta = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigurationError(
                        f"plan store meta {meta_path!s} is not valid "
                        f"JSON: {exc}"
                    ) from None
            version = meta.get("version") if isinstance(meta, dict) else None
            if version != PLAN_STORE_VERSION:
                raise ConfigurationError(
                    f"plan store {self.path!r} has version {version!r}; "
                    f"this build reads version {PLAN_STORE_VERSION}"
                )
        else:
            atomic_write_json({"version": PLAN_STORE_VERSION}, meta_path)

    def _paths(self, key: PlanKey) -> tuple[str, str, str]:
        stem = os.path.join(self.path, key.stem())
        return stem + ".npz", stem + ".json", stem + ".lock"

    def _count(self, counter: str, value: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + value)
        if self._obs is not None:
            self._obs.get_registry().counter(
                f"plan_store.{counter}"
            ).inc(value)

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def _sidecar_scalars(self, plan: ExecutionPlan, key: PlanKey) -> dict:
        """The hashed sidecar fields of one artifact."""
        return {
            "format_version": PLAN_STORE_VERSION,
            "key": key.as_dict(),
            "direction": plan.direction,
            "n": plan.n,
            "singular_row": int(plan.singular_row),
            "singular_reason": plan._singular_reason,
            "schedule_identity": schedule_identity(plan.schedule),
            "toolchain": toolchain_digest(),
        }

    def save(self, plan: ExecutionPlan, key: PlanKey) -> str | None:
        """Persist ``plan`` under ``key``; returns the sidecar path.

        First writer wins: when the artifact already exists, or another
        writer holds the key's exclusive-create claim, nothing is
        written and ``None`` is returned (counted as a save race) — a
        store directory raced by N processes ends up with exactly one
        artifact per key, never a torn mix of two writers' files.

        The npz lands (atomically) before the sidecar: a sidecar is the
        commit record, so readers never observe a half-written
        artifact as present.
        """
        if key.cores != plan.n_cores or key.dtype != str(
            plan.off_vals.dtype
        ):
            raise ConfigurationError(
                f"plan key {key} does not describe this plan "
                f"(cores={plan.n_cores}, dtype={plan.off_vals.dtype})"
            )
        npz_path, sidecar_path, lock_path = self._paths(key)
        if os.path.exists(sidecar_path):
            self._count("save_races")
            return None
        try:
            lock_fd = os.open(
                lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            # another writer is materializing this key right now
            self._count("save_races")
            return None
        os.close(lock_fd)
        try:
            with _obs_span("plan_store.save", key=key.stem()):
                arrays = {
                    name: np.ascontiguousarray(getattr(plan, name))
                    for name in ARRAY_FIELDS
                }
                scalars = self._sidecar_scalars(plan, key)
                fd, tmp_path = tempfile.mkstemp(
                    prefix=key.stem() + ".", suffix=".npz.tmp",
                    dir=self.path,
                )
                try:
                    with os.fdopen(fd, "wb") as fh:
                        np.savez(fh, **arrays)
                    os.replace(tmp_path, npz_path)
                except BaseException:
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
                    raise
                sidecar = dict(scalars)
                sidecar["content_hash"] = _artifact_hash(arrays, scalars)
                atomic_write_json(sidecar, sidecar_path)
        finally:
            try:
                os.unlink(lock_path)
            except OSError:
                pass
        self._count("saves")
        if self.max_bytes is not None:
            self.gc()
        return sidecar_path

    def put(self, plan: ExecutionPlan, key: PlanKey) -> str | None:
        """Best-effort :meth:`save` for cache-tier callers: an I/O
        failure is counted, never raised — failing to persist must not
        fail the solve that compiled the plan."""
        try:
            return self.save(plan, key)
        except OSError:
            self._count("save_errors")
            return None

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def _read_sidecar(self, sidecar_path: str) -> dict:
        try:
            with open(sidecar_path, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PlanArtifactCorruptError(
                f"plan sidecar {sidecar_path!s} is torn or not valid "
                f"JSON: {exc}"
            ) from None
        if not isinstance(sidecar, dict):
            raise PlanArtifactCorruptError(
                f"plan sidecar {sidecar_path!s}: expected a JSON object"
            )
        return sidecar

    @staticmethod
    def _check_version(sidecar: dict, sidecar_path: str) -> None:
        version = sidecar.get("format_version")
        if version != PLAN_STORE_VERSION:
            raise PlanArtifactVersionError(
                f"plan artifact {sidecar_path!s} has format version "
                f"{version!r}; this build reads version "
                f"{PLAN_STORE_VERSION}"
            )

    def load(
        self,
        key: PlanKey,
        *,
        matrix=None,
        schedule=None,
    ) -> ExecutionPlan:
        """Load, integrity-check and verify the plan stored under
        ``key``.

        Every gate is mandatory and ordered: format version, exact key
        match (fingerprint/scheduler/cores/dtype), schedule
        identity against a caller-supplied ``schedule``, toolchain
        digest, content hash over arrays *and* sidecar scalars — and
        finally the static verifier
        (:func:`repro.analysis.verify.check_plan`, cross-checked
        against ``matrix``/``schedule`` when supplied).  Any failure
        raises the named error; a plan that cannot prove its integrity
        is never returned.

        The returned plan carries ``provenance="store"`` and the
        caller-supplied ``matrix``/``schedule`` attached (artifacts
        persist only the lowered arrays, never their sources).
        """
        npz_path, sidecar_path, _ = self._paths(key)
        if not os.path.exists(sidecar_path):
            raise PlanArtifactMissingError(
                f"no plan artifact for key {key.stem()!r} in {self.path!r}"
            )
        with _obs_span("plan_store.load", key=key.stem()):
            sidecar = self._read_sidecar(sidecar_path)
            self._check_version(sidecar, sidecar_path)
            stored_key = sidecar.get("key")
            if stored_key != key.as_dict():
                raise PlanArtifactStaleError(
                    f"plan artifact {sidecar_path!s} describes key "
                    f"{stored_key!r}, not the requested {key.as_dict()!r}"
                )
            if matrix is not None:
                from repro.tuner.auto import matrix_fingerprint

                fingerprint = matrix_fingerprint(matrix)
                if fingerprint != key.matrix_fingerprint:
                    raise PlanArtifactStaleError(
                        f"plan artifact {sidecar_path!s} was stored for "
                        f"matrix {key.matrix_fingerprint!r}; the "
                        f"supplied matrix fingerprints as "
                        f"{fingerprint!r}"
                    )
            if schedule is not None or sidecar.get(
                "schedule_identity"
            ) == "__serial__":
                expected = schedule_identity(schedule)
                if sidecar.get("schedule_identity") != expected:
                    raise PlanArtifactStaleError(
                        f"plan artifact {sidecar_path!s} was lowered "
                        f"from schedule "
                        f"{sidecar.get('schedule_identity')!r}, not the "
                        f"supplied {expected!r}"
                    )
            toolchain = toolchain_digest()
            if sidecar.get("toolchain") != toolchain:
                raise PlanArtifactStaleError(
                    f"plan artifact {sidecar_path!s} was written by "
                    f"toolchain {sidecar.get('toolchain')!r}; this "
                    f"process is {toolchain!r}"
                )
            try:
                with np.load(npz_path, allow_pickle=False) as payload:
                    arrays = {
                        name: np.ascontiguousarray(payload[name])
                        for name in ARRAY_FIELDS
                    }
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile) as exc:
                raise PlanArtifactCorruptError(
                    f"plan payload {npz_path!s} is unreadable or "
                    f"incomplete: {exc}"
                ) from None
            scalars = {
                name: sidecar.get(name)
                for name in (
                    "format_version", "key", "direction", "n",
                    "singular_row", "singular_reason",
                    "schedule_identity", "toolchain",
                )
            }
            content_hash = _artifact_hash(arrays, scalars)
            if sidecar.get("content_hash") != content_hash:
                raise PlanArtifactCorruptError(
                    f"plan artifact {npz_path!s} failed its content "
                    f"hash (stored {sidecar.get('content_hash')!r}, "
                    f"recomputed {content_hash!r}) — bytes were "
                    f"flipped, truncated or torn"
                )
            plan = ExecutionPlan(
                matrix=matrix,
                schedule=schedule,
                direction=str(sidecar["direction"]),
                singular_row=int(sidecar["singular_row"]),
                _singular_reason=str(sidecar["singular_reason"]),
                provenance="store",
                **arrays,
            )
            # the hard gate: a deserialized plan passes the full static
            # verifier or it is never served — unconditional, not
            # behind REPRO_VALIDATE_PLANS (solvability is checked by
            # consumers; cost-model plans legally carry singularities)
            from repro.analysis.verify import check_plan

            check_plan(
                plan, matrix=matrix, schedule=schedule,
                require_solvable=False,
            )
        try:
            os.utime(sidecar_path)  # LRU touch
        except OSError:
            pass
        self._count("hits")
        return plan

    def get(
        self,
        key: PlanKey,
        *,
        matrix=None,
        schedule=None,
    ) -> ExecutionPlan | None:
        """Cache-tier lookup: the loaded plan, or ``None``.

        A missing artifact is a counted miss; a rejected artifact
        (named :class:`~repro.errors.PlanArtifactError`, a failed
        :func:`check_plan`, or an I/O error) is a counted reject — the
        caller falls back to compiling either way, and a corrupt
        artifact never crashes the lookup.
        """
        try:
            return self.load(key, matrix=matrix, schedule=schedule)
        except PlanArtifactMissingError:
            self._count("misses")
            return None
        except (PlanArtifactError, PlanVerificationError, OSError) as exc:
            with self._lock:
                self.last_reject = f"{type(exc).__name__}: {exc}"
            self._count("rejects")
            return None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _artifacts(self) -> list[dict]:
        """All artifacts (by sidecar), with sizes and LRU mtimes."""
        out = []
        for name in sorted(os.listdir(self.path)):
            if not name.endswith(".json") or name == META_FILE:
                continue
            sidecar_path = os.path.join(self.path, name)
            npz_path = sidecar_path[:-5] + ".npz"
            try:
                stat = os.stat(sidecar_path)
                size = stat.st_size + (
                    os.stat(npz_path).st_size
                    if os.path.exists(npz_path) else 0
                )
            except OSError:
                continue
            out.append({
                "stem": name[:-5],
                "sidecar": sidecar_path,
                "npz": npz_path,
                "bytes": size,
                "mtime": stat.st_mtime,
            })
        return out

    def ls(self) -> list[dict]:
        """Sidecar summaries of every artifact (stable stem order)."""
        rows = []
        for entry in self._artifacts():
            try:
                sidecar = self._read_sidecar(entry["sidecar"])
            except PlanArtifactCorruptError:
                sidecar = {}
            rows.append({
                "stem": entry["stem"],
                "bytes": entry["bytes"],
                "key": sidecar.get("key"),
                "n": sidecar.get("n"),
                "direction": sidecar.get("direction"),
                "schedule_identity": sidecar.get("schedule_identity"),
                "toolchain": sidecar.get("toolchain"),
            })
        return rows

    def verify(self) -> dict:
        """Run the full load gate over every artifact.

        Each artifact is loaded through :meth:`load` with the key its
        own sidecar declares (structural verification only — sources
        are not available), so a tampered sidecar, flipped payload
        byte, version bump or toolchain drift is flagged with its
        named error.  Returns per-artifact verdicts plus a summary;
        never raises.
        """
        verdicts = []
        for entry in self._artifacts():
            stem = entry["stem"]
            try:
                sidecar = self._read_sidecar(entry["sidecar"])
                # before the key: an older format's key has other fields
                self._check_version(sidecar, entry["sidecar"])
                stored = sidecar.get("key")
                if not isinstance(stored, dict):
                    raise PlanArtifactCorruptError(
                        f"plan sidecar {entry['sidecar']!s} carries no "
                        f"key object"
                    )
                key = PlanKey(**stored)
                if key.stem() != stem:
                    raise PlanArtifactStaleError(
                        f"plan sidecar {entry['sidecar']!s} declares "
                        f"key {stored!r}, which stems to "
                        f"{key.stem()!r}, not {stem!r}"
                    )
                self.load(key)
                verdicts.append(
                    {"stem": stem, "ok": True, "error": None,
                     "error_type": None}
                )
            except (PlanArtifactError, PlanVerificationError,
                    TypeError, OSError) as exc:
                verdicts.append({
                    "stem": stem,
                    "ok": False,
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                })
        n_bad = sum(1 for v in verdicts if not v["ok"])
        return {
            "store": self.path,
            "n_artifacts": len(verdicts),
            "n_bad": n_bad,
            "ok": n_bad == 0,
            "artifacts": verdicts,
        }

    def gc(self, max_bytes: int | None = None) -> dict:
        """Evict least-recently-used artifacts beyond the byte budget.

        Loads touch their sidecar's mtime, so eviction order is a
        genuine LRU over *uses*, not creation order.  Also clears
        leftover ``.lock`` files (a crashed writer's claim otherwise
        blocks that key's persistence forever) — do not run ``gc``
        concurrently with active writers.  Returns eviction stats.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        removed = []
        for name in os.listdir(self.path):
            if name.endswith(".lock"):
                try:
                    os.unlink(os.path.join(self.path, name))
                except OSError:
                    pass
        artifacts = self._artifacts()
        total = sum(entry["bytes"] for entry in artifacts)
        before = total
        if budget is not None:
            for entry in sorted(artifacts, key=lambda e: e["mtime"]):
                if total <= budget:
                    break
                for path in (entry["npz"], entry["sidecar"]):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                total -= entry["bytes"]
                removed.append(entry["stem"])
        if removed:
            self._count("evictions", len(removed))
        return {
            "store": self.path,
            "max_bytes": budget,
            "bytes_before": before,
            "bytes_after": total,
            "removed": removed,
        }

    def delete(self, key: PlanKey) -> bool:
        """Remove one artifact; returns whether anything existed."""
        npz_path, sidecar_path, _ = self._paths(key)
        existed = False
        for path in (sidecar_path, npz_path):
            try:
                os.unlink(path)
                existed = True
            except OSError:
                pass
        return existed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._artifacts())

    def counters(self) -> dict:
        """Hit/miss/reject/save counters as a plain dict snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "rejects": self.rejects,
                "saves": self.saves,
                "save_races": self.save_races,
                "save_errors": self.save_errors,
                "evictions": self.evictions,
            }

    def stats(self) -> dict:
        """Store summary (artifact count, bytes, counters)."""
        artifacts = self._artifacts()
        return {
            "store": self.path,
            "version": PLAN_STORE_VERSION,
            "n_artifacts": len(artifacts),
            "total_bytes": sum(entry["bytes"] for entry in artifacts),
            "max_bytes": self.max_bytes,
            "toolchain": toolchain_digest(),
            "counters": self.counters(),
        }

    def __repr__(self) -> str:
        return (
            f"PlanStore(path={self.path!r}, artifacts={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"rejects={self.rejects})"
        )

