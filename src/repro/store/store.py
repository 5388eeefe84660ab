"""The fleet-wide observation store: the tuner's training data-plane.

:class:`ObservationStore` is the one home of the learned prior's
training data.  It keeps the **data-plane** (raw observation records)
apart from the **decision-plane** (the warm-start entries of a
:class:`~repro.tuner.profile.TuningProfile`, which holds decisions
only), and every producer feeds one store:

* ``repro tune`` cold runs (``--store``, else the profile's sidecar,
  else an in-memory store),
* sharded suite runners (per-worker stores merged deterministically).

Layout: a store is a **directory** of append-only JSONL shards
(``obs-<fingerprint>-<seq>.jsonl``; one record per line) plus a
versioned ``store.json`` meta file tracking retrain watermarks.  Each
writer claims its own shard (exclusive create), so concurrent suite
workers never contend on a file; shard rewrites go through
a sibling temp file and :func:`os.replace`
(:mod:`repro.utils.atomic`), so a crash mid-write never loses the
previous good shard.

Every record is tagged with its **machine fingerprint** (which host
produced the seconds), the effective Section 5 **reorder** variant and
the **provenance mode** (``"measured"`` wall clock or ``"simulated"``
cost model).  The PR 4 invariants hold end to end: seconds of the two
regimes never pool into one regressor (:meth:`ObservationStore.retrain`
trains per regime), and model predictions never enter the store —
:meth:`add_observation` is only fed genuine measurements by the
tuner, and rejects records with an unknown mode outright.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.obs_gate import get_obs
from repro.store.prune import coverage_prune
from repro.tuner.features import MatrixFeatures
from repro.utils.atomic import atomic_write_json, atomic_write_text

__all__ = [
    "MergeStats",
    "OBSERVATION_MODES",
    "ObservationStore",
    "PruneStats",
    "STORE_VERSION",
    "build_record",
    "machine_fingerprint",
    "record_key",
]

def _obs_span(name: str, **tags: object):
    """A ``repro.obs`` span when ``REPRO_OBS`` is on, else a no-op
    context (yielding ``None``).  Store maintenance operations — merge,
    prune, retrain — are traced through this so a fleet's data-plane
    history is reconstructable from the trace."""
    obs = get_obs()
    return obs.span(name, **tags) if obs is not None else nullcontext()


#: Format version of observation-store directories; bump on
#: incompatible changes.
STORE_VERSION = 1

#: Provenance modes a record may carry — the two measurement regimes
#: the tuner produces.  :meth:`ObservationStore.add_observation` rejects
#: anything else, so predictions (or untagged seconds) cannot enter the
#: store through the producer path.
OBSERVATION_MODES = ("measured", "simulated")

#: Meta file inside a store directory.
META_FILE = "store.json"

_SHARD_PREFIX = "obs-"
_SHARD_SUFFIX = ".jsonl"

#: New observations (per regime) that make :meth:`ObservationStore
#: .needs_retrain` report staleness; a regime never trained before is
#: stale as soon as it has any observation at all.
DEFAULT_RETRAIN_MIN_NEW = 100


#: Characters allowed in a fingerprint — it names shard files, so path
#: separators and other filesystem-meaningful characters are replaced.
_FINGERPRINT_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


def _sanitize_fingerprint(value: str) -> str:
    """Filesystem-safe form of a fingerprint (shard names embed it)."""
    # strip(".-") is the char-set form on purpose: trim any run of dots
    # and dashes from both ends, not the literal prefix/suffix ".-"
    return _FINGERPRINT_UNSAFE.sub("-", str(value))[:64].strip(".-")  # noqa: B005


def machine_fingerprint() -> str:
    """Short stable identifier of the producing machine.

    Derived from the hostname, OS and CPU topology — stable across
    processes on one host, different across hosts, so merged fleet
    stores keep per-machine provenance.  The environment variable
    ``REPRO_MACHINE_FINGERPRINT`` overrides it (used by CI to simulate
    a multi-machine fleet on one runner); override values are
    sanitized to filesystem-safe characters because shard file names
    embed the fingerprint.

    Examples
    --------
    >>> from repro.store import machine_fingerprint
    >>> machine_fingerprint() == machine_fingerprint()
    True
    """
    override = os.environ.get("REPRO_MACHINE_FINGERPRINT")
    if override:
        sanitized = _sanitize_fingerprint(override)
        if sanitized:
            return sanitized
    payload = "|".join(
        (
            platform.node(),
            platform.system(),
            platform.machine(),
            str(os.cpu_count() or 0),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def build_record(
    features: MatrixFeatures | dict,
    scheduler: str,
    seconds: float,
    *,
    scheduling_seconds: float = 0.0,
    n_cores: int = 0,
    mode: str = "",
    reordered: bool = False,
    machine: str = "",
    source: str = "",
    fingerprint: str = "",
) -> dict:
    """One observation record in the store's canonical dict shape.

    ``machine`` is the *machine-model* name the seconds were priced or
    measured under; ``fingerprint`` identifies the physical producer
    host; ``source`` records the producing subsystem (``"tune"`` or
    ``"suite"``).
    """
    if isinstance(features, MatrixFeatures):
        features = features.as_dict()
    return {
        "features": dict(features),
        "scheduler": str(scheduler),
        "seconds": float(seconds),
        "scheduling_seconds": float(scheduling_seconds),
        "n_cores": int(n_cores),
        "mode": str(mode),
        "reordered": bool(reordered),
        "machine": str(machine),
        "source": str(source),
        "fingerprint": str(fingerprint),
    }


def record_key(record: dict) -> str:
    """Content hash of one record — the identity ``merge`` dedups on.

    Two byte-identical observations (same features, seconds, tags and
    provenance) collapse; records differing in any field — including
    the machine fingerprint — are distinct.
    """
    payload = json.dumps(record, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MergeStats:
    """Outcome of one :meth:`ObservationStore.merge` call."""

    sources: int
    records_read: int
    added: int
    duplicates: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class PruneStats:
    """Outcome of one :meth:`ObservationStore.prune` call."""

    before: int
    after: int
    dropped: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ObservationStore:
    """Append-only sharded JSONL observation store (see the module
    docstring).

    Parameters
    ----------
    path:
        Store directory.  Created (with a versioned ``store.json``)
        when missing and ``create`` is true.  ``None`` makes an
        **in-memory** store — same API, nothing touches disk — used by
        suite workers that hand their records to the parent for the
        deterministic merge.
    fingerprint:
        Machine fingerprint stamped on records this instance appends
        (default: :func:`machine_fingerprint`).
    create:
        Refuse (``ConfigurationError``) instead of creating when the
        directory is missing — the read-side guard of the ``repro
        store`` CLI verbs.

    Examples
    --------
    >>> from repro.store import ObservationStore
    >>> store = ObservationStore(None, fingerprint="doc")   # in-memory
    >>> len(store)
    0
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        fingerprint: str | None = None,
        create: bool = True,
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.fingerprint = (
            _sanitize_fingerprint(fingerprint) if fingerprint else ""
        ) or machine_fingerprint()
        #: Records owned by this writer (flushed into its claimed shard).
        self._writer_records: list[dict] = []
        self._writer_shard: str | None = None
        self._dirty = False
        self._hash_index: set[str] | None = None
        if self.path is None:
            return
        if not os.path.isdir(self.path):
            if os.path.exists(self.path):
                raise ConfigurationError(
                    f"observation store path {self.path!r} exists but "
                    "is not a directory"
                )
            if not create:
                raise ConfigurationError(
                    f"observation store {self.path!r} does not exist"
                )
            os.makedirs(self.path, exist_ok=True)
        self._check_meta()

    # ------------------------------------------------------------------
    # meta
    # ------------------------------------------------------------------
    def _meta_path(self) -> str:
        assert self.path is not None  # repro: allow[no-bare-assert]
        return os.path.join(self.path, META_FILE)

    def _read_meta(self) -> dict:
        if self.path is None or not os.path.exists(self._meta_path()):
            return {"version": STORE_VERSION, "trained": {}}
        with open(self._meta_path(), "r", encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"observation store meta {self._meta_path()!s} is "
                    f"not valid JSON: {exc}"
                ) from None
        if not isinstance(meta, dict):
            raise ConfigurationError(
                f"observation store meta {self._meta_path()!s}: "
                "expected a JSON object"
            )
        return meta

    def _write_meta(self, meta: dict) -> None:
        if self.path is not None:
            atomic_write_json(meta, self._meta_path())

    def _check_meta(self) -> None:
        meta = self._read_meta()
        version = meta.get("version", STORE_VERSION)
        if version != STORE_VERSION:
            raise ConfigurationError(
                f"observation store {self.path!r} has version "
                f"{version!r}; this build reads version {STORE_VERSION}"
            )
        if not os.path.exists(self._meta_path()):
            self._write_meta(meta)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def add_observation(
        self,
        features: MatrixFeatures | dict,
        scheduler: str,
        seconds: float,
        *,
        scheduling_seconds: float = 0.0,
        n_cores: int = 0,
        mode: str = "",
        reordered: bool = False,
        machine: str = "",
        source: str = "",
    ) -> dict:
        """Append one genuine observation; returns the stored record.

        ``mode`` must name a real measurement regime
        (:data:`OBSERVATION_MODES`) — the producer-path assertion that
        predictions and untagged seconds never enter the store.
        """
        if mode not in OBSERVATION_MODES:
            raise ConfigurationError(
                f"observation mode {mode!r} is not a measurement regime; "
                f"use one of {OBSERVATION_MODES} — model predictions "
                "must never enter the store"
            )
        record = build_record(
            features,
            scheduler,
            seconds,
            scheduling_seconds=scheduling_seconds,
            n_cores=n_cores,
            mode=mode,
            reordered=reordered,
            machine=machine,
            source=source,
            fingerprint=self.fingerprint,
        )
        self._append(record)
        return record

    def _append(self, record: dict) -> None:
        self._writer_records.append(record)
        self._dirty = True
        if self._hash_index is not None:
            self._hash_index.add(record_key(record))

    def ingest(self, records: Iterable[dict]) -> int:
        """Append records not already present (content dedup); returns
        how many were actually added.  Re-ingesting the same batch — a
        re-run suite — is idempotent.  Records without a fingerprint
        are stamped with this writer's."""
        index = self._ensure_hash_index()
        added = 0
        for record in records:
            record = dict(record)
            if not record.get("fingerprint"):
                record["fingerprint"] = self.fingerprint
            key = record_key(record)
            if key in index:
                continue
            self._append(record)
            added += 1
        return added

    def _ensure_hash_index(self) -> set[str]:
        if self._hash_index is None:
            self._hash_index = {record_key(r) for r in self}
        return self._hash_index

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _shards(self) -> list[str]:
        if self.path is None:
            return []
        return sorted(
            name
            for name in os.listdir(self.path)
            if name.startswith(_SHARD_PREFIX)
            and name.endswith(_SHARD_SUFFIX)
        )

    def __iter__(self) -> Iterator[dict]:
        """All records: on-disk shards in sorted shard order, then this
        writer's (possibly unflushed) records.  Lines that fail to parse
        are skipped — a store survives a hand edit or a torn legacy
        file."""
        for shard in self._shards():
            if shard == self._writer_shard:
                continue  # this writer's records come from memory
            with open(
                os.path.join(self.path, shard), "r", encoding="utf-8"
            ) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(record, dict):
                        yield record
        yield from list(self._writer_records)

    def __len__(self) -> int:
        """Records currently in the store (all shards + unflushed)."""
        return sum(1 for _ in self)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _claim_shard(self) -> str:
        """Reserve this writer's shard file with an exclusive create, so
        concurrent writers (suite workers) never share one."""
        assert self.path is not None  # repro: allow[no-bare-assert]
        seq = 0
        while True:
            name = f"{_SHARD_PREFIX}{self.fingerprint}-{seq:04d}{_SHARD_SUFFIX}"
            try:
                fd = os.open(
                    os.path.join(self.path, name),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                seq += 1
                continue
            os.close(fd)
            self._writer_shard = name
            return name

    def flush(self) -> None:
        """Persist this writer's records into its shard.

        The whole shard content is serialized first and written through
        a sibling temp file + :func:`os.replace` — a crash (or an
        unserializable record) never loses the previously flushed
        lines.  In-memory stores (``path=None``) are a no-op.
        """
        if self.path is None or not self._dirty:
            return
        lines = "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self._writer_records
        )
        if self._writer_shard is None:
            self._claim_shard()
        atomic_write_text(
            os.path.join(self.path, self._writer_shard), lines
        )
        self._dirty = False

    # ------------------------------------------------------------------
    # merge / prune
    # ------------------------------------------------------------------
    def merge(
        self,
        sources: Iterable["ObservationStore | str | os.PathLike"],
    ) -> MergeStats:
        """Merge ``sources`` (stores or store paths) into this store.

        Each source record is read **exactly once** and appended unless
        an identical record (content hash, fingerprint included) is
        already present — O(total observations), never a re-read per
        source.  Reading the same sources in the same order is
        deterministic, so two merges of the same fleet produce the same
        store; re-merging an already-merged source adds nothing.
        """
        with _obs_span("store.merge") as span:
            index = self._ensure_hash_index()
            n_sources = 0
            records_read = 0
            added = 0
            duplicates = 0
            for source in sources:
                n_sources += 1
                store = (
                    source
                    if isinstance(source, ObservationStore)
                    else ObservationStore(source, create=False)
                )
                for record in store:
                    records_read += 1
                    key = record_key(record)
                    if key in index:
                        duplicates += 1
                        continue
                    index.add(key)
                    self._append(record)
                    added += 1
            self.flush()
            if span is not None:
                span.tag(sources=n_sources, records_read=records_read,
                         added=added, duplicates=duplicates)
            return MergeStats(
                sources=n_sources,
                records_read=records_read,
                added=added,
                duplicates=duplicates,
            )

    def prune(self, keep: int) -> PruneStats:
        """Thin the store to at most ``keep`` records by feature-space
        coverage (:func:`~repro.store.prune.coverage_prune`) rather than
        by age.

        The surviving records are flushed into this writer's shard
        *before* the superseded shards are removed, so a crash
        mid-prune leaves duplicates (collapsed by the next
        merge/ingest), never data loss.
        """
        with _obs_span("store.prune", keep=int(keep)) as span:
            records = list(self)
            before = len(records)
            if before <= max(int(keep), 0):
                return PruneStats(before=before, after=before, dropped=0)
            kept = coverage_prune(records, keep)
            self._writer_records = kept
            self._hash_index = None
            self._dirty = True
            self.flush()
            if self.path is not None:
                for shard in self._shards():
                    if shard != self._writer_shard:
                        os.unlink(os.path.join(self.path, shard))
                # clamp the retrain watermarks to the shrunken per-regime
                # counts, otherwise the staleness gate would stay jammed
                # until the count re-exceeded its pre-prune level
                meta = self._read_meta()
                trained = meta.get("trained", {})
                if trained:
                    counts = self._mode_counts()
                    for mode, entry in trained.items():
                        watermark = int(entry.get("n_observations", 0))
                        entry["n_observations"] = min(
                            watermark, counts.get(mode, 0)
                        )
                    self._write_meta(meta)
            if span is not None:
                span.tag(before=before, after=len(kept))
            return PruneStats(
                before=before, after=len(kept), dropped=before - len(kept)
            )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-scheduler / per-regime coverage summary (JSON-ready).

        ``schedulers.<name>.regimes.<mode>`` reports the record count,
        how many carry the Section 5 reorder flag, and how many
        *unique* feature fingerprints the regime covers — the quantity
        :meth:`prune` preserves.
        """
        total = 0
        machines: set[str] = set()
        modes: dict[str, int] = {}
        sources: dict[str, int] = {}
        schedulers: dict[str, dict] = {}
        for record in self:
            total += 1
            machines.add(str(record.get("fingerprint", "")))
            mode = str(record.get("mode", ""))
            modes[mode] = modes.get(mode, 0) + 1
            source = str(record.get("source", ""))
            sources[source] = sources.get(source, 0) + 1
            name = str(record.get("scheduler", ""))
            entry = schedulers.setdefault(name, {"n": 0, "regimes": {}})
            entry["n"] += 1
            regime = entry["regimes"].setdefault(
                mode,
                {"n": 0, "reordered": 0, "_features": set()},
            )
            regime["n"] += 1
            if record.get("reordered"):
                regime["reordered"] += 1
            try:
                regime["_features"].add(
                    MatrixFeatures.from_dict(record["features"])
                    .fingerprint()
                )
            except (KeyError, TypeError, ValueError):
                pass
        for entry in schedulers.values():
            for regime in entry["regimes"].values():
                regime["unique_features"] = len(regime.pop("_features"))
        meta = self._read_meta()
        return {
            "version": STORE_VERSION,
            "path": self.path,
            "n_observations": total,
            "n_shards": len(self._shards()),
            "machines": sorted(machines - {""}),
            "modes": modes,
            "sources": sources,
            "schedulers": schedulers,
            "trained": meta.get("trained", {}),
        }

    # ------------------------------------------------------------------
    # retraining
    # ------------------------------------------------------------------
    def _mode_counts(self) -> dict[str, int]:
        counts = {mode: 0 for mode in OBSERVATION_MODES}
        for record in self:
            mode = str(record.get("mode", ""))
            if mode in counts:
                counts[mode] += 1
        return counts

    def _resolve_mode(
        self, mode: str | None, counts: dict[str, int] | None = None
    ) -> str | None:
        """The regime to train on: explicit, else the majority regime
        (``"measured"`` — ground truth — winning ties); ``None`` for an
        empty store."""
        if mode is not None:
            if mode not in OBSERVATION_MODES:
                raise ConfigurationError(
                    f"unknown observation mode {mode!r}; use one of "
                    f"{OBSERVATION_MODES}"
                )
            return mode
        if counts is None:
            counts = self._mode_counts()
        if not any(counts.values()):
            return None
        return min(counts, key=lambda m: (-counts[m], m))

    def _is_stale(self, mode: str, count: int, min_new: int) -> bool:
        """The staleness rule on a precomputed per-regime ``count``."""
        trained = self._read_meta().get("trained", {})
        watermark = trained.get(mode, {}).get("n_observations")
        if watermark is None:
            return count > 0
        return count - int(watermark) >= max(int(min_new), 1)

    def needs_retrain(
        self,
        mode: str | None = None,
        *,
        min_new: int = DEFAULT_RETRAIN_MIN_NEW,
    ) -> bool:
        """Whether enough new observations of ``mode`` accumulated since
        the last :meth:`retrain` watermark (a regime never trained
        before is stale as soon as it has observations)."""
        counts = self._mode_counts()
        mode = self._resolve_mode(mode, counts)
        if mode is None:
            return False
        return self._is_stale(mode, counts[mode], min_new)

    def retrain(
        self,
        *,
        mode: str | None = None,
        min_new: int = DEFAULT_RETRAIN_MIN_NEW,
        force: bool = False,
        model_path: str | os.PathLike | None = None,
        **fit_options: object,
    ):
        """Refit the learned prior from this store when it is stale.

        Returns the new
        :class:`~repro.tuner.learn.LearnedTunerModel`, or ``None`` when
        the staleness gate says nothing changed (``force`` overrides).
        Training is restricted to one regime
        (:meth:`_resolve_mode` — the PR 4 separation invariant), the
        meta watermark for that regime is advanced, and the model is
        written to ``model_path`` when given (atomically, via
        :func:`~repro.tuner.learn.save_trained_model`, which raises
        :class:`~repro.errors.ConfigurationError` rather than replace
        an existing model file with an empty fit).
        """
        from repro.tuner.learn import LearnedTunerModel, save_trained_model

        with _obs_span("store.retrain", force=bool(force)) as span:
            # one scan resolves the regime, the staleness check and the
            # watermark count together; the fit below is the second (and
            # last) pass over the records
            counts = self._mode_counts()
            mode = self._resolve_mode(mode, counts)
            if mode is None:
                return None
            if not force and not self._is_stale(
                mode, counts[mode], min_new
            ):
                return None
            model = LearnedTunerModel.fit(self, mode=mode, **fit_options)
            if span is not None:
                span.tag(mode=mode, n_observations=counts[mode],
                         fitted=len(model) > 0)
            if len(model) > 0:
                # the watermark only advances when the fit actually
                # learned something: an empty fit (too few records per
                # variant) keeps the regime stale so accumulating data
                # retriggers
                meta = self._read_meta()
                meta.setdefault("trained", {})[mode] = {
                    "n_observations": counts[mode],
                }
                self._write_meta(meta)
            if model_path is not None:
                save_trained_model(model, model_path)
            return model

    def __repr__(self) -> str:
        where = self.path if self.path is not None else "<memory>"
        return (
            f"ObservationStore({where!r}, "
            f"fingerprint={self.fingerprint!r})"
        )
