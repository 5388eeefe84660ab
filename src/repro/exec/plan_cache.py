"""Keyed cache for compiled execution artifacts, with hit/miss counters.

Lowering a matrix is a one-time cost, but the seed experiment runner
re-lowered it on every call — once for the reordering stage, again for
the simulation, again for every solve.  A :class:`PlanCache` memoizes
any compiled artifact (plans, reordered matrices, whole scheduler runs)
under a caller-chosen hashable key and counts hits and misses so
callers (and tests) can verify that each executed matrix is compiled
exactly once.

The cache is **thread-safe** and, when bounded, evicts in **LRU** order:
every hit moves its entry to the most-recently-used end, so the entries
every consumer keeps coming back to (an instance's unpermuted plan, hit
by every scheduler without the Section 5 reorder) survive however many
one-shot entries stream past them.  A plain FIFO bound would evict exactly those hottest,
first-inserted entries first.

Builders run *outside* the lock: compiling a plan can take seconds, and
holding the lock across it would serialize every other thread sharing
the cache (the :class:`~repro.service.SolveService` worker, the suite
runner).  Two threads racing to build the same key may both invoke the
builder; the first insertion wins and both observe the same cached value
afterwards — builders are pure, so the duplicate work is the only cost.

Under the ``REPRO_VALIDATE_PLANS`` environment gate every
:class:`~repro.exec.plan.ExecutionPlan` is statically verified (see
:mod:`repro.analysis.verify`) *before* it becomes observable to other
cache consumers, so a corrupted plan can never be amplified by the
cache; the check also happens outside the lock.

Behind the in-memory tier sits an optional **disk tier**: a
:class:`~repro.store.plan_store.PlanStore` (explicit, or resolved
lazily from ``REPRO_PLAN_STORE_DIR``).  When a lookup carries a
``store_key``, a memory miss consults the store before running the
builder — a warm store turns a process's first compile of every
matrix into a load — and a freshly built
:class:`~repro.exec.plan.ExecutionPlan` is persisted best-effort for
the next process.  The store's own integrity gate (mandatory
``check_plan`` plus fingerprint/toolchain/content-hash checks) runs on
every disk hit, and any rejection silently falls through to the
builder, so the disk tier can change *where* a plan comes from but
never *whether* it is sound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

from repro.obs_gate import get_obs, validation_enabled

__all__ = ["PlanCache"]

T = TypeVar("T")


def _maybe_validate(value: object) -> None:
    """Integrity gate: verify plan artifacts before they are published.

    Free when ``REPRO_VALIDATE_PLANS`` is off — the verifier module is
    only imported once the gate is actually on (lazy import keeps the
    hot cache path free of the analysis layer).
    """
    if not validation_enabled():
        return
    from repro.analysis.verify import maybe_check_cached

    maybe_check_cached(value)


class PlanCache:
    """A thread-safe get-or-build memo with hit/miss accounting.

    Examples
    --------
    >>> cache = PlanCache()
    >>> cache.get_or_build("k", lambda: 42)
    42
    >>> cache.get_or_build("k", lambda: 0)  # builder not called again
    42
    >>> (cache.hits, cache.misses)
    (1, 1)
    """

    __slots__ = ("_entries", "_lock", "hits", "misses", "max_entries",
                 "_obs", "_plan_store", "_plan_store_resolved")

    def __init__(
        self, *, max_entries: int | None = None, plan_store=None
    ) -> None:
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: The obs module when ``REPRO_OBS`` is on, else None; captured
        #: once so the per-lookup cost with the gate off is a single
        #: attribute test.
        self._obs = get_obs()
        #: Optional bound; when exceeded the least-recently-used entry is
        #: evicted (compiled plans are cheap to rebuild, so a bound only
        #: caps memory — but it must not evict the entries a suite hits
        #: on every run, hence LRU rather than FIFO).
        self.max_entries = max_entries
        #: The disk tier: an explicit PlanStore, or resolved from
        #: REPRO_PLAN_STORE_DIR on first use (lazy so constructing a
        #: cache never touches the filesystem or the store layer).
        self._plan_store = plan_store
        self._plan_store_resolved = plan_store is not None

    @property
    def plan_store(self):
        """The disk tier (:class:`~repro.store.plan_store.PlanStore`),
        or ``None`` when neither a store nor ``REPRO_PLAN_STORE_DIR``
        is configured.  Resolved once; an unusable store directory
        disables the tier rather than failing lookups."""
        if not self._plan_store_resolved:
            store = None
            try:
                from repro.store.plan_store import plan_store_from_env

                store = plan_store_from_env()
            except Exception:  # noqa: BLE001 - disk tier is optional
                store = None
            with self._lock:
                if not self._plan_store_resolved:
                    self._plan_store = store
                    self._plan_store_resolved = True
        return self._plan_store

    def get_or_build(
        self,
        key: Hashable,
        builder: Callable[[], T],
        *,
        store_key=None,
        source_matrix=None,
    ) -> T:
        """Return the cached value for ``key``, building it on first use.

        The builder runs without holding the cache lock; concurrent
        callers racing on the same key may build twice, and the first
        insertion wins (builders must be pure).

        With a ``store_key`` (a :class:`~repro.store.plan_store
        .PlanKey`) and a configured disk tier, a memory miss first
        consults the :class:`~repro.store.plan_store.PlanStore` —
        ``source_matrix`` is reattached to and cross-checked against
        the loaded plan — and a freshly built
        plan is persisted best-effort.  Store rejections (corrupt,
        stale, failed ``check_plan``) fall through to the builder.
        """
        obs = self._obs
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                value = self._entries[key]
                if obs is not None:
                    obs.get_registry().counter("plan_cache.hits").inc()
                return value  # type: ignore[return-value]
            self.misses += 1
        if obs is not None:
            obs.get_registry().counter("plan_cache.misses").inc()
        store = self.plan_store if store_key is not None else None
        if store is not None:
            loaded = store.get(store_key, matrix=source_matrix)
            if loaded is not None:
                # the store already ran the full integrity gate; insert
                # first-insertion-wins like a built value
                with self._lock:
                    if key in self._entries:
                        self._entries.move_to_end(key)
                        return self._entries[key]  # type: ignore[return-value]
                    self._entries[key] = loaded
                    if (
                        self.max_entries is not None
                        and len(self._entries) > self.max_entries
                    ):
                        self._entries.popitem(last=False)
                return loaded  # type: ignore[return-value]
        if obs is not None:
            t0 = obs.clock()
        value = builder()
        if obs is not None:
            obs.get_registry().histogram(
                "plan_cache.build_seconds"
            ).observe(obs.clock() - t0)
        _maybe_validate(value)
        if store is not None:
            from repro.exec.plan import ExecutionPlan

            if isinstance(value, ExecutionPlan):
                store.put(value, store_key)
        evicted = False
        with self._lock:
            if key in self._entries:
                # another thread built it while we were; keep the first
                # insertion as the canonical value
                self._entries.move_to_end(key)
                return self._entries[key]  # type: ignore[return-value]
            self._entries[key] = value
            if (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            ):
                self._entries.popitem(last=False)  # least recently used
                evicted = True
        if evicted and obs is not None:
            obs.get_registry().counter("plan_cache.evictions").inc()
        return value

    def put(self, key: Hashable, value: T) -> T:
        """Insert or replace ``key`` directly (no hit/miss accounting).

        For callers that detect a cached value has gone stale (e.g. a
        service re-registering a system key with new inputs) and need to
        swap in a rebuilt artifact; the entry lands at the
        most-recently-used end.
        """
        _maybe_validate(value)
        evicted = False
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            ):
                self._entries.popitem(last=False)
                evicted = True
        if evicted and self._obs is not None:
            self._obs.get_registry().counter("plan_cache.evictions").inc()
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
