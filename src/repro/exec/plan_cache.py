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
                 "_obs")

    def __init__(self, *, max_entries: int | None = None) -> None:
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

    def get_or_build(self, key: Hashable, builder: Callable[[], T]) -> T:
        """Return the cached value for ``key``, building it on first use.

        The builder runs without holding the cache lock; concurrent
        callers racing on the same key may build twice, and the first
        insertion wins (builders must be pure).
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
            t0 = obs.clock()
        value = builder()
        if obs is not None:
            obs.get_registry().histogram(
                "plan_cache.build_seconds"
            ).observe(obs.clock() - t0)
        _maybe_validate(value)
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
