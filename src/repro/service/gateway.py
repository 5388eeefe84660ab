"""The :class:`ServingGateway`: key-hash sharded SpTRSV serving.

Why shard
---------
A single :class:`~repro.service.SolveService` already coalesces per
system, however clients interleave their keys; what it cannot do is
solve on more than its one worker thread, or bound one group of keys'
backlog apart from another's.  The gateway routes requests by a
**stable hash of the system key** to one of ``n_shards`` independent
:class:`SolveService` shards, each with its own worker thread and its
own ``max_queue`` admission bound.  Every system lives on exactly one
shard, so:

* shards solve concurrently, overlapping wherever the backend's
  kernels release the interpreter lock;
* a burst on one shard's keys fills that shard's bound and delays only
  that shard's other keys.

All shards share one :class:`~repro.exec.PlanCache`, so lowering work
is pooled exactly as with a single service.

Routing is stateless — ``shard_index(key, n_shards)`` is a pure
function of the key's string form, stable across processes and Python
versions (it does not use the seeded builtin ``hash``).  Clients and
operators can therefore compute placement without asking the gateway.

Admission and deadlines are per shard: a bounded ``max_queue`` applies
to each shard's queue independently (overflow raises
:class:`~repro.errors.AdmissionError`), and per-request ``timeout``
deadlines fail futures with
:class:`~repro.errors.DeadlineExceededError` exactly as on a direct
service.

Results are **bit-equal** to a direct :class:`SolveService` (and to
the single-RHS kernels): sharding changes *which queue* a request
waits in, never the arithmetic.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError, ServiceClosedError
from repro.exec import ExecutionPlan, PlanCache
from repro.matrix.csr import CSRMatrix
from repro.service.service import SolveService
from repro.service.stats import SystemStats

__all__ = ["ServingGateway", "pick_balanced_keys", "shard_index"]


def shard_index(key: object, n_shards: int) -> int:
    """Stable shard placement of ``key`` among ``n_shards`` shards.

    Hashes the key's ``str()`` form with BLAKE2s, so placement is
    deterministic across processes and interpreter versions (the
    builtin ``hash`` is seeded per process and would re-shuffle the
    fleet on every restart).  Keys must therefore have distinct string
    forms — the same requirement the obs label layer already imposes.

    Examples
    --------
    >>> shard_index("pressure", 4) == shard_index("pressure", 4)
    True
    >>> 0 <= shard_index("pressure", 4) < 4
    True
    """
    if n_shards < 1:
        raise ConfigurationError(
            f"n_shards must be >= 1, got {n_shards}"
        )
    digest = hashlib.blake2s(
        str(key).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_shards


def pick_balanced_keys(
    n_keys: int,
    shard_counts: int | tuple[int, ...],
    *,
    prefix: str = "sys",
) -> list[str]:
    """Deterministic key names where key ``i`` lands on shard ``i % m``.

    Hash routing does not guarantee that a handful of keys spread
    evenly over a handful of shards; benchmarks and tests that compare
    shard counts need keys that balance under *every* topology being
    compared.  This probes deterministic candidate names
    (``{prefix}-{i}``, then ``{prefix}-{i}.{j}``) until one satisfies
    ``shard_index(key, m) == i % m`` for each ``m`` in
    ``shard_counts`` simultaneously — so the same key set is perfectly
    balanced on, say, both a 2-shard and a 4-shard gateway.

    Examples
    --------
    >>> keys = pick_balanced_keys(4, (2, 4))
    >>> [shard_index(k, 2) for k in keys]
    [0, 1, 0, 1]
    >>> [shard_index(k, 4) for k in keys]
    [0, 1, 2, 3]
    """
    if isinstance(shard_counts, int):
        shard_counts = (shard_counts,)
    if n_keys < 1:
        raise ConfigurationError(f"n_keys must be >= 1, got {n_keys}")
    for m in shard_counts:
        if m < 1:
            raise ConfigurationError(
                f"shard counts must be >= 1, got {m}"
            )
    keys: list[str] = []
    for i in range(n_keys):
        for j in range(100_000):
            candidate = (
                f"{prefix}-{i}" if j == 0 else f"{prefix}-{i}.{j}"
            )
            if all(
                shard_index(candidate, m) == i % m
                for m in shard_counts
            ):
                keys.append(candidate)
                break
        else:  # pragma: no cover - probability ~0 for sane inputs
            raise ConfigurationError(
                f"no balanced key found for slot {i} under "
                f"shard counts {shard_counts}"
            )
    return keys


class ServingGateway:
    """Route keyed solve requests across ``n_shards`` service shards.

    Parameters
    ----------
    n_shards:
        Number of independent :class:`SolveService` shards (each with
        its own queues and worker thread).
    backend, max_batch, max_queue:
        Forwarded to every shard (``max_queue`` bounds each shard's
        queue *independently*).
    plan_cache:
        Shared :class:`~repro.exec.PlanCache`; one private cache is
        created and shared across all shards when omitted, so a system
        is lowered once no matter which shard owns it.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.matrix.generators import erdos_renyi_lower
    >>> from repro.service.gateway import ServingGateway
    >>> L = erdos_renyi_lower(100, 0.05, seed=0)
    >>> with ServingGateway(n_shards=2) as gw:
    ...     _ = gw.register("sys", L)
    ...     x = gw.solve("sys", np.ones(100))
    >>> x.shape
    (100,)
    """

    def __init__(
        self,
        n_shards: int = 2,
        *,
        backend: str | None = None,
        max_batch: int = 64,
        max_queue: int | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        cache = plan_cache if plan_cache is not None else PlanCache()
        self._cache = cache
        self._shards = [
            SolveService(
                backend=backend,
                max_batch=max_batch,
                max_queue=max_queue,
                plan_cache=cache,
            )
            for _ in range(n_shards)
        ]
        self._closed = False

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_of(self, key: object) -> int:
        """The shard index serving ``key`` (pure hash, no lookup)."""
        return shard_index(key, len(self._shards))

    def _shard(self, key: object) -> SolveService:
        if self._closed:
            raise ServiceClosedError(
                "gateway is closed; requests after close() are not "
                "allowed"
            )
        return self._shards[self.shard_of(key)]

    # ------------------------------------------------------------------
    # registration / lifecycle — thin routed wrappers
    # ------------------------------------------------------------------
    def register(
        self,
        key: object,
        matrix: CSRMatrix,
        **kwargs,
    ) -> ExecutionPlan:
        """Register a system on its hash-designated shard.

        Accepts everything :meth:`SolveService.register` does.
        """
        return self._shard(key).register(key, matrix, **kwargs)

    def unregister(self, key: object) -> SystemStats:
        """Remove a system from its shard, returning final stats."""
        # cleanup stays legal on a closed gateway, as on a service
        return self._shards[self.shard_of(key)].unregister(key)

    def systems(self) -> list[object]:
        """Keys of all registered systems across every shard."""
        out: list[object] = []
        for shard in self._shards:
            out.extend(shard.systems())
        return out

    # ------------------------------------------------------------------
    # request paths — routed by key hash
    # ------------------------------------------------------------------
    def submit(self, key: object, b, *, timeout: float | None = None):
        """Enqueue one RHS on ``key``'s shard; returns a future."""
        return self._shard(key).submit(key, b, timeout=timeout)

    def submit_many(
        self, key: object, bs, *, timeout: float | None = None
    ):
        """Enqueue several RHS on ``key``'s shard under one lock."""
        return self._shard(key).submit_many(key, bs, timeout=timeout)

    def solve(
        self, key: object, b, *, timeout: float | None = None
    ) -> np.ndarray:
        """Blocking convenience wrapper: ``submit(key, b).result()``."""
        return self._shard(key).solve(key, b, timeout=timeout)

    def solve_block(self, key: object, b_block) -> np.ndarray:
        """Synchronous SpTRSM on ``key``'s shard (bypasses the queue)."""
        return self._shard(key).solve_block(key, b_block)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self, key: object | None = None):
        """One :class:`SystemStats` for ``key``, or a merged
        ``{key: SystemStats}`` dict over every shard's systems."""
        if key is not None:
            return self._shards[self.shard_of(key)].stats(key)
        merged: dict[object, SystemStats] = {}
        for shard in self._shards:
            merged.update(shard.stats())
        return merged

    def shard_stats(self) -> "list[dict[object, SystemStats]]":
        """Per-shard stats dicts, indexed by shard — the balance view."""
        return [shard.stats() for shard in self._shards]

    @property
    def pending(self) -> int:
        """Total queued requests across all shards."""
        return sum(shard.pending for shard in self._shards)

    @property
    def pending_per_shard(self) -> list[int]:
        """Queue depth of each shard (balance / saturation probe)."""
        return [shard.pending for shard in self._shards]

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache shared by every shard."""
        return self._cache

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Close every shard (each drains its queue first).  Idempotent."""
        self._closed = True
        for shard in self._shards:
            shard.close(wait=wait)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServingGateway(n_shards={len(self._shards)}, "
            f"systems={len(self.systems())}, pending={self.pending}, "
            f"closed={self._closed})"
        )
