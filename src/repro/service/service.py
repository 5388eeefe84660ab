"""The :class:`SolveService`: keyed, coalescing, concurrent SpTRSV serving.

Architecture
------------
Clients call :meth:`SolveService.submit` (or the blocking
:meth:`~SolveService.solve`) with a system key and a single right-hand
side; they get a :class:`concurrent.futures.Future` back.  Waiting
requests queue per system, and a dedicated worker thread serves the
systems with waiting requests in turn: up to ``max_batch`` of one
system's requests become one micro-batch, column-stacked into an
``(n, k)`` block and executed with a single
:meth:`~repro.exec.backends.ExecutionBackend.solve_block` call — one
sweep over the plan's dependency layers for all ``k`` clients.  A
system that still has requests waiting goes to the back of the turn
order.  So requests coalesce however clients interleave their systems,
each system's requests run in its submission order, and a system with
waiting requests is served within one batch per other waiting system.

Numerically the batched path is *bit-equal* to solving each request
alone: the block kernel accumulates each column's contributions in the
same order as the single-RHS kernel (the oracle test pins this down).

Plans are compiled once per registered system through a shared
thread-safe :class:`~repro.exec.PlanCache` — pass the same cache to
several services (or to the experiment runner) to share lowering work
across consumers.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from contextlib import nullcontext

import numpy as np

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineExceededError,
    MatrixFormatError,
    ServiceClosedError,
)
from repro.exec import (
    ExecutionBackend,
    ExecutionPlan,
    PlanCache,
    compile_plan,
    get_backend,
)
from repro.matrix.csr import CSRMatrix
from repro.obs_gate import get_obs
from repro.service.stats import SystemStats

__all__ = ["SolveService"]

#: Bucket spec for the per-system batch-size histogram (``REPRO_OBS``):
#: batch sizes are small integers, so the latency default (1e-7..1e4 s)
#: would waste resolution.  Shared constants keep every shard's spec
#: identical — the precondition for snapshot merging.
_BATCH_HIST_SPEC = {"lo": 0.5, "hi": 4096.0, "per_decade": 16}


class _System:
    """A registered solve target: one compiled plan plus live counters."""

    __slots__ = (
        "key",
        "plan",
        "n_requests",
        "n_batches",
        "max_batch_size",
        "total_latency_seconds",
        "total_solve_seconds",
        "total_queue_wait_seconds",
        "n_deadline_misses",
        "n_admission_rejections",
        "latency_hist",
        "batch_hist",
        "queue_wait_hist",
    )

    def __init__(self, key: object, plan: ExecutionPlan) -> None:
        self.key = key
        self.plan = plan
        self.n_requests = 0
        self.n_batches = 0
        self.max_batch_size = 0
        self.total_latency_seconds = 0.0
        self.total_solve_seconds = 0.0
        #: Cheap always-on counters: summed enqueue-to-execute wait,
        #: deadline-failed requests and admission-rejected submissions.
        #: These stay populated with ``REPRO_OBS`` off — head-of-line
        #: blocking must be visible in plain ``stats()`` output.
        self.total_queue_wait_seconds = 0.0
        self.n_deadline_misses = 0
        self.n_admission_rejections = 0
        #: Obs histograms (``REPRO_OBS`` on), else None — live in the
        #: process registry under ``system=<key>`` labels.
        self.latency_hist = None
        self.batch_hist = None
        self.queue_wait_hist = None

    def snapshot(self, backend: str = "") -> SystemStats:
        return SystemStats(
            key=self.key,
            n_rows=self.plan.n,
            n_requests=self.n_requests,
            n_batches=self.n_batches,
            max_batch_size=self.max_batch_size,
            total_latency_seconds=self.total_latency_seconds,
            total_solve_seconds=self.total_solve_seconds,
            total_queue_wait_seconds=self.total_queue_wait_seconds,
            n_deadline_misses=self.n_deadline_misses,
            n_admission_rejections=self.n_admission_rejections,
            backend=backend,
            plan_source=getattr(self.plan, "provenance", "compiled"),
            latency_hist=(
                self.latency_hist._snapshot()
                if self.latency_hist is not None else None
            ),
            batch_hist=(
                self.batch_hist._snapshot()
                if self.batch_hist is not None else None
            ),
            queue_wait_hist=(
                self.queue_wait_hist._snapshot()
                if self.queue_wait_hist is not None else None
            ),
        )


class _Request:
    __slots__ = ("system", "b", "future", "enqueued_at", "deadline")

    def __init__(
        self,
        system: _System,
        b: np.ndarray,
        future: Future,
        enqueued_at: float,
        deadline: float | None = None,
    ) -> None:
        self.system = system
        self.b = b
        self.future = future
        self.enqueued_at = enqueued_at
        #: Absolute ``perf_counter`` instant after which the worker
        #: fails this request instead of executing it (None: no bound).
        self.deadline = deadline

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


def _fail_unresolved(requests: list[_Request], exc: Exception) -> None:
    """Fail every future of ``requests`` that is not yet resolved."""
    for request in requests:
        future = request.future
        if future.done():
            continue
        # a queued future moves to RUNNING first, unless its client
        # cancelled it; a RUNNING one can no longer be cancelled
        if future.running() or future.set_running_or_notify_cancel():
            future.set_exception(exc)


class SolveService:
    """Serve keyed triangular-solve requests with micro-batching.

    Parameters
    ----------
    backend:
        Execution backend name or instance (default: auto-selected, see
        :func:`repro.exec.get_backend`).
    max_batch:
        Largest micro-batch the worker coalesces into one
        ``solve_block`` call.
    max_queue:
        Admission bound: largest number of requests allowed to wait at
        once, over all systems (default None: unbounded).  A submission
        that would overflow it raises
        :class:`~repro.errors.AdmissionError` immediately — enqueueing
        nothing — so sustained overload surfaces as backpressure
        instead of unbounded memory growth and tail latency.
    plan_cache:
        Shared thread-safe :class:`~repro.exec.PlanCache` used to lower
        registered systems; a private cache is created when omitted.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.matrix.generators import erdos_renyi_lower
    >>> from repro.service import SolveService
    >>> L = erdos_renyi_lower(100, 0.05, seed=0)
    >>> with SolveService() as svc:
    ...     _ = svc.register("sys", L)
    ...     x = svc.solve("sys", np.ones(100))
    >>> x.shape
    (100,)
    """

    def __init__(
        self,
        *,
        backend: str | None = None,
        max_batch: int = 64,
        max_queue: int | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1 (or None)")
        self._backend = get_backend(backend)
        self._max_batch = int(max_batch)
        self._max_queue = int(max_queue) if max_queue is not None else None
        self._cache = plan_cache if plan_cache is not None else PlanCache()
        #: The obs module when ``REPRO_OBS`` is on, else None.  Captured
        #: once: per-request paths test one attribute instead of
        #: re-reading the environment.
        self._obs = get_obs()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._systems: dict[object, _System] = {}
        #: Waiting requests, one deque per system, in submission order.
        #: The dict's insertion order is the systems' turn order; a take
        #: drops a system whose deque it empties.
        self._waiting: dict[_System, deque[_Request]] = {}
        self._n_waiting = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="repro-solve-service", daemon=True
        )
        self._worker.start()

    def _make_system(self, key: object, plan: ExecutionPlan) -> _System:
        """Build a system record, attaching obs histograms when enabled."""
        system = _System(key, plan)
        if self._obs is not None:
            registry = self._obs.get_registry()
            system.latency_hist = registry.histogram(
                "service.request_latency_seconds", system=str(key)
            )
            system.batch_hist = registry.histogram(
                "service.batch_size", system=str(key), **_BATCH_HIST_SPEC
            )
            system.queue_wait_hist = registry.histogram(
                "service.queue_wait_seconds", system=str(key)
            )
        return system

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        key: object,
        matrix: CSRMatrix,
        *,
        direction: str = "forward",
        plan: ExecutionPlan | None = None,
    ) -> ExecutionPlan:
        """Register ``matrix`` as a solve target under ``key``.

        The matrix is lowered to its level-set plan — one batch per
        dependency level — through the shared plan cache (cache key
        ``("__service__", key, direction)``), so re-creating a service —
        or running several — over the same cache compiles each system
        once.  A cached plan is only reused when it was compiled for
        *this* ``matrix`` object; re-registering a key with a different
        matrix compiles fresh instead of silently serving the stale
        plan.  Pass a precompiled ``plan`` to bypass the cache (it is
        validated against ``matrix``).  Singular systems are rejected
        here, at registration, never in the worker thread.  Returns the
        compiled plan.
        """
        if plan is not None:
            plan.require_compatible(matrix.n, direction)
            if plan.matrix is not matrix:
                raise MatrixFormatError(
                    "precompiled plan was built from a different matrix "
                    "than the one being registered"
                )
        else:
            cache_key = ("__service__", key, direction)
            plan = self._cache.get_or_build(
                cache_key, lambda: compile_plan(matrix, direction=direction)
            )
            if plan.matrix is not matrix:
                # cache hit for a different system under the same key:
                # compile fresh and replace the stale entry, so repeat
                # registrations of the new system hit again
                plan = self._cache.put(
                    cache_key, compile_plan(matrix, direction=direction)
                )
        plan.require_solvable()
        with self._cond:
            if self._closed:
                raise ConfigurationError(
                    "service is closed; register() after close() is not "
                    "allowed"
                )
            self._systems[key] = self._make_system(key, plan)
        return plan

    def unregister(self, key: object) -> SystemStats:
        """Remove a registered system, returning its final stats.

        Long-running services register and retire many systems; without
        this, the system table (and every pinned plan) grows without
        bound.  Requests already queued for the system still complete —
        they hold their own reference — but new submissions raise
        :class:`~repro.errors.ConfigurationError`.  Unknown keys raise;
        unregistering is allowed after :meth:`close` (cleanup is always
        safe).
        """
        with self._cond:
            system = self._require_system(key)
            del self._systems[key]
            return system.snapshot(self._backend.name)

    def systems(self) -> list[object]:
        """Keys of all registered systems."""
        with self._cond:
            return list(self._systems)

    # ------------------------------------------------------------------
    # request paths
    # ------------------------------------------------------------------
    def submit(
        self, key: object, b: np.ndarray, *, timeout: float | None = None
    ) -> "Future[np.ndarray]":
        """Enqueue one right-hand side; returns a future for ``x``.

        ``timeout`` (seconds, finite and positive) sets the request's
        deadline: if the worker has not *started executing* it within
        the bound, the future fails with
        :class:`~repro.errors.DeadlineExceededError` instead of the
        expired request occupying a batch slot.
        """
        return self.submit_many(key, [b], timeout=timeout)[0]

    def submit_many(
        self,
        key: object,
        bs: list[np.ndarray] | np.ndarray,
        *,
        timeout: float | None = None,
    ) -> "list[Future[np.ndarray]]":
        """Enqueue several right-hand sides under one lock acquisition.

        Admission is all-or-nothing: when a ``max_queue`` bound is
        configured and the whole batch does not fit, the submission
        raises :class:`~repro.errors.AdmissionError` and enqueues
        nothing.  ``timeout`` (seconds) applies per request, measured
        from enqueue (see :meth:`submit`).
        """
        if timeout is not None and not (
            math.isfinite(timeout) and timeout > 0.0
        ):
            raise ConfigurationError(
                f"timeout must be positive and finite (seconds), got "
                f"{timeout}"
            )
        system, checked = None, []
        with self._cond:
            if self._closed:
                raise ServiceClosedError(
                    "service is closed; submit() after close() is not "
                    "allowed"
                )
            system = self._require_system(key)
        for b in bs:
            try:
                checked.append(
                    ExecutionBackend._check_rhs(system.plan, b)
                )
            except MatrixFormatError as exc:
                raise MatrixFormatError(f"system {key!r}: {exc}") from None
        futures: list[Future] = []
        now = time.perf_counter()
        deadline = now + timeout if timeout is not None else None
        with self._cond:
            if self._closed:
                raise ServiceClosedError(
                    "service is closed; submit() after close() is not "
                    "allowed"
                )
            if (
                self._max_queue is not None
                and self._n_waiting + len(checked) > self._max_queue
            ):
                system.n_admission_rejections += len(checked)
                depth = self._n_waiting
                if self._obs is not None:
                    self._obs.get_registry().counter(
                        "service.admission_rejections", system=str(key)
                    ).inc(len(checked))
                raise AdmissionError(
                    f"system {key!r}: queue full ({depth} waiting, "
                    f"bound {self._max_queue}); rejected "
                    f"{len(checked)} request(s)"
                )
            queue = self._waiting.setdefault(system, deque())
            for b in checked:
                fut: Future = Future()
                queue.append(_Request(system, b, fut, now, deadline))
                futures.append(fut)
            self._n_waiting += len(checked)
            self._cond.notify()
        if self._obs is not None:
            self._obs.event(
                "service.enqueue", system=str(key), n=len(checked)
            )
        return futures

    def solve(
        self, key: object, b: np.ndarray, *, timeout: float | None = None
    ) -> np.ndarray:
        """Blocking convenience wrapper: ``submit(key, b).result()``."""
        return self.submit(key, b, timeout=timeout).result()

    def solve_block(self, key: object, b_block: np.ndarray) -> np.ndarray:
        """Synchronous SpTRSM against a registered system.

        Bypasses the queue (the caller already has its batch) but is
        recorded in the same per-system statistics as one batch of
        ``k`` requests.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosedError(
                    "service is closed; solve_block() after close() is "
                    "not allowed"
                )
            system = self._require_system(key)
        try:
            b_block = ExecutionBackend._check_rhs_block(system.plan,
                                                        b_block)
        except MatrixFormatError as exc:
            raise MatrixFormatError(f"system {key!r}: {exc}") from None
        t0 = time.perf_counter()
        x_block = self._backend.solve_block(system.plan, b_block)
        elapsed = time.perf_counter() - t0
        k = b_block.shape[1]
        with self._cond:
            self._record(system, k, elapsed, elapsed * k,
                         latencies=[elapsed] * k,
                         queue_waits=[0.0] * k)
        return x_block

    def _require_system(self, key: object) -> _System:
        try:
            return self._systems[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown system {key!r}; registered: "
                f"{sorted(map(repr, self._systems))}"
            ) from None

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self, key: object | None = None):
        """Stats snapshot: one :class:`SystemStats` for ``key``, or a
        ``{key: SystemStats}`` dict over all registered systems.  Every
        snapshot carries the resolved backend name, so reported solve
        times and throughputs are attributable to a kernel tier."""
        name = self._backend.name
        with self._cond:
            if key is not None:
                return self._require_system(key).snapshot(name)
            return {k: s.snapshot(name) for k, s in self._systems.items()}

    @property
    def plan_cache(self) -> PlanCache:
        """The (shared) plan cache lowering registered systems."""
        return self._cache

    @property
    def pending(self) -> int:
        """Requests waiting for the worker, over all systems (not yet
        executing)."""
        with self._cond:
            return self._n_waiting

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Stop accepting requests; the worker drains the queue first.

        Idempotent.  With ``wait`` (default) blocks until every pending
        future is resolved and the worker has exited.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if wait:
            self._worker.join()
        if self._obs is not None:
            # persist metrics + trace so `repro obs report` works right
            # after a service run; the snapshot is cumulative, so a
            # repeat close() just rewrites a superset
            self._obs.flush()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._waiting and not self._closed:
                    self._cond.wait()
                if not self._waiting:  # closed and drained
                    return
                batch, expired = self._take_batch_locked()
                self._n_waiting -= len(batch) + len(expired)
            try:
                if expired:
                    self._expire(expired)
                if batch:
                    self._execute(batch)
            except Exception as exc:
                # the worker outlives any fault in handling a batch:
                # every request it took still resolves, with the error
                _fail_unresolved(expired + batch, exc)

    def _take_batch_locked(
        self,
    ) -> tuple[list[_Request], list[_Request]]:
        """Take up to ``max_batch`` live requests of the next system.

        The system at the front of the turn order gives its oldest
        requests; it goes to the back if it still has requests waiting.
        Requests whose deadline has already passed are swept into the
        second returned list instead of occupying batch slots, so an
        expired request cannot split a batch.  Costs O(batch), whatever
        the number of waiting requests.
        """
        system = next(iter(self._waiting))
        queue = self._waiting.pop(system)
        now = time.perf_counter()
        batch: list[_Request] = []
        expired: list[_Request] = []
        while queue and len(batch) < self._max_batch:
            request = queue.popleft()
            if request.expired(now):
                expired.append(request)
            else:
                batch.append(request)
        if queue:
            self._waiting[system] = queue
        return batch, expired

    def _expire(self, expired: list[_Request]) -> None:
        """Fail swept requests with :class:`DeadlineExceededError`."""
        failed: dict[_System, int] = {}
        for request in expired:
            if not request.future.set_running_or_notify_cancel():
                continue  # client cancelled first; nothing to report
            request.future.set_exception(
                DeadlineExceededError(
                    f"system {request.system.key!r}: deadline passed "
                    "before the request reached execution"
                )
            )
            failed[request.system] = failed.get(request.system, 0) + 1
        if not failed:
            return
        with self._cond:
            for system, n in failed.items():
                system.n_deadline_misses += n
        if self._obs is not None:
            registry = self._obs.get_registry()
            for system, n in failed.items():
                registry.counter(
                    "service.deadline_misses", system=str(system.key)
                ).inc(n)

    def _execute(self, batch: list[_Request]) -> None:
        # transition every future to RUNNING; drop the ones a client
        # cancelled while queued.  After this point cancel() can no
        # longer win, so set_result below cannot raise
        # InvalidStateError.
        batch = [
            r for r in batch if r.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        system = batch[0].system
        span = (
            self._obs.span(
                "service.batch",
                system=str(system.key),
                batch_size=len(batch),
            )
            if self._obs is not None
            else nullcontext()
        )
        # a backend error propagates to _run, which fails the batch
        with span:
            t0 = time.perf_counter()
            if len(batch) == 1:
                results = [self._backend.solve(system.plan, batch[0].b)]
            else:
                b_block = np.stack([r.b for r in batch], axis=1)
                x_block = self._backend.solve_block(system.plan, b_block)
                results = [
                    np.ascontiguousarray(x_block[:, j])
                    for j in range(len(batch))
                ]
            done = time.perf_counter()
        # record stats *before* resolving the futures: a client woken by
        # result() must observe counters that include its own request
        # (latency is therefore measured to just before resolution)
        latencies = [done - r.enqueued_at for r in batch]
        queue_waits = [t0 - r.enqueued_at for r in batch]
        with self._cond:
            self._record(
                system,
                len(batch),
                done - t0,
                sum(latencies),
                latencies=latencies,
                queue_waits=queue_waits,
            )
        for request, x in zip(batch, results, strict=True):
            request.future.set_result(x)

    def _record(
        self,
        system: _System,
        batch_size: int,
        solve_seconds: float,
        latency_seconds: float,
        *,
        latencies: list[float] | None = None,
        queue_waits: list[float] | None = None,
    ) -> None:
        """Update one system's counters; caller holds the lock."""
        system.n_requests += batch_size
        system.n_batches += 1
        system.max_batch_size = max(system.max_batch_size, batch_size)
        system.total_solve_seconds += solve_seconds
        system.total_latency_seconds += latency_seconds
        if queue_waits:
            system.total_queue_wait_seconds += sum(queue_waits)
        if system.batch_hist is not None:
            system.batch_hist.observe(batch_size)
            if latencies:
                for latency in latencies:
                    system.latency_hist.observe(latency)
            if queue_waits:
                for wait in queue_waits:
                    system.queue_wait_hist.observe(wait)

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"SolveService(systems={len(self._systems)}, "
                f"pending={self._n_waiting}, backend="
                f"{self._backend.name!r}, closed={self._closed})"
            )
