"""Per-system serving statistics of a :class:`~repro.service.SolveService`.

A :class:`SystemStats` is an immutable snapshot taken under the service
lock: counters never tear, and derived rates are computed on the frozen
values.  Latency is measured from enqueue to future resolution (what a
client observes); solve time is the kernel-only busy time, so
``throughput_rps`` is the sustained rate the execution backend achieves
for this system when saturated.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SystemStats"]


@dataclass(frozen=True)
class SystemStats:
    """Snapshot of one registered system's serving counters.

    Attributes
    ----------
    key:
        The system's registration key.
    n_rows:
        Problem size of the registered system.
    n_requests:
        Solve requests completed (each RHS counts once, also inside a
        batch).
    n_batches:
        Backend invocations: micro-batched SpTRSM calls plus single-RHS
        solves.
    max_batch_size:
        Largest micro-batch executed so far.
    total_latency_seconds:
        Summed enqueue-to-result latency over all completed requests.
    total_solve_seconds:
        Summed backend busy time over all batches.
    total_queue_wait_seconds:
        Summed enqueue-to-execute wait over all completed requests —
        the head-of-line-blocking component of latency.  Populated
        even without ``REPRO_OBS`` (cheap counter).
    n_deadline_misses:
        Requests failed with
        :class:`~repro.errors.DeadlineExceededError` because their
        deadline passed while queued.
    n_admission_rejections:
        Requests refused at submission time with
        :class:`~repro.errors.AdmissionError` (bounded-queue
        overflow); they never entered the queue.
    latency_hist / batch_hist / queue_wait_hist:
        Histogram snapshots (see :mod:`repro.obs.metrics`) of
        per-request latency, micro-batch size and per-request
        queue wait, populated only when the ``REPRO_OBS`` gate is on —
        ``None`` otherwise.  They feed the ``latency_p50_s``/
        ``latency_p99_s``/``batch_p50``/``batch_p99``/
        ``queue_wait_p50_s``/``queue_wait_p99_s`` properties and the
        matching :meth:`as_row` keys.
    backend:
        Resolved execution-backend name every batch of this system ran
        on (``"numpy"``, ``"numba"``, ``"numba-parallel"``, ...), so
        throughput numbers are attributable to a kernel tier.
    plan_source:
        Where the serving plan's arrays came from: ``"compiled"``
        (this process lowered them) or ``"store"`` (deserialized from
        a :class:`~repro.store.plan_store.PlanStore` artifact behind
        the mandatory ``check_plan`` gate) — so zero-compile cold
        starts are attributable per system.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.service import SolveService
    >>> L = narrow_band_lower(80, 0.2, 5.0, seed=0)
    >>> with SolveService() as svc:
    ...     _ = svc.register("sys", L)
    ...     _ = svc.solve("sys", np.ones(80))
    ...     stats = svc.stats("sys")
    >>> (stats.n_requests, stats.n_rows)
    (1, 80)
    >>> stats.avg_batch_size
    1.0
    """

    key: object
    n_rows: int
    n_requests: int = 0
    n_batches: int = 0
    max_batch_size: int = 0
    total_latency_seconds: float = 0.0
    total_solve_seconds: float = 0.0
    total_queue_wait_seconds: float = 0.0
    n_deadline_misses: int = 0
    n_admission_rejections: int = 0
    backend: str = ""
    plan_source: str = ""
    latency_hist: dict | None = None
    batch_hist: dict | None = None
    queue_wait_hist: dict | None = None

    @staticmethod
    def _percentile(hist: dict | None, q: float) -> float | None:
        if hist is None:
            return None
        # deferred import: only reachable when the obs subsystem built
        # the snapshot, so the gate-off path never loads repro.obs
        from repro.obs.metrics import snapshot_percentile

        return snapshot_percentile(hist, q)

    @property
    def latency_p50_s(self) -> float | None:
        """Median request latency (``None`` without ``REPRO_OBS``)."""
        return self._percentile(self.latency_hist, 0.50)

    @property
    def latency_p99_s(self) -> float | None:
        """p99 request latency (``None`` without ``REPRO_OBS``)."""
        return self._percentile(self.latency_hist, 0.99)

    @property
    def batch_p50(self) -> float | None:
        """Median micro-batch size (``None`` without ``REPRO_OBS``)."""
        return self._percentile(self.batch_hist, 0.50)

    @property
    def batch_p99(self) -> float | None:
        """p99 micro-batch size (``None`` without ``REPRO_OBS``)."""
        return self._percentile(self.batch_hist, 0.99)

    @property
    def queue_wait_p50_s(self) -> float | None:
        """Median enqueue-to-execute wait (``None`` without obs)."""
        return self._percentile(self.queue_wait_hist, 0.50)

    @property
    def queue_wait_p99_s(self) -> float | None:
        """p99 enqueue-to-execute wait (``None`` without obs)."""
        return self._percentile(self.queue_wait_hist, 0.99)

    @property
    def avg_queue_wait_seconds(self) -> float:
        """Mean enqueue-to-execute wait per completed request."""
        return (
            self.total_queue_wait_seconds / self.n_requests
            if self.n_requests
            else 0.0
        )

    @property
    def avg_batch_size(self) -> float:
        """Mean requests per backend invocation (1.0 = no coalescing)."""
        return self.n_requests / self.n_batches if self.n_batches else 0.0

    @property
    def avg_latency_seconds(self) -> float:
        """Mean enqueue-to-result latency per request."""
        return (
            self.total_latency_seconds / self.n_requests
            if self.n_requests
            else 0.0
        )

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of backend busy time."""
        return (
            self.n_requests / self.total_solve_seconds
            if self.total_solve_seconds > 0.0
            else 0.0
        )

    def as_row(self) -> dict[str, object]:
        """Plain-dict view (counters plus derived rates) for tables.

        The six percentile columns (``latency_p50_s``,
        ``latency_p99_s``, ``batch_p50``, ``batch_p99``,
        ``queue_wait_p50_s``, ``queue_wait_p99_s``) appear only when
        the snapshot carries obs histograms (``REPRO_OBS`` on).
        """
        row = {
            "key": self.key,
            "n_rows": self.n_rows,
            "requests": self.n_requests,
            "batches": self.n_batches,
            "avg_batch": self.avg_batch_size,
            "max_batch": self.max_batch_size,
            "avg_latency_s": self.avg_latency_seconds,
            "avg_queue_wait_s": self.avg_queue_wait_seconds,
            "throughput_rps": self.throughput_rps,
            "deadline_misses": self.n_deadline_misses,
            "admission_rejections": self.n_admission_rejections,
            "backend": self.backend,
            "plan_source": self.plan_source,
        }
        if self.latency_hist is not None:
            row["latency_p50_s"] = self.latency_p50_s
            row["latency_p99_s"] = self.latency_p99_s
        if self.batch_hist is not None:
            row["batch_p50"] = self.batch_p50
            row["batch_p99"] = self.batch_p99
        if self.queue_wait_hist is not None:
            row["queue_wait_p50_s"] = self.queue_wait_p50_s
            row["queue_wait_p99_s"] = self.queue_wait_p99_s
        return row
