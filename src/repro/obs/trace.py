"""Structured tracing: nested spans flushed as append-only JSONL.

A :class:`Tracer` hands out :class:`Span` context managers.  Each span
records a monotonic duration, a process-unique id, and the id of the
span it was opened inside (per-thread parent stack), so a flushed trace
reconstructs the causal tree: request enqueue → batch coalesce →
backend solve in the service, compile → lower → verify in exec, one
span per plan-store save or load.

Completed spans buffer in memory; :meth:`Tracer.flush_jsonl` rewrites
the whole file through :func:`repro.utils.atomic.atomic_write_text`, so
a reader (``repro obs tail``) never sees a torn line and re-flushing is
idempotent — the buffer only grows, and the newest file is a superset
of every earlier one.

Examples
--------
>>> from repro.obs.trace import Tracer
>>> tracer = Tracer()
>>> with tracer.span("service.batch", system="demo") as sp:
...     with tracer.span("exec.solve"):
...         pass
...     sp.tag(batch_size=4)
>>> [e["name"] for e in tracer.events()]
['exec.solve', 'service.batch']
>>> inner, outer = tracer.events()
>>> inner["parent_id"] == outer["span_id"]
True
>>> outer["tags"]["batch_size"]
4
"""

from __future__ import annotations

import itertools
import json
import threading
import time

from repro.utils.atomic import atomic_write_text

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, tagged unit of work.  Use as a context manager; spans
    nest per-thread, and a span opened inside another records that
    span's id as its ``parent_id``."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "tags",
                 "_t0", "_wall0", "status")

    def __init__(self, tracer: Tracer, name: str,
                 tags: dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = next(tracer._ids)
        self.parent_id: int | None = None
        self.tags = tags
        self._t0 = 0.0
        self._wall0 = 0.0
        self.status = "ok"

    def tag(self, **tags: object) -> None:
        """Attach tags discovered mid-span (e.g. batch size, rows
        merged) — they land in the emitted event alongside the tags
        passed at open."""
        self.tags.update(tags)

    def __enter__(self) -> Span:
        stack = self._tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = time.perf_counter() - self._t0
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.status = "error"
            self.tags.setdefault("error", exc_type.__name__)
        self._tracer._emit({
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": threading.get_ident(),
            "ts": self._wall0,
            "dur_s": dur,
            "status": self.status,
            "tags": self.tags,
        })


class Tracer:
    """Process-wide span factory and event buffer."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **tags: object) -> Span:
        """A new span named ``name`` with initial ``tags``."""
        return Span(self, name, dict(tags))

    def event(self, name: str, **tags: object) -> None:
        """A zero-duration point event (requests enqueued) parented
        under the current span, if any."""
        stack = self._stack()
        self._emit({
            "name": name,
            "span_id": next(self._ids),
            "parent_id": stack[-1].span_id if stack else None,
            "thread": threading.get_ident(),
            "ts": time.time(),
            "dur_s": 0.0,
            "status": "ok",
            "tags": dict(tags),
        })

    def _emit(self, payload: dict) -> None:
        with self._lock:
            self._events.append(payload)

    def events(self) -> list[dict]:
        """Completed events in completion order (a copy)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def flush_jsonl(self, path: str) -> int:
        """Atomically write every buffered event as JSONL; returns the
        event count.  The buffer is retained, so each flush writes a
        superset of the previous one."""
        events = self.events()
        text = "".join(
            json.dumps(e, sort_keys=True, default=str) + "\n"
            for e in events
        )
        atomic_write_text(path, text)
        return len(events)
