"""Span recorder for traced benchmark runs, and per-layer self times.

A span is one call from the benchmark into a layer's public function:
a name, a start, an end, the span that caused it and, for served
requests, a request id.  Spans stay in memory and are written out once,
when the run ends.

A span's *self time* is its duration minus the part of its interval
covered by its children, taken as the union of the children's
intervals so that overlapping children are not counted twice.

Root spans (no parent) mark the benchmark's own units of work: one
set-up, one measured operation, one traffic phase.  A layer's metric is
the median, over the roots it ran in, of the self time its spans spent
inside that root — so ``exec.compile_s`` is compile time per set-up and
``exec.solve_s`` is solve time per measured operation.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "layer_times", "self_times", "union_length"]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    #: Optional sub-label (a matrix shape); layer metrics get a
    #: ``<name>_s.<key>`` breakdown for keyed spans.
    key: str | None = None
    request: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when ``enabled``; otherwise every call is a no-op.

    Nesting is tracked per thread, so spans opened on the load
    generator never become parents of spans on another thread.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, *, key: str | None = None):
        """Context manager timing one call; yields the span id."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, key)

    @contextmanager
    def _span(self, name: str, key: str | None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, key))

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        request: int | None = None,
    ) -> None:
        """Add a span timed elsewhere, such as a request that resolved
        on a service worker thread."""
        if self.enabled:
            self.spans.append(
                Span(next(self._ids), name, start, end, parent,
                     request=request)
            )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    covered = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        covered += hi - lo
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span's own interval)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
            if min(c.end, span.end) > max(c.start, span.start)
        ]
        out[span.id] = span.duration - union_length(clipped)
    return out


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics: ``<name>_s`` (and ``<name>_s.<key>`` for keyed
    spans) is the median over root spans of the layer's summed self
    time inside that root.  Roots themselves are not layers."""
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    root_of: dict[int, int] = {}

    def find_root(span: Span) -> int:
        path = []
        while span.parent is not None and span.id not in root_of:
            path.append(span.id)
            span = by_id[span.parent]
        root = root_of.get(span.id, span.id)
        for span_id in path:
            root_of[span_id] = root
        return root

    per_root: dict[int, dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span in spans:
        if span.parent is None:
            continue
        sums = per_root[find_root(span)]
        sums[f"{span.name}_s"] += own[span.id]
        if span.key is not None:
            sums[f"{span.name}_s.{span.key}"] += own[span.id]
    samples: dict[str, list[float]] = defaultdict(list)
    for sums in per_root.values():
        for metric, value in sums.items():
            samples[metric].append(value)
    return {
        metric: statistics.median(values)
        for metric, values in samples.items()
    }
