"""Observability: process-wide metrics registry + structured tracing.

The subsystem every serving-era feature reports through — the fleet's
eyes.  Three pieces:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges and latency histograms.  Histograms use **fixed
  log-spaced buckets**, so percentiles are mergeable across service
  shards and suite workers: merging two snapshots gives bit-identical
  bucket counts to observing the union in one registry.
* :mod:`repro.obs.trace` — lightweight ``span(name, **tags)`` context
  managers emitting append-only JSONL events with parent/child ids
  (request enqueue → coalesce → backend solve, plan compile/verify,
  plan-store save/load).
* :mod:`repro.obs.export` — JSON report + Prometheus text rendering of
  a snapshot, behind the ``repro obs`` CLI.

Everything is **off by default**: instrumented call sites reach this
module only through :mod:`repro.obs_gate` (``REPRO_OBS=1``), and with
the gate off ``import repro`` never imports this package — the
zero-overhead contract asserted in ``benchmarks/test_exec_plan_bench``.

State is process-global on purpose (one registry, one tracer), so a
service, its tuner and the plan cache all land in a single snapshot;
:func:`flush` persists both halves atomically into ``REPRO_OBS_DIR``
(default ``.repro-obs``) for ``repro obs report|tail|export``.

Examples
--------
>>> from repro import obs
>>> reg = obs.MetricsRegistry()
>>> reg.counter("demo.requests").inc(3)
>>> reg.counter("demo.requests").value
3.0
>>> h = reg.histogram("demo.latency_seconds")
>>> for v in (0.001, 0.002, 0.004):
...     h.observe(v)
>>> h.count
3
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    snapshot_percentile,
)
from repro.obs.trace import Span, Tracer
from repro.obs_gate import OBS_DIR_ENV_VAR
from repro.utils.atomic import atomic_write_json

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "clock",
    "default_dir",
    "event",
    "flush",
    "get_registry",
    "get_tracer",
    "merge_snapshots",
    "reset",
    "scoped_registry",
    "snapshot_percentile",
    "span",
]

#: Default flush directory when ``REPRO_OBS_DIR`` is unset.
DEFAULT_DIR = ".repro-obs"

#: File names :func:`flush` writes inside the obs directory.
METRICS_FILE = "metrics.json"
TRACE_FILE = "trace.jsonl"

_REGISTRY = MetricsRegistry()
_TRACER = Tracer()

#: Re-exported monotonic clock for gate-protected call sites: hot-path
#: modules (``repro/exec/``) may not read clocks directly (the
#: ``direct-timing-in-hot-path`` lint rule) — timing there runs as
#: ``obs.clock()`` behind ``get_obs()``, which is free when disabled.
clock = time.perf_counter


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, **tags: object):
    """A span on the process-wide tracer (see :meth:`Tracer.span`)."""
    return _TRACER.span(name, **tags)


def event(name: str, **tags: object) -> None:
    """A zero-duration event on the process-wide tracer."""
    _TRACER.event(name, **tags)


def reset() -> None:
    """Swap in a fresh registry and tracer (test isolation)."""
    global _REGISTRY, _TRACER
    _REGISTRY = MetricsRegistry()
    _TRACER = Tracer()


@contextmanager
def scoped_registry():
    """Temporarily swap the process-wide registry for a fresh one.

    The parallel-suite workers use this to produce **per-shard**
    snapshots: metrics recorded inside the scope land in the scoped
    registry only, the caller snapshots it, and the parent merges the
    per-shard snapshots in instance order — deterministic no matter
    which worker finished first.  Yields the fresh registry; the
    previous one is restored on exit.
    """
    global _REGISTRY
    previous = _REGISTRY
    scoped = MetricsRegistry()
    _REGISTRY = scoped
    try:
        yield scoped
    finally:
        _REGISTRY = previous


def default_dir() -> str:
    """The flush directory: ``$REPRO_OBS_DIR`` or ``.repro-obs``."""
    return os.environ.get(OBS_DIR_ENV_VAR) or DEFAULT_DIR


def flush(directory: str | os.PathLike | None = None) -> dict[str, str]:
    """Persist the registry snapshot and trace atomically.

    Writes ``metrics.json`` (the :meth:`MetricsRegistry.snapshot`
    payload) and ``trace.jsonl`` (one completed span per line) into
    ``directory`` (default :func:`default_dir`), each through
    :mod:`repro.utils.atomic` so readers never observe a torn file.
    The global state keeps accumulating — flushing twice writes a
    superset, so "latest file wins" is always correct.  Returns the
    paths written.
    """
    directory = os.fspath(directory if directory is not None
                          else default_dir())
    os.makedirs(directory, exist_ok=True)
    metrics_path = os.path.join(directory, METRICS_FILE)
    trace_path = os.path.join(directory, TRACE_FILE)
    atomic_write_json(_REGISTRY.snapshot(), metrics_path)
    _TRACER.flush_jsonl(trace_path)
    return {"metrics": metrics_path, "trace": trace_path}
