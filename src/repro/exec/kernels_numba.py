"""Shared numba kernel tier: JIT sweeps over a plan's flat arrays.

The module defines exactly four kernels, all operating on the flat arrays
of an :class:`~repro.exec.plan.ExecutionPlan`:

* :func:`_sweep` / :func:`_sweep_block` — sequential scalar sweep over a
  *position span* ``[lo, hi)``.  With ``lo=0, hi=n`` this is the whole
  sequential solve (the ``numba`` backend); with a span covering a run
  of consecutive small batches (a sequential span of
  :func:`~repro.exec.backends.fused_dispatch`) it is the fused
  multi-layer kernel of the ``numba-parallel`` backend — a run of
  dependency batches is, by construction, nothing but a sequential sweep
  over their positions.
* :func:`_psweep` / :func:`_psweep_block` — ``prange`` over the rows of
  one dependency batch (a parallel span of ``fused_dispatch``); rows
  within a batch are mutually independent, so the parallel loop carries
  no dependencies.

All four share one scalar accumulation order (sum the off-diagonal
products, then subtract once), so every kernel in the tier — sequential,
parallel, fused, single-RHS and block — produces bitwise identical
results (no ``fastmath``, no reassociation).  Relative to
:class:`~repro.exec.backends.NumpyBackend` the results agree bit for bit
on its scalar spans and rank-summed batches, which add in this order,
and to rounding on its ``np.add.reduceat`` batches (NumPy 2.x
pairwise/SIMD summation follows an architecture-dependent reduction
order that scalar code cannot portably replicate); the cross-backend
property tests pin that contract.

The kernels are plain Python functions, JIT-wrapped lazily by
:func:`jit_kernels` — so this module imports (and the kernels run,
interpreted) without numba installed, which keeps the kernel logic
testable everywhere.  :class:`~repro.exec.backends.NumpyBackend` runs
the interpreted :func:`_sweep` itself, over memoryviews, for runs of
low-work dependency batches, where it is faster than one vectorized
numpy call per batch.

Persistent JIT cache
--------------------
``cache=True`` artifacts are redirected to a stable per-content cache
directory (:func:`jit_cache_dir`) keyed like the
:class:`~repro.exec.plan_cache.PlanCache` memoizes plans: a digest of
this module's source plus the numba/NumPy/Python versions
(:func:`jit_cache_key`).  Any of those changing switches to a fresh
directory instead of serving stale machine code.  A warm process
therefore never recompiles: :func:`warm_kernels` touches every kernel
signature once and :func:`jit_compile_stats` reports the compile count
(``tests/test_kernels_parallel.py`` asserts it is zero in a second
process).
``REPRO_JIT_CACHE_DIR`` overrides the cache base; a user-set
``NUMBA_CACHE_DIR`` is always respected.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.errors import BackendUnavailableError
from repro.obs_gate import get_obs

__all__ = [
    "JIT_CACHE_ENV_VAR",
    "have_numba",
    "jit_cache_dir",
    "jit_cache_key",
    "jit_compile_stats",
    "jit_kernels",
    "warm_kernels",
]

#: Environment variable overriding the persistent JIT cache base directory.
JIT_CACHE_ENV_VAR = "REPRO_JIT_CACHE_DIR"

try:  # one import probe per process; kernels fall back to interpreted mode
    from numba import prange

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - env-dependent
    prange = range
    _HAVE_NUMBA = False


def have_numba() -> bool:
    """Whether numba importable here (decided once per process).

    Examples
    --------
    >>> from repro.exec.kernels_numba import have_numba
    >>> have_numba() in (True, False)
    True
    """
    return _HAVE_NUMBA


# ---------------------------------------------------------------------------
# kernel sources (plain Python; jit_kernels() wraps them)
# ---------------------------------------------------------------------------
def _sweep(rows, off_ptr, off_cols, off_vals, diag, b, x, lo, hi):
    """Sequential scalar sweep over positions ``[lo, hi)`` of the plan.

    Position order is a topological execution order, so a straight loop
    is correct for any span aligned to batch boundaries — the whole plan
    (sequential backend) or one fused run of small batches.
    """
    for k in range(lo, hi):
        i = rows[k]
        s = 0.0
        for t in range(off_ptr[k], off_ptr[k + 1]):
            s += off_vals[t] * x[off_cols[t]]
        x[i] = (b[i] - s) / diag[k]


def _sweep_block(rows, off_ptr, off_cols, off_vals, diag, b, x, lo, hi):
    """Block (SpTRSM) variant of :func:`_sweep`: ``b``/``x`` are (n, k).

    Each column runs the exact scalar recurrence of :func:`_sweep`, which
    is what makes block columns bit-equal to single-RHS solves."""
    width = b.shape[1]
    for k in range(lo, hi):
        i = rows[k]
        for c in range(width):
            s = 0.0
            for t in range(off_ptr[k], off_ptr[k + 1]):
                s += off_vals[t] * x[off_cols[t], c]
            x[i, c] = (b[i, c] - s) / diag[k]


def _psweep(rows, off_ptr, off_cols, off_vals, diag, b, x, lo, hi):
    """``prange`` over the rows of one batch (positions ``[lo, hi)``).

    Rows of a batch are mutually independent by plan construction, so the
    parallel loop reads only ``x`` entries written by earlier batches.
    Scalar accumulation is identical to :func:`_sweep` — parallelism
    changes which thread computes a row, never the row's arithmetic."""
    for kk in prange(hi - lo):
        k = lo + kk
        i = rows[k]
        s = 0.0
        for t in range(off_ptr[k], off_ptr[k + 1]):
            s += off_vals[t] * x[off_cols[t]]
        x[i] = (b[i] - s) / diag[k]


def _psweep_block(rows, off_ptr, off_cols, off_vals, diag, b, x, lo, hi):
    """Block (SpTRSM) variant of :func:`_psweep`."""
    width = b.shape[1]
    for kk in prange(hi - lo):
        k = lo + kk
        i = rows[k]
        for c in range(width):
            s = 0.0
            for t in range(off_ptr[k], off_ptr[k + 1]):
                s += off_vals[t] * x[off_cols[t], c]
            x[i, c] = (b[i, c] - s) / diag[k]


# ---------------------------------------------------------------------------
# persistent JIT artifact cache
# ---------------------------------------------------------------------------
def jit_cache_key() -> str:
    """Content key of the persistent JIT cache directory.

    Keyed like the :class:`~repro.exec.plan_cache.PlanCache` keys plans —
    by everything the compiled artifact depends on: this module's source,
    the numba and NumPy versions, and the Python version.  Any change
    switches to a fresh directory instead of serving stale machine code.

    Examples
    --------
    >>> from repro.exec.kernels_numba import jit_cache_key
    >>> key = jit_cache_key()
    >>> len(key), key == jit_cache_key()    # stable within a process
    (16, True)
    """
    if _HAVE_NUMBA:
        import numba

        numba_version = numba.__version__
    else:
        numba_version = "none"
    h = hashlib.sha256()
    h.update(Path(__file__).read_bytes())
    h.update(
        f"|numba={numba_version}|numpy={np.__version__}"
        f"|python={platform.python_version()}".encode()
    )
    return h.hexdigest()[:16]


def jit_cache_dir() -> Path:
    """The stable directory persistent JIT artifacts are written to.

    ``$REPRO_JIT_CACHE_DIR/<key>`` when the env var is set, else
    ``~/.cache/repro/jit/<key>`` (honoring ``XDG_CACHE_HOME``), with
    ``<key>`` from :func:`jit_cache_key`.
    """
    base = os.environ.get(JIT_CACHE_ENV_VAR)
    if base:
        root = Path(base)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        root = (Path(xdg) if xdg else Path.home() / ".cache") / "repro" / "jit"
    return root / jit_cache_key()


def _configure_cache_dir() -> None:  # pragma: no cover - requires numba
    """Point numba's ``cache=True`` machinery at :func:`jit_cache_dir`.

    Must run before the first kernel compiles.  A ``NUMBA_CACHE_DIR`` the
    user set explicitly wins (unless ``REPRO_JIT_CACHE_DIR`` overrides
    it); otherwise artifacts would land next to the installed sources,
    which may be read-only and is not content-keyed."""
    import numba

    if os.environ.get("NUMBA_CACHE_DIR") and not os.environ.get(
        JIT_CACHE_ENV_VAR
    ):
        return
    path = jit_cache_dir()
    path.mkdir(parents=True, exist_ok=True)
    os.environ["NUMBA_CACHE_DIR"] = str(path)
    numba.config.CACHE_DIR = str(path)


_JITTED: SimpleNamespace | None = None


def jit_kernels() -> SimpleNamespace:
    """The four kernels, JIT-wrapped once per process (cached artifacts).

    Returns a namespace with ``sweep``, ``sweep_block`` (sequential,
    ``cache=True``) and ``psweep``, ``psweep_block`` (``parallel=True,
    cache=True``).  Raises :class:`BackendUnavailableError` without
    numba.
    """
    global _JITTED
    if _JITTED is None:
        if not _HAVE_NUMBA:
            raise BackendUnavailableError(
                "the numba kernel tier requires the numba package"
            )
        import numba  # pragma: no cover - requires numba

        obs = get_obs()
        t0 = obs.clock() if obs is not None else 0.0
        _configure_cache_dir()
        jit = numba.njit(cache=True, nogil=True)
        pjit = numba.njit(parallel=True, cache=True, nogil=True)
        _JITTED = SimpleNamespace(
            sweep=jit(_sweep),
            sweep_block=jit(_sweep_block),
            psweep=pjit(_psweep),
            psweep_block=pjit(_psweep_block),
        )
        if obs is not None:
            obs.get_registry().histogram(
                "jit.wrap_seconds"
            ).observe(obs.clock() - t0)
    return _JITTED


def jit_compile_stats() -> dict[str, int]:
    """Compile/cache counters of the wrapped kernels, for warm-start checks.

    ``compiles`` counts actual in-process compilations (numba cache
    misses); ``cache_hits`` counts signatures served from the persistent
    artifact cache.  All zeros before :func:`jit_kernels` ran (or when
    numba is absent) — attribute access is defensive because dispatcher
    internals are not a stable API.
    """
    out = {"compiles": 0, "cache_hits": 0, "signatures": 0}
    if _JITTED is None:
        return out
    for disp in vars(_JITTED).values():  # pragma: no cover - requires numba
        stats = getattr(disp, "stats", None)
        misses = getattr(stats, "cache_misses", None)
        hits = getattr(stats, "cache_hits", None)
        if misses is not None:
            out["compiles"] += int(sum(misses.values()))
        if hits is not None:
            out["cache_hits"] += int(sum(hits.values()))
        out["signatures"] += len(getattr(disp, "signatures", ()))
    obs = get_obs()
    if obs is not None:
        registry = obs.get_registry()
        for name, value in out.items():
            # gauges, not counters: numba's dispatcher stats are already
            # cumulative, so re-reading them must overwrite, not add
            registry.gauge(f"jit.{name}").set(value)
    return out


def warm_kernels() -> dict[str, int]:  # pragma: no cover - requires numba
    """Compile (or cache-load) every kernel signature the backends use.

    Runs each of the four kernels once on a 2-row system with the exact
    array dtypes the plan compiler emits, so a subsequent solve — or a
    second process sharing the persistent cache — performs zero compiles.
    Returns :func:`jit_compile_stats` afterwards.
    """
    obs = get_obs()
    t0 = obs.clock() if obs is not None else 0.0
    k = jit_kernels()
    rows = np.array([0, 1], dtype=np.int64)
    off_ptr = np.array([0, 0, 1], dtype=np.int64)
    off_cols = np.array([0], dtype=np.int64)
    off_vals = np.array([0.5])
    diag = np.array([1.0, 2.0])
    b = np.ones(2)
    x = np.zeros(2)
    k.sweep(rows, off_ptr, off_cols, off_vals, diag, b, x, 0, 2)
    k.psweep(rows, off_ptr, off_cols, off_vals, diag, b, np.zeros(2), 0, 1)
    b2 = np.ones((2, 3))
    k.sweep_block(
        rows, off_ptr, off_cols, off_vals, diag, b2, np.zeros((2, 3)), 0, 2
    )
    k.psweep_block(
        rows, off_ptr, off_cols, off_vals, diag, b2, np.zeros((2, 3)), 0, 1
    )
    if obs is not None:
        obs.get_registry().histogram(
            "jit.warm_seconds"
        ).observe(obs.clock() - t0)
    return jit_compile_stats()
