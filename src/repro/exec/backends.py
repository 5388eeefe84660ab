"""Pluggable execution backends for compiled plans.

A backend turns an :class:`~repro.exec.plan.ExecutionPlan` plus a
right-hand side into a solution.  Backends are registered by name in a
small registry so later scaling work (process pools, native kernels,
accelerators) plugs in behind the same boundary:

* ``numpy`` — always available; one vectorized gather / segment-sum /
  scatter per dependency batch, except that runs of low-work batches
  (see :data:`SCALAR_BATCH_WORK`) run as one interpreted scalar sweep,
  which costs less than a vectorized call per batch;
* ``numba`` — auto-detected; a JIT-compiled *sequential* sweep over the
  plan's flat arrays (no interpreter in the inner loop, but one thread);
* ``numba-parallel`` — auto-detected; the same backend with another
  dispatch policy (:func:`fused_dispatch`): ``prange`` over the rows of
  each batch of at least :data:`PARALLEL_BATCH_ROWS` rows, and each run
  of consecutive smaller batches as one sequential JIT sweep, so deep
  narrow layer structure does not pay per-layer dispatch.

The plan carries only its matrix's dependency batches; the position
spans a backend walks are derived from ``batch_ptr`` once per plan
(:func:`numpy_dispatch`, :func:`fused_dispatch`), never stored in it.

Tiering: ``numba-parallel`` > ``numba`` > ``numpy``.  Only the first
step is floored (on numba installs, by
``benchmarks/test_exec_plan_bench.py``): the parallel tier beats the
sequential sweep on wide batches by using every core.  That the
sequential JIT sweep beats ``numpy`` is expected, since it removes the
interpreter from the inner loop, but no floor measures it.  When numba
is missing the registry falls back along that order silently during
auto-selection (unavailability is probed once per process and cached),
and raises :class:`~repro.errors.BackendUnavailableError` only when an
unavailable backend is requested by name.

Selection order for :func:`get_backend` with no argument: the
``REPRO_EXEC_BACKEND`` environment variable if set (unknown names raise
:class:`~repro.errors.ConfigurationError`), else the first available
tier: ``numba-parallel``, then ``numba``, then ``numpy``.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from repro.errors import (
    BackendUnavailableError,
    ConfigurationError,
    MatrixFormatError,
)
from repro.exec.plan import ExecutionPlan

__all__ = [
    "ExecutionBackend",
    "NumpyBackend",
    "NumbaBackend",
    "ParallelNumbaBackend",
    "available_backends",
    "fused_dispatch",
    "get_backend",
    "list_backends",
    "numpy_dispatch",
    "register_backend",
]

#: Environment variable overriding backend auto-selection.
BACKEND_ENV_VAR = "REPRO_EXEC_BACKEND"

#: A dependency batch whose rows plus off-diagonal entries number at most
#: this is *low-work*: :class:`NumpyBackend` solves runs of such batches
#: as one scalar sweep, because one vectorized gather / segment-sum /
#: scatter costs several microseconds of interpreter and numpy dispatch
#: however small the batch (see :func:`numpy_dispatch`).
SCALAR_BATCH_WORK = 16

#: A dependency batch with at least this many rows is a ``prange`` span
#: of the ``numba-parallel`` backend; runs of smaller batches are fused
#: into one sequential sweep, because below it the fork/join of a
#: parallel region costs more than the rows (see :func:`fused_dispatch`).
PARALLEL_BATCH_ROWS = 64


class ExecutionBackend:
    """Interface of an execution backend.

    Subclasses implement :meth:`solve` (single RHS) and may override
    :meth:`solve_block` (SpTRSM, ``n x k`` RHS block); constructors raise
    :class:`BackendUnavailableError` when the environment cannot run them.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.exec import compile_plan, get_backend
    >>> from repro.matrix.generators import narrow_band_lower
    >>> L = narrow_band_lower(50, 0.2, 4.0, seed=0)
    >>> backend = get_backend()              # an ExecutionBackend
    >>> plan = compile_plan(L)
    >>> backend.solve(plan, np.ones(L.n)).shape          # SpTRSV
    (50,)
    >>> backend.solve_block(plan, np.ones((L.n, 3))).shape  # SpTRSM
    (50, 3)
    """

    name: str = "abstract"

    def solve(
        self,
        plan: ExecutionPlan,
        b: np.ndarray,
        x: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve the plan's triangular system for ``b``, into ``x``."""
        raise NotImplementedError

    def solve_block(
        self,
        plan: ExecutionPlan,
        b_block: np.ndarray,
        x_block: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve for an ``(n, k)`` right-hand-side block (SpTRSM)."""
        raise NotImplementedError

    @staticmethod
    def _check_rhs(plan: ExecutionPlan, b: np.ndarray) -> np.ndarray:
        """Validate a single RHS against the plan and coerce to float64.

        Integer (or lower-precision) right-hand sides would otherwise
        propagate their dtype into intermediates and outputs, silently
        truncating results."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (plan.n,):
            raise MatrixFormatError(
                f"right-hand side has shape {b.shape}, plan covers "
                f"{plan.n} rows"
            )
        return b

    @staticmethod
    def _check_rhs_block(
        plan: ExecutionPlan, b_block: np.ndarray
    ) -> np.ndarray:
        """Validate an ``(n, k)`` RHS block and coerce to float64."""
        b_block = np.asarray(b_block, dtype=np.float64)
        if b_block.ndim != 2 or b_block.shape[0] != plan.n:
            raise MatrixFormatError(
                f"right-hand-side block has shape {b_block.shape}, "
                f"expected ({plan.n}, k)"
            )
        return b_block

    @staticmethod
    def _check_out(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Validate a caller-supplied output buffer.

        Unlike the RHS, the output cannot be silently coerced — the
        caller expects results *in this buffer* — so a wrong dtype or
        shape raises instead (an integer buffer would truncate every
        result, the bug the RHS coercion fixes)."""
        if x.shape != shape:
            raise MatrixFormatError(
                f"output buffer has shape {x.shape}, expected {shape}"
            )
        if x.dtype != np.float64:
            raise MatrixFormatError(
                f"output buffer must be float64, got {x.dtype}"
            )
        return x

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _segment_sums(
    contrib: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Sum contiguous row segments of ``contrib`` (1-D or 2-D) into ``out``.

    ``out[i]`` receives ``contrib[starts[i]:starts[i]+counts[i]].sum(0)``.
    Built on ``np.add.reduceat`` restricted to the non-empty segments:
    reduceat mis-handles empty segments (a repeated index returns the
    element at that position, a start index equal to ``len(contrib)``
    raises), so those rows keep their zero initialization instead.  The
    accumulation order is identical for 1-D and 2-D inputs, which is what
    makes single-RHS and block solves bit-equal column for column.
    """
    nz = np.flatnonzero(counts)
    if nz.size:
        out[nz] = np.add.reduceat(contrib, starts[nz], axis=0)
    return out


def _group_runs(
    batch_ptr: np.ndarray, small: np.ndarray
) -> tuple[tuple[int, int, bool], ...]:
    """``(lo, hi, small)`` position spans over the batches of
    ``batch_ptr``: each maximal run of consecutive ``small`` batches is
    one span, every other batch its own span.

    A batch boundary survives unless *both* adjacent batches are small.
    """
    if small.size == 0:
        return ()
    keep = ~(small[1:] & small[:-1])
    groups = np.concatenate(([0], np.flatnonzero(keep) + 1, [small.size]))
    bounds = batch_ptr[groups].tolist()
    return tuple(zip(
        bounds[:-1], bounds[1:], small[groups[:-1]].tolist(), strict=True
    ))


def numpy_dispatch(plan: ExecutionPlan) -> tuple[tuple[int, int, bool], ...]:
    """The numpy backend's position spans for ``plan``.

    Returns ``(lo, hi, scalar)`` spans that tile ``[0, n)`` and cut only
    at batch boundaries.  A ``scalar`` span is a maximal run of
    consecutive batches whose rows plus off-diagonal entries number at
    most :data:`SCALAR_BATCH_WORK` each, solved as one scalar sweep;
    every other span is exactly one batch, solved by one vectorized
    gather / segment-sum / scatter.  Unlike :func:`fused_dispatch`, the
    split counts off-diagonal entries, so a run of few-row batches with
    many entries each stays vectorized.  Pure plan arithmetic, computed
    on the plan's first numpy solve and kept on the plan (never
    persisted: a plan built by the constructor, from any fields, starts
    without it).

    Examples
    --------
    >>> from repro.exec import compile_plan
    >>> from repro.exec.backends import numpy_dispatch
    >>> from repro.experiments.bench import make_deep_narrow
    >>> numpy_dispatch(compile_plan(make_deep_narrow(n=100, seed=0)))
    ((0, 100, True),)
    """
    spans = plan._numpy_spans
    if spans is None:
        batch_ptr = plan.batch_ptr
        work = np.diff(batch_ptr) + np.diff(plan.off_ptr[batch_ptr])
        spans = plan._numpy_spans = _group_runs(
            batch_ptr, work <= SCALAR_BATCH_WORK
        )
    return spans


def fused_dispatch(plan: ExecutionPlan) -> tuple[tuple[int, int, bool], ...]:
    """The ``numba-parallel`` backend's position spans for ``plan``.

    Returns ``(lo, hi, parallel)`` spans that tile ``[0, n)`` and cut
    only at batch boundaries.  A ``parallel`` span is exactly one batch
    of at least :data:`PARALLEL_BATCH_ROWS` rows, worth a ``prange``
    fork/join; every other span is a maximal run of consecutive smaller
    batches, run as one sequential sweep (a run of consecutive batches
    in plan order is a topologically sorted position span).  Pure plan
    arithmetic over ``batch_ptr``, so the policy is testable without
    numba; computed on the plan's first use and kept on the plan like
    :func:`numpy_dispatch` (never persisted).

    Examples
    --------
    >>> from repro.exec import compile_plan
    >>> from repro.exec.backends import fused_dispatch
    >>> from repro.experiments.bench import make_deep_narrow
    >>> fused_dispatch(compile_plan(make_deep_narrow(n=100, seed=0)))
    ((0, 100, False),)
    """
    spans = plan._fused_spans
    if spans is None:
        batch_ptr = plan.batch_ptr
        runs = _group_runs(batch_ptr, np.diff(batch_ptr) < PARALLEL_BATCH_ROWS)
        spans = plan._fused_spans = tuple(
            (lo, hi, not small) for lo, hi, small in runs
        )
    return spans


def _sweep_block_rows(rows, off_ptr, off_cols, off_vals, diag, b, x, lo, hi):
    """Scalar span of a block solve: positions ``[lo, hi)`` one row at a
    time, all ``k`` columns of the row at once.

    ``rows`` to ``diag`` are memoryviews of the plan arrays, ``b`` and
    ``x`` the ``(n, k)`` arrays.  Each column runs the recurrence of
    :func:`~repro.exec.kernels_numba._sweep` — products added in entry
    order to a zero, then one subtraction and one division — so block
    columns are bitwise equal to single-RHS solves."""
    width = b.shape[1]
    for k in range(lo, hi):
        i = rows[k]
        s = np.zeros(width)
        for t in range(off_ptr[k], off_ptr[k + 1]):
            s += off_vals[t] * x[off_cols[t]]
        x[i] = (b[i] - s) / diag[k]


class NumpyBackend(ExecutionBackend):
    """Vectorized batch kernel with scalar sweeps over low-work batches.

    Rows inside a batch are mutually independent by construction, so a
    batch can be computed with flat-array NumPy operations, one gather /
    segment-sum / scatter for the whole batch.  That call costs several
    microseconds of dispatch however few rows it covers, so the backend
    walks the spans of :func:`numpy_dispatch`: each batch with more than
    :data:`SCALAR_BATCH_WORK` rows plus off-diagonal entries is one
    vectorized call, and each run of lower-work batches is one
    interpreted scalar sweep over the plan's position order (for a
    single RHS, the plain-Python ``_sweep`` of
    :mod:`~repro.exec.kernels_numba` over memoryviews).  The single-RHS
    and block kernels make the same split, share one segment-sum
    (:func:`_segment_sums`) and run the same scalar recurrence per
    column, so ``solve_block`` columns are bit-equal to the
    corresponding ``solve`` results — the invariant the coalescing
    :class:`~repro.service.SolveService` relies on.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.exec import compile_plan
    >>> from repro.exec.backends import NumpyBackend
    >>> from repro.matrix.generators import narrow_band_lower
    >>> L = narrow_band_lower(60, 0.2, 4.0, seed=1)
    >>> plan = compile_plan(L)
    >>> x = NumpyBackend().solve(plan, np.ones(L.n))
    >>> bool(np.allclose(L.matvec(x), np.ones(L.n)))
    True
    """

    name = "numpy"

    def __init__(self) -> None:
        # the interpreted kernel source; importing the kernel module
        # compiles nothing (numba, when installed, wraps lazily)
        from repro.exec.kernels_numba import _sweep

        self._sweep = _sweep

    def solve(
        self,
        plan: ExecutionPlan,
        b: np.ndarray,
        x: np.ndarray | None = None,
    ) -> np.ndarray:
        plan.require_solvable()
        b = self._check_rhs(plan, b)
        if x is None:
            x = np.zeros(plan.n)
        else:
            x = self._check_out(x, (plan.n,))
        rows, off_ptr, off_cols = plan.rows, plan.off_ptr, plan.off_cols
        off_vals, diag = plan.off_vals, plan.diag
        views = None
        for lo, hi, scalar in numpy_dispatch(plan):
            if scalar:
                if views is None:
                    # indexing a memoryview yields Python scalars, about
                    # twice as fast as indexing the arrays themselves
                    views = [
                        memoryview(a)
                        for a in (rows, off_ptr, off_cols, off_vals, diag,
                                  b, x)
                    ]
                self._sweep(*views, lo, hi)
                continue
            r = rows[lo:hi]
            s0, s1 = off_ptr[lo], off_ptr[hi]
            if s1 > s0:
                contrib = off_vals[s0:s1] * x[off_cols[s0:s1]]
                sums = _segment_sums(
                    contrib,
                    off_ptr[lo:hi] - s0,
                    off_ptr[lo + 1:hi + 1] - off_ptr[lo:hi],
                    np.zeros(hi - lo),
                )
                x[r] = (b[r] - sums) / diag[lo:hi]
            else:
                x[r] = b[r] / diag[lo:hi]
        return x

    def solve_block(
        self,
        plan: ExecutionPlan,
        b_block: np.ndarray,
        x_block: np.ndarray | None = None,
    ) -> np.ndarray:
        plan.require_solvable()
        b_block = self._check_rhs_block(plan, b_block)
        if x_block is None:
            # float allocation, never np.zeros_like: an integer RHS block
            # would otherwise silently truncate every result column
            x_block = np.zeros(b_block.shape)
        else:
            x_block = self._check_out(x_block, b_block.shape)
        rows, off_ptr, off_cols = plan.rows, plan.off_ptr, plan.off_cols
        off_vals, diag = plan.off_vals, plan.diag
        views = None
        for lo, hi, scalar in numpy_dispatch(plan):
            if scalar:
                if views is None:
                    views = [
                        memoryview(a)
                        for a in (rows, off_ptr, off_cols, off_vals, diag)
                    ]
                _sweep_block_rows(*views, b_block, x_block, lo, hi)
                continue
            r = rows[lo:hi]
            s0, s1 = off_ptr[lo], off_ptr[hi]
            if s1 > s0:
                # (nnz, k) contributions: each gathered index feeds all k
                # columns at once, amortizing the random access the
                # single-RHS kernel pays per column; the shared
                # segment-sum keeps every column bit-equal to solve()
                contrib = (
                    off_vals[s0:s1, None] * x_block[off_cols[s0:s1]]
                )
                sums = _segment_sums(
                    contrib,
                    off_ptr[lo:hi] - s0,
                    off_ptr[lo + 1:hi + 1] - off_ptr[lo:hi],
                    np.zeros((hi - lo, contrib.shape[1])),
                )
                x_block[r] = (b_block[r] - sums) / diag[lo:hi, None]
            else:
                x_block[r] = b_block[r] / diag[lo:hi, None]
        return x_block


class NumbaBackend(ExecutionBackend):
    """JIT-compiled sweeps over the plan's flat arrays.

    The plan's batch order is a topological execution order, so a
    machine-code loop over positions is correct; numba removes the
    interpreter from the inner loop entirely.  ``solve`` and
    ``solve_block`` walk the position spans of :meth:`dispatch`: a
    ``parallel`` span runs the ``prange`` kernel over one batch's
    mutually independent rows, any other span the sequential sweep.
    This backend's policy is one sequential span over the whole plan
    (one thread); :class:`ParallelNumbaBackend` differs only in its
    policy.  Every kernel of :mod:`~repro.exec.kernels_numba` runs one
    scalar accumulation order, so both policies give bitwise identical
    results, column for column across ``solve``/``solve_block``.
    Constructing this backend without numba installed raises
    :class:`BackendUnavailableError`.

    Examples
    --------
    >>> from repro.exec.backends import NumbaBackend
    >>> NumbaBackend().name                     # doctest: +SKIP
    'numba'
    >>> from repro.exec import get_backend      # graceful fallback:
    >>> get_backend().name in ("numba-parallel", "numba", "numpy")
    True
    """

    name = "numba"

    # pragma-no-cover rationale: the CI matrix exercises the numba tier
    # only on the legs that install numba; the container default has none.
    def __init__(self) -> None:
        from repro.exec import kernels_numba

        if not kernels_numba.have_numba():
            raise BackendUnavailableError(
                f"the {self.name!r} backend requires the numba package"
            )
        self._kernels = kernels_numba.jit_kernels()  # pragma: no cover

    def dispatch(
        self, plan: ExecutionPlan
    ) -> tuple[tuple[int, int, bool], ...]:
        """``(lo, hi, parallel)`` spans to walk: the whole plan as one
        sequential sweep."""
        return ((0, plan.n, False),)

    def solve(
        self,
        plan: ExecutionPlan,
        b: np.ndarray,
        x: np.ndarray | None = None,
    ) -> np.ndarray:  # pragma: no cover - requires numba
        plan.require_solvable()
        b = np.ascontiguousarray(self._check_rhs(plan, b))
        if x is None:
            x = np.zeros(plan.n)
        else:
            x = self._check_out(x, (plan.n,))
        k = self._kernels
        args = (
            plan.rows, plan.off_ptr, plan.off_cols, plan.off_vals,
            plan.diag, b, x,
        )
        for lo, hi, parallel in self.dispatch(plan):
            (k.psweep if parallel else k.sweep)(*args, lo, hi)
        return x

    def solve_block(
        self,
        plan: ExecutionPlan,
        b_block: np.ndarray,
        x_block: np.ndarray | None = None,
    ) -> np.ndarray:  # pragma: no cover - requires numba
        plan.require_solvable()
        b_block = np.ascontiguousarray(self._check_rhs_block(plan, b_block))
        if x_block is None:
            x_block = np.zeros(b_block.shape)
        else:
            x_block = self._check_out(x_block, b_block.shape)
        k = self._kernels
        args = (
            plan.rows, plan.off_ptr, plan.off_cols, plan.off_vals,
            plan.diag, b_block, x_block,
        )
        for lo, hi, parallel in self.dispatch(plan):
            (k.psweep_block if parallel else k.sweep_block)(*args, lo, hi)
        return x_block


class ParallelNumbaBackend(NumbaBackend):
    """:class:`NumbaBackend` walking the spans of :func:`fused_dispatch`.

    Each batch of at least :data:`PARALLEL_BATCH_ROWS` rows is one
    ``prange`` kernel call; each run of consecutive smaller batches is
    one sequential JIT sweep, so a deep narrow DAG costs a handful of
    kernel calls instead of one dispatch plus one fork/join per tiny
    layer.  Results are bitwise identical to ``numba``.  Auto-selection
    prefers it.

    Examples
    --------
    >>> from repro.exec.backends import ParallelNumbaBackend
    >>> ParallelNumbaBackend().name             # doctest: +SKIP
    'numba-parallel'
    """

    name = "numba-parallel"
    dispatch = staticmethod(fused_dispatch)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], ExecutionBackend]] = {}
_INSTANCES: dict[str, ExecutionBackend] = {}
#: Factories that raised BackendUnavailableError, memoized so the (slow)
#: availability probe — e.g. the numba import — runs once per process,
#: not on every available_backends()/get_backend() call.
_UNAVAILABLE: dict[str, BackendUnavailableError] = {}


def register_backend(
    name: str,
    factory: Callable[[], ExecutionBackend],
    *,
    replace: bool = False,
) -> None:
    """Register a backend factory under ``name``.

    The factory is called lazily on first :func:`get_backend` lookup; it
    should raise :class:`BackendUnavailableError` when the environment
    cannot support the backend.  Re-registering a name clears any cached
    unavailability verdict for it.

    Examples
    --------
    >>> from repro.exec import get_backend, list_backends, register_backend
    >>> from repro.exec.backends import NumpyBackend
    >>> class LoudBackend(NumpyBackend):
    ...     name = "loud"
    >>> register_backend("loud", LoudBackend, replace=True)
    >>> "loud" in list_backends()
    True
    >>> get_backend("loud").name
    'loud'
    """
    if name in _FACTORIES and not replace:
        raise ConfigurationError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)
    _UNAVAILABLE.pop(name, None)


def list_backends() -> list[str]:
    """All registered backend names (available or not).

    Examples
    --------
    >>> from repro.exec import list_backends
    >>> {"numpy", "numba"} <= set(list_backends())
    True
    """
    return sorted(_FACTORIES)


def available_backends() -> list[str]:
    """Registered backends that can actually run here.

    Unavailability verdicts are cached per process (see
    :data:`_UNAVAILABLE`), so repeated calls — the CLI, the service, the
    tuner all consult this — never re-run a slow import probe.

    Examples
    --------
    >>> from repro.exec import available_backends
    >>> "numpy" in available_backends()   # always runnable
    True
    """
    out = []
    for name in list_backends():
        try:
            _instantiate(name)
        except BackendUnavailableError:
            continue
        out.append(name)
    return out


def _instantiate(name: str) -> ExecutionBackend:
    if name in _UNAVAILABLE:
        raise _UNAVAILABLE[name]
    if name not in _INSTANCES:
        try:
            factory = _FACTORIES[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown backend {name!r}; registered: {list_backends()}"
            ) from None
        try:
            _INSTANCES[name] = factory()
        except BackendUnavailableError as exc:
            _UNAVAILABLE[name] = exc
            raise
    return _INSTANCES[name]


#: Auto-selection preference, expected fastest first.  Only
#: ``numba-parallel`` over ``numba`` is floored (on numba installs, by
#: ``benchmarks/test_exec_plan_bench.py``); ``numba`` over ``numpy`` is
#: unmeasured, since no floor compares them.
_AUTO_ORDER = ("numba-parallel", "numba", "numpy")


def get_backend(name: str | None = None) -> ExecutionBackend:
    """Resolve a backend instance.

    ``name=None`` auto-selects: the ``REPRO_EXEC_BACKEND`` environment
    variable when set — an unknown name there raises
    :class:`~repro.errors.ConfigurationError` naming the variable — else
    the first available tier of ``numba-parallel``, ``numba``,
    ``numpy`` (see :data:`_AUTO_ORDER`).  Passing an explicit ``name``
    raises :class:`BackendUnavailableError` if that backend cannot run.

    Examples
    --------
    >>> from repro.exec import get_backend
    >>> get_backend("numpy").name
    'numpy'
    >>> get_backend().name in ("numba-parallel", "numba", "numpy")
    True
    """
    if isinstance(name, ExecutionBackend):
        return name
    if name is not None:
        return _instantiate(name)
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        if env not in _FACTORIES:
            raise ConfigurationError(
                f"{BACKEND_ENV_VAR}={env!r} selects an unknown backend; "
                f"registered: {list_backends()}"
            )
        return _instantiate(env)
    for candidate in _AUTO_ORDER:
        try:
            return _instantiate(candidate)
        except BackendUnavailableError:
            continue
    raise BackendUnavailableError(  # pragma: no cover - numpy always runs
        "no execution backend is available"
    )


register_backend("numpy", NumpyBackend)
register_backend("numba", NumbaBackend)
register_backend("numba-parallel", ParallelNumbaBackend)
