"""Seeded corpus builders for the plan shapes the benchmarks time.

* **wide-shallow** (:func:`make_wide_shallow`) — few dependency layers,
  thousands of mutually independent rows each: the ``prange`` regime;
* **deep-narrow** (:func:`make_deep_narrow`) — a dependency chain (one
  or two rows per layer): the per-layer dispatch cliff the fused
  small-batch sweep exists for;
* the serving corpus (``_serving_corpus``) — many layers of modest
  width, the shape behind ``repro serve`` / ``repro loadgen``.

``bench/`` (the pipeline benchmark) and ``benchmarks/`` build their
inputs here, so a change to any builder changes their seeded inputs.
"""

from __future__ import annotations

import numpy as np

from repro.matrix.csr import CSRMatrix

__all__ = ["make_deep_narrow", "make_wide_shallow"]


def _assemble(
    n: int, rows: np.ndarray, cols: np.ndarray, seed: int
) -> CSRMatrix:
    """Lower-triangular matrix from a strict-lower pattern, diagonally
    dominant by construction.

    Bench corpora run recurrences tens of thousands of rows deep (the
    deep-narrow chain); the paper's value distributions amplify along
    such chains and overflow, so each row's off-diagonal mass is scaled
    below its unit-plus diagonal instead.
    """
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 0.9, size=rows.size) * rng.choice(
        (-1.0, 1.0), size=rows.size
    )
    counts = np.bincount(rows, minlength=n)
    vals /= np.maximum(counts, 1)[rows]
    diag_idx = np.arange(n, dtype=np.int64)
    return CSRMatrix.from_coo(
        n,
        np.concatenate([rows, diag_idx]),
        np.concatenate([cols, diag_idx]),
        np.concatenate([vals, rng.uniform(1.0, 2.0, size=n)]),
    )


def make_wide_shallow(
    *, levels: int = 8, width: int = 4_000, deps: int = 4, seed: int = 0
) -> CSRMatrix:
    """A few dependency layers of ``width`` mutually independent rows.

    Every row of level ``l > 0`` depends on ``deps`` random rows of level
    ``l - 1``, so the serial plan has exactly ``levels`` batches of
    ``width`` rows — the regime where a ``prange`` over the batch uses
    every core.

    Examples
    --------
    >>> from repro.exec import compile_plan
    >>> from repro.experiments.bench import make_wide_shallow
    >>> plan = compile_plan(make_wide_shallow(levels=3, width=50, seed=0))
    >>> plan.n_batches
    3
    """
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for lvl in range(1, levels):
        base = lvl * width
        r = np.repeat(np.arange(base, base + width, dtype=np.int64), deps)
        c = rng.integers(base - width, base, size=r.size, dtype=np.int64)
        rows.append(r)
        cols.append(c)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    # dedup (row, col) pairs: from_coo would sum duplicate entries, which
    # is fine numerically but skews nnz accounting
    n = levels * width
    keys = np.unique(r * np.int64(n) + c)
    return _assemble(n, keys // np.int64(n), keys % np.int64(n), seed)


def make_deep_narrow(*, n: int = 20_000, seed: int = 0) -> CSRMatrix:
    """A dependency chain: row ``i`` depends on rows ``i-1`` and ``i-2``.

    The serial plan degenerates to ``n`` single-row batches — the
    per-layer dispatch cliff the fused kernel exists for.

    Examples
    --------
    >>> from repro.exec import compile_plan
    >>> from repro.experiments.bench import make_deep_narrow
    >>> plan = compile_plan(make_deep_narrow(n=100, seed=0))
    >>> plan.n_batches
    100
    """
    i = np.arange(1, n, dtype=np.int64)
    rows = np.concatenate([i, i[1:]])
    cols = np.concatenate([i - 1, i[1:] - 2])
    return _assemble(n, rows, cols, seed)


def _serving_corpus(*, smoke: bool) -> CSRMatrix:
    """The serving-bench system: a deep stack of small dependency layers.

    Micro-batching amortizes the per-layer dispatch of a solve across
    every coalesced RHS, so the shape where batching matters — and
    where coalescing shows up as throughput — is many layers of modest
    width, not the wide-shallow ``prange`` shape."""
    return make_wide_shallow(
        levels=48 if smoke else 64,
        width=64 if smoke else 100,
        deps=3,
        seed=0,
    )
