"""The compiler's level pass against the per-level Kahn peel it replaced.

``repro.exec.plan._levelize`` computes every row's longest-path layer
over its intra-superstep dependencies with a blocked recurrence in
topological id order.  These tests pin it to the numpy Kahn peel it
replaced (kept below as the reference) on random triangular patterns,
chains and level stacks, forward and backward, under serial, random and
blocked superstep maps.  The block size is patched down so that small
cases cross many block edges; a chain longer than the real block size
crosses them at full size.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import plan as plan_mod
from repro.experiments.bench import make_deep_narrow, make_wide_shallow
from repro.graph.dag import DAG
from repro.graph.wavefront import wavefront_levels
from repro.matrix.generators import random_values_lower
from repro.utils.arrays import segmented_gather
from tests.conftest import lower_triangular_matrices


def _kahn_levelize(n, dep, consumer, step):
    """Reference: one vectorized Kahn peel per level, O(n) per level."""
    level = np.zeros(n, dtype=np.int64)
    if dep.size == 0 or n == 0:
        return level
    intra = step[dep] == step[consumer]
    src = dep[intra]
    dst = consumer[intra]
    if src.size == 0:
        return level
    indeg = np.bincount(dst, minlength=n)
    order = np.argsort(src, kind="stable")
    child = dst[order]
    child_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=child_ptr[1:])
    frontier = np.flatnonzero(indeg == 0)
    lvl = 0
    while frontier.size:
        level[frontier] = lvl
        starts = child_ptr[frontier]
        flat = segmented_gather(starts, child_ptr[frontier + 1] - starts)
        if flat.size == 0:
            break
        kids = child[flat]
        indeg -= np.bincount(kids, minlength=n)
        cand = np.unique(kids)
        frontier = cand[indeg[cand] == 0]
        lvl += 1
    return level


def _edges(matrix):
    """Dependency edges in CSR order, as ``compile_plan`` passes them."""
    rows = np.repeat(np.arange(matrix.n, dtype=np.int64), matrix.row_nnz())
    off = matrix.indices != rows
    return matrix.indices[off], rows[off]


@st.composite
def patterns(draw, max_n=60):
    """A lower-triangular matrix: random, chain-like or stacked levels."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["random", "chain", "levels"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == "random":
        i, j = np.tril_indices(n, k=-1)
        keep = rng.random(i.size) < draw(st.floats(0.0, 0.5))
        i, j = i[keep], j[keep]
    elif kind == "chain":
        # i -> i-1 always, plus random longer skips
        i = np.arange(1, n, dtype=np.int64)
        j = i - 1
        extra = rng.integers(0, np.maximum(i, 1))
        skip = rng.random(i.size) < 0.4
        i = np.concatenate([i, i[skip]])
        j = np.concatenate([j, extra[skip]])
    else:
        width = draw(st.integers(1, 8))
        i = np.arange(width, n, dtype=np.int64)
        j = i - width + rng.integers(0, width, size=i.size)
    pairs = np.unique(np.stack([i, j], axis=1), axis=0).reshape(-1, 2)
    return random_values_lower(n, pairs[:, 0], pairs[:, 1], seed=0)


@st.composite
def step_maps(draw, n):
    """A superstep per row: serial, random, or blocked runs of ids."""
    kind = draw(st.sampled_from(["serial", "random", "blocked"]))
    if kind == "serial":
        return np.zeros(n, dtype=np.int64)
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        return rng.integers(0, draw(st.integers(1, 5)), size=n)
    width = draw(st.integers(1, 12))
    return np.arange(n, dtype=np.int64) // width


def _both(matrix, direction, step, block):
    if direction == "backward":
        matrix = matrix.transpose()
    dep, consumer = _edges(matrix)
    with mock.patch.object(plan_mod, "_LEVEL_BLOCK", block):
        got = plan_mod._levelize(matrix.n, dep, consumer, step, direction)
    return got, _kahn_levelize(matrix.n, dep, consumer, step)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    matrix=patterns(),
    direction=st.sampled_from(["forward", "backward"]),
    block=st.sampled_from([1, 2, 3, 5, 8, 2048]),
)
def test_property_levels_equal_kahn_peel(data, matrix, direction, block):
    step = data.draw(step_maps(matrix.n))
    got, want = _both(matrix, direction, step, block)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(matrix=lower_triangular_matrices(max_n=50),
       block=st.sampled_from([1, 3, 7, 2048]))
def test_property_serial_forward_levels_are_wavefronts(matrix, block):
    dep, consumer = _edges(matrix)
    with mock.patch.object(plan_mod, "_LEVEL_BLOCK", block):
        got = plan_mod._levelize(
            matrix.n, dep, consumer, np.zeros(matrix.n, np.int64),
            "forward",
        )
    np.testing.assert_array_equal(
        got, wavefront_levels(DAG.from_lower_triangular(matrix))
    )


def test_full_size_blocks_on_a_chain_and_a_level_stack():
    """Chains longer than the real block size cross its edges at row
    ``_LEVEL_BLOCK`` and beyond, in both directions."""
    n = 2 * plan_mod._LEVEL_BLOCK + 500
    for matrix in (make_deep_narrow(n=n, seed=0),
                   make_wide_shallow(levels=4, width=n // 4, seed=0)):
        for direction in ("forward", "backward"):
            ids = np.arange(matrix.n, dtype=np.int64)
            for step in (np.zeros_like(ids), ids // 1_000):
                got, want = _both(matrix, direction, step,
                                  plan_mod._LEVEL_BLOCK)
                np.testing.assert_array_equal(got, want)

