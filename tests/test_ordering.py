"""Tests for RCM, minimum-degree, and nested-dissection orderings."""

import numpy as np
from hypothesis import given, settings

from repro.matrix.generators import (
    grid_laplacian_2d,
    random_geometric_spd,
)
from repro.matrix.ordering import (
    minimum_degree_ordering,
    nested_dissection_ordering,
    rcm_ordering,
)
from repro.matrix.ordering.rcm import _bfs_levels, _symmetric_adjacency
from repro.matrix.permute import is_permutation, permute_symmetric
from repro.matrix.properties import bandwidth
from tests.conftest import lower_triangular_matrices


def _fill_of_cholesky(dense: np.ndarray) -> int:
    """Non-zeros of the Cholesky factor of an SPD matrix (fill proxy)."""
    chol = np.linalg.cholesky(dense)
    return int(np.count_nonzero(np.abs(chol) > 1e-12))


class TestRCM:
    def test_returns_permutation(self):
        m = grid_laplacian_2d(6, 6)
        perm = rcm_ordering(m)
        assert is_permutation(perm)

    def test_reduces_bandwidth_of_shuffled_grid(self):
        from repro.matrix.permute import random_permutation

        m = grid_laplacian_2d(8, 8)
        shuffled = permute_symmetric(m, random_permutation(m.n, seed=0))
        perm = rcm_ordering(shuffled)
        reordered = permute_symmetric(shuffled, perm)
        assert bandwidth(reordered) < bandwidth(shuffled)

    def test_handles_disconnected_graph(self):
        from repro.matrix.csr import CSRMatrix

        m = CSRMatrix.from_coo(
            6, [0, 1, 1, 4, 5, 5], [0, 0, 1, 4, 4, 5],
            [1.0] * 6,
        )
        perm = rcm_ordering(m)
        assert is_permutation(perm)

    def test_single_vertex(self):
        from repro.matrix.csr import CSRMatrix

        assert is_permutation(rcm_ordering(CSRMatrix.identity(1)))


class TestMinimumDegree:
    def test_returns_permutation(self):
        m = grid_laplacian_2d(5, 5)
        assert is_permutation(minimum_degree_ordering(m))

    def test_reduces_fill_vs_natural(self):
        m = grid_laplacian_2d(7, 7)
        natural_fill = _fill_of_cholesky(m.to_dense())
        perm = minimum_degree_ordering(m)
        md_fill = _fill_of_cholesky(permute_symmetric(m, perm).to_dense())
        assert md_fill < natural_fill

    def test_diagonal_matrix(self):
        from repro.matrix.csr import CSRMatrix

        assert is_permutation(minimum_degree_ordering(CSRMatrix.identity(5)))


class TestNestedDissection:
    def test_returns_permutation(self):
        m = grid_laplacian_2d(9, 9)
        assert is_permutation(nested_dissection_ordering(m, leaf_size=8))

    def test_reduces_fill_vs_natural(self):
        m = grid_laplacian_2d(8, 8)
        natural_fill = _fill_of_cholesky(m.to_dense())
        perm = nested_dissection_ordering(m, leaf_size=8)
        nd_fill = _fill_of_cholesky(permute_symmetric(m, perm).to_dense())
        assert nd_fill < natural_fill

    def test_increases_wavefront_parallelism(self):
        """The METIS dataset effect (Table A.2): ND permutation raises the
        average wavefront size of the lower triangle."""
        from repro.graph.dag import DAG
        from repro.graph.wavefront import average_wavefront_size

        m = grid_laplacian_2d(16, 16)
        nat = average_wavefront_size(
            DAG.from_lower_triangular(m.lower_triangle())
        )
        perm = nested_dissection_ordering(m)
        nd = average_wavefront_size(
            DAG.from_lower_triangular(
                permute_symmetric(m, perm).lower_triangle()
            )
        )
        assert nd > nat

    def test_irregular_mesh(self):
        m = random_geometric_spd(150, radius=0.12, seed=1)
        assert is_permutation(nested_dissection_ordering(m, leaf_size=16))


@settings(max_examples=20, deadline=None)
@given(lower_triangular_matrices(min_n=1, max_n=25))
def test_property_all_orderings_are_permutations(m):
    for order_fn in (rcm_ordering, minimum_degree_ordering,
                     nested_dissection_ordering):
        assert is_permutation(order_fn(m))


@settings(max_examples=40, deadline=None)
@given(lower_triangular_matrices(min_n=1, max_n=30))
def test_property_bfs_levels_match_reference_bfs(m):
    """Level-batched BFS equals a vertex-at-a-time BFS restricted to an
    active mask (the nested-dissection subproblem)."""
    indptr, adj = _symmetric_adjacency(m)
    rng = np.random.default_rng(m.n)
    active = rng.random(m.n) < 0.7
    start = int(rng.integers(m.n))
    expected = [-1] * m.n
    expected[start] = 0
    queue = [start]
    for u in queue:
        for v in adj[indptr[u]:indptr[u + 1]].tolist():
            if active[v] and expected[v] < 0:
                expected[v] = expected[u] + 1
                queue.append(v)
    np.testing.assert_array_equal(
        _bfs_levels(indptr, adj, start, active), expected
    )
