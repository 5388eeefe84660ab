"""White-box tests of GrowLocal's mechanics (Algorithm 3.1).

Beyond the black-box validity tests, these pin down the behaviours the
paper describes: superstep growth through alpha iterations, the
parallelization score trade-off, Rule I's exclusivity, and the complexity
claim of Theorem 3.1 (empirically, as in Figure B.1).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dag import DAG
from repro.matrix.generators import narrow_band_lower, rcm_mesh
from repro.scheduler.growlocal import GrowLocalScheduler
from repro.utils.timing import Timer


class TestSuperstepGrowth:
    def test_wide_antichain_single_superstep(self):
        """An edgeless DAG fits in one superstep at any core count."""
        dag = DAG.from_edges(200, [])
        s = GrowLocalScheduler().schedule(dag, 8)
        assert s.n_supersteps == 1
        # ... with reasonable balance: the score tolerates moderate skew
        # when consuming the pool saves a barrier (L dominates), but no
        # core may carry more than ~2x the even share
        w = s.work_matrix(dag)
        assert w.max() <= 2 * np.ceil(200 / 8)

    def test_chain_single_core_single_superstep(self):
        """A pure chain has no parallelism: exclusivity keeps it on one
        core; the improvement rule bounds the superstep count."""
        n = 100
        dag = DAG.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        s = GrowLocalScheduler().schedule(dag, 4)
        # all vertices end up on a single core
        assert np.unique(s.cores[np.argsort(s.supersteps)]).size <= 2
        s.validate(dag)

    def test_larger_L_fewer_supersteps(self, small_band_lower):
        dag = DAG.from_lower_triangular(small_band_lower)
        few = GrowLocalScheduler(sync_penalty=5000.0).schedule(dag, 4)
        many = GrowLocalScheduler(sync_penalty=5.0).schedule(dag, 4)
        assert few.n_supersteps <= many.n_supersteps

    def test_exclusive_chains_stay_on_core(self):
        """Two independent chains on two cores: each chain must stay whole
        on its core within each superstep (Rule I)."""
        edges = [(i, i + 1) for i in range(9)]
        edges += [(10 + i, 11 + i) for i in range(9)]
        dag = DAG.from_edges(20, edges)
        s = GrowLocalScheduler().schedule(dag, 2)
        s.validate(dag)
        # chains are independent: the schedule must use both cores
        assert np.unique(s.cores).size == 2
        # and in few supersteps (both chains fit exclusivity growth)
        assert s.n_supersteps <= 4

    def test_alpha_progression_never_stalls(self):
        """Regression: alpha once stalled at round(2.25) == 2; ensure
        growth makes integer progress so supersteps glue past alpha = 2."""
        lower = rcm_mesh(40, 60, reach=1, lateral_prob=0.3,
                         seed=0).lower_triangle()
        dag = DAG.from_lower_triangular(lower)
        s = GrowLocalScheduler().schedule(dag, 22)
        # with working growth the schedule glues levels: strictly fewer
        # supersteps than wavefronts
        assert s.n_supersteps < 40


class TestEmpiricalComplexity:
    def test_near_linear_in_edges(self):
        """Theorem 3.1 / Figure B.1: doubling the DAG should not much more
        than double the scheduling time (empirical, generous bound).

        The two sizes are timed in 3 alternating rounds and the best of
        each compared, so a stall of a shared host hits both sides or
        only one reading."""
        dags = [
            DAG.from_lower_triangular(
                narrow_band_lower(n, 0.14, 10.0, seed=1))
            for n in (4000, 16000)
        ]
        times = [[], []]
        for _ in range(3):
            for dag, samples in zip(dags, times, strict=True):
                with Timer() as t:
                    GrowLocalScheduler().schedule(dag, 8)
                samples.append(t.elapsed)
        small, large = min(times[0]), min(times[1])
        # 4x the size should cost less than ~12x the time (linear would
        # be 4x; the bound absorbs interpreter noise)
        assert large < 12 * max(small, 1e-4), (times[0], times[1])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 60), st.integers(1, 6),
       st.integers(0, 2**31 - 1))
def test_property_every_vertex_assigned_exactly_once(n, cores, seed):
    rng = np.random.default_rng(seed)
    tri_i, tri_j = np.tril_indices(n, k=-1)
    keep = rng.random(tri_i.size) < 0.15
    from repro.matrix.generators import random_values_lower

    lower = random_values_lower(n, tri_i[keep], tri_j[keep], seed=seed)
    dag = DAG.from_lower_triangular(lower)
    s = GrowLocalScheduler().schedule(dag, cores)
    assert s.n == n
    assert np.all(s.cores >= 0)
    assert np.all(s.supersteps >= 0)
    s.validate(dag)
    # total assigned weight conserved
    assert s.work_matrix(dag).sum() == dag.total_weight()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_min_improvement_zero_is_still_valid(seed):
    """The literal Appendix-B acceptance rule must stay *correct* even
    where it is degenerate."""
    rng = np.random.default_rng(seed)
    n = 40
    tri_i, tri_j = np.tril_indices(n, k=-1)
    keep = rng.random(tri_i.size) < 0.2
    from repro.matrix.generators import random_values_lower

    lower = random_values_lower(n, tri_i[keep], tri_j[keep], seed=seed)
    dag = DAG.from_lower_triangular(lower)
    s = GrowLocalScheduler(min_improvement=0.0,
                           adaptive_alpha0=False).schedule(dag, 3)
    s.validate(dag)
    assert s.n == n
