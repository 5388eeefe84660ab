"""Integration tests over the fast random datasets (the heavyweight proxy
sets are exercised by the benchmark harness; these keep CI quick while
still running the *real* dataset builders end to end)."""

import numpy as np
import pytest

from repro.experiments.datasets import build_dataset, dataset_statistics
from repro.experiments.runner import run_instance
from repro.machine.model import MachineModel
from repro.scheduler import GrowLocalScheduler, WavefrontScheduler
from repro.solver.sptrsv import forward_substitution

FAST = MachineModel(name="fast", n_cores=8, barrier_latency=200.0,
                    cache_lines=128)


@pytest.fixture(scope="module")
def narrow_band():
    return build_dataset("narrow_band")


def test_narrow_band_matches_paper_configs(narrow_band):
    names = {i.name.rsplit("_", 1)[0] for i in narrow_band}
    assert names == {"NB_10k_p14_b10", "NB_10k_p5_b20", "NB_10k_p3_b42"}
    for inst in narrow_band:
        assert inst.n == 10_000
        assert inst.lower.is_lower_triangular()
        assert inst.lower.has_full_diagonal()


def test_dataset_statistics_rows(narrow_band):
    stats = dataset_statistics("narrow_band")
    assert len(stats) == len(narrow_band)
    for row in stats:
        assert set(row) == {"matrix", "size", "nnz", "avg_wavefront"}


def test_dataset_is_cached(narrow_band):
    assert build_dataset("narrow_band") is not build_dataset("erdos_renyi")
    assert build_dataset("narrow_band")[0] is narrow_band[0]


def test_growlocal_dominates_wavefront_on_narrow_band(narrow_band):
    """The paper's strongest claim lives on this dataset: GrowLocal must
    beat level-set scheduling on (the geomean of) narrow-band matrices."""
    from repro.utils.stats import geometric_mean

    gl, wf = [], []
    for inst in narrow_band[:3]:  # one per (p, B) config
        gl.append(run_instance(inst, GrowLocalScheduler(), FAST).speedup)
        wf.append(run_instance(inst, WavefrontScheduler(), FAST).speedup)
    assert geometric_mean(gl) > geometric_mean(wf)


def test_solve_correct_on_every_narrow_band_instance(narrow_band):
    """The Section 5 reorder of each GrowLocal schedule gives a system
    whose solution, mapped back, is the original one."""
    from repro.scheduler.reorder import apply_reordering

    for inst in narrow_band:
        s = GrowLocalScheduler().schedule(inst.dag, 4)
        b = np.ones(inst.n)
        mat2, b2, _, perm = apply_reordering(inst.lower, b, s)
        x2 = forward_substitution(mat2, b2)
        x_ref = forward_substitution(inst.lower, b)
        np.testing.assert_allclose(x2[perm], x_ref, rtol=1e-8, atol=1e-10,
                                   err_msg=inst.name)
