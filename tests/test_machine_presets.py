"""Calibration invariants of the machine presets.

The presets encode the architectural relationships Table 7.4 relies on;
these tests pin them so future re-calibrations cannot silently invert the
cross-machine story.
"""

import pytest

from repro.machine.model import get_machine


@pytest.fixture(scope="module")
def machines():
    return {
        name: get_machine(name)
        for name in ("intel_xeon_6238t", "amd_epyc_7763", "kunpeng_920")
    }


def test_core_counts_match_paper(machines):
    assert machines["intel_xeon_6238t"].n_cores == 22
    assert machines["amd_epyc_7763"].n_cores == 64
    assert machines["kunpeng_920"].n_cores == 48


def test_amd_pays_most_for_synchronization(machines):
    """Cross-chiplet AMD: highest barrier, p2p and miss costs (the cause
    of Table 7.4's lower AMD speed-ups)."""
    amd = machines["amd_epyc_7763"]
    for other in ("intel_xeon_6238t", "kunpeng_920"):
        m = machines[other]
        assert amd.barrier_cost(22) > m.barrier_cost(22)
        assert amd.p2p_latency > m.p2p_latency
        assert amd.miss_penalty > m.miss_penalty


def test_arm_between_intel_and_amd(machines):
    intel = machines["intel_xeon_6238t"]
    arm = machines["kunpeng_920"]
    amd = machines["amd_epyc_7763"]
    assert intel.barrier_cost(22) <= arm.barrier_cost(22) <= (
        amd.barrier_cost(22)
    )


def test_barrier_grows_with_cores(machines):
    for m in machines.values():
        assert m.barrier_cost(64) > m.barrier_cost(22) > m.barrier_cost(2)
        assert m.barrier_cost(1) == 0.0


def test_compute_cost_is_uniform_across_x86(machines):
    """Per-nnz compute is architecture-neutral in the model; differences
    come from synchronization and memory."""
    assert (machines["intel_xeon_6238t"].cycles_per_nnz
            == machines["amd_epyc_7763"].cycles_per_nnz)


def test_cache_smaller_than_proxy_vectors(machines):
    """The calibration requires the x-vector of typical proxies (>= 10k
    elements) to exceed per-core cache capacity, else locality effects
    vanish."""
    for m in machines.values():
        assert m.cache_lines * m.line_elems < 10_000
