"""The process-lifetime memory contract of the execution layer.

A plan is built once and reused over many solves, so a process that
serves or solves must not grow with each solve or each service it
retires.  These tests pin that nothing in the library keeps a closed
service, a closed gateway, their plans, or a solver caller's locals
alive.  A backend registry that cached a ``BackendUnavailableError``
and re-raised it on every auto-selecting lookup would hold such
references: each raise chains the caller's frames onto the cached
exception's traceback for the rest of the process.

Each test puts a backend whose factory fails first in the auto order,
so an unavailable tier is skipped on every host, numba installed or not.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.errors import BackendUnavailableError
from repro.exec import backends as backends_mod
from repro.exec import get_backend, register_backend
from repro.matrix.generators import narrow_band_lower
from repro.service import ServingGateway, SolveService
from repro.solver.sptrsv import forward_substitution

UNAVAILABLE = "test-unavailable"
VERDICT = "no such device here"


def _unavailable_factory():
    raise BackendUnavailableError(VERDICT)


@pytest.fixture
def unavailable_first(monkeypatch):
    """Register a backend that cannot run and rank it first in the auto
    order, for the length of one test."""
    monkeypatch.delenv(backends_mod.BACKEND_ENV_VAR, raising=False)
    register_backend(UNAVAILABLE, _unavailable_factory, replace=True)
    monkeypatch.setattr(
        backends_mod, "_AUTO_ORDER",
        (UNAVAILABLE,) + backends_mod._AUTO_ORDER,
    )
    yield
    backends_mod._FACTORIES.pop(UNAVAILABLE, None)
    backends_mod._INSTANCES.pop(UNAVAILABLE, None)
    backends_mod._UNAVAILABLE.pop(UNAVAILABLE, None)


@pytest.fixture(scope="module")
def lower():
    return narrow_band_lower(300, 0.05, 5.0, seed=0)


def _dead_after_collect(refs):
    gc.collect()
    return [ref() is None for ref in refs]


def _traceback_depth(exc):
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


# A plan is a slotted object without a weakref slot, so each test
# watches the plan's ``rows`` array instead: the plan references it, so
# the array dies only once the plan has.


def test_closed_services_and_their_plans_are_collectable(
    unavailable_first, lower
):
    refs = []
    for i in range(3):
        service = SolveService()
        plan = service.register(f"sys-{i}", lower)
        service.solve(f"sys-{i}", np.ones(lower.n))
        service.close()
        refs += [weakref.ref(service), weakref.ref(plan.rows)]
        del service, plan
    assert _dead_after_collect(refs) == [True] * len(refs)


def test_closed_gateway_and_its_plans_are_collectable(
    unavailable_first, lower
):
    gateway = ServingGateway(n_shards=2)
    plans = [gateway.register(f"sys-{i}", lower) for i in range(4)]
    for i in range(4):
        gateway.solve(f"sys-{i}", np.ones(lower.n))
    gateway.close()
    refs = [weakref.ref(gateway)]
    refs += [weakref.ref(shard) for shard in gateway._shards]
    refs += [weakref.ref(plan.rows) for plan in plans]
    del gateway, plans
    assert _dead_after_collect(refs) == [True] * len(refs)


def test_solver_callers_locals_are_not_retained(unavailable_first, lower):
    b = np.ones(lower.n)

    def caller():
        held = np.ones(50_000)  # a 400 KB local of the calling frame
        x = forward_substitution(lower, b)
        return x[0] + held[0]

    caller()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            caller()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 5_000_000, f"{retained / 1e6:.1f} MB retained"


def test_failed_lookups_raise_fresh_errors(unavailable_first):
    errors = []
    for _ in range(2):
        with pytest.raises(BackendUnavailableError, match=VERDICT) as info:
            get_backend(UNAVAILABLE)
        errors.append(info.value)
    first, second = errors
    assert first is not second
    assert _traceback_depth(second) == _traceback_depth(first)
    # auto-selection skips the tier without raising
    assert get_backend().name != UNAVAILABLE
    assert backends_mod._UNAVAILABLE[UNAVAILABLE] == VERDICT
