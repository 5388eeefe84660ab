"""Tests for the concurrent solve service and the thread-safe LRU cache.

Covers the concurrency layer's contracts: the shared
:class:`~repro.exec.PlanCache` survives multi-threaded hammering with
consistent accounting, and the :class:`~repro.service.SolveService`
returns batched results bit-equal to sequential single-RHS solves
whatever the interleaving, coalesces per system with each system's
requests in submission order, and keeps serving after a fault in
handling a batch.
"""

import threading

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineExceededError,
    MatrixFormatError,
    ServiceClosedError,
)
from repro.exec import (
    ExecutionBackend,
    PlanCache,
    compile_plan,
    get_backend,
)
from repro.matrix.generators import erdos_renyi_lower, narrow_band_lower
from repro.service import SolveService, SystemStats


@pytest.fixture(scope="module")
def lower():
    return narrow_band_lower(400, 0.08, 10.0, seed=0)


class _GatedBackend(ExecutionBackend):
    """The default backend, except that its first ``solve`` waits until
    ``release`` is set."""

    def __init__(self):
        self.inner = get_backend()
        self.name = self.inner.name
        self.entered = threading.Event()
        self.release = threading.Event()

    def solve(self, plan, b, x=None):
        if not self.entered.is_set():
            self.entered.set()
            if not self.release.wait(timeout=30):
                raise TimeoutError("gate never released")
        return self.inner.solve(plan, b, x)

    def solve_block(self, plan, b_block, x_block=None):
        return self.inner.solve_block(plan, b_block, x_block)


def _held_service(lower, keys, **kwargs):
    """A service whose worker is held inside the solve of a ``"gate"``
    system's request, so that everything submitted before
    ``backend.release.set()`` is queued before the worker takes any of
    it.  Registers ``keys`` (and ``"gate"``) on ``lower``."""
    backend = _GatedBackend()
    service = SolveService(backend=backend, **kwargs)
    for key in ("gate", *keys):
        service.register(key, lower)
    service.submit("gate", np.ones(lower.n))
    assert backend.entered.wait(timeout=30)
    return service, backend


def _record_completion(future, log, tag):
    """Append ``tag`` to ``log`` when ``future`` resolves (callbacks run
    on the resolving thread, in resolution order)."""
    future.add_done_callback(lambda _: log.append(tag))
    return future


class TestPlanCacheThreadSafety:
    def test_hammer_shared_lru_cache(self):
        """8 threads x 200 lookups over 40 keys on a 16-entry LRU: no
        exception, no lost update, consistent counters, bound held."""
        cache = PlanCache(max_entries=16)
        errors = []
        barrier = threading.Barrier(8)
        calls_per_thread = 200

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(calls_per_thread):
                    key = int(rng.integers(0, 40))
                    value = cache.get_or_build(key, lambda k=key: k * 10)
                    assert value == key * 10
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        # every lookup was counted exactly once as a hit or a miss
        assert cache.hits + cache.misses == 8 * calls_per_thread

    def test_racing_builders_converge_to_one_value(self):
        """When two threads race to build the same key, the first
        insertion wins and both observe the same cached object."""
        cache = PlanCache()
        barrier = threading.Barrier(4)
        seen = []

        def worker():
            barrier.wait()
            seen.append(cache.get_or_build("k", lambda: object()))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        canonical = cache.get_or_build("k", lambda: object())
        assert all(v is canonical for v in seen)


class TestSolveServiceOracle:
    def test_batched_results_bit_equal_sequential(self, lower):
        """The acceptance criterion: whatever the coalescing did, each
        client's answer is bit-equal to solving its RHS alone."""
        plan = compile_plan(lower)
        backend = get_backend()
        rng = np.random.default_rng(1)
        bs = [rng.standard_normal(lower.n) for _ in range(24)]
        with SolveService(max_batch=8) as service:
            service.register("sys", lower)
            futures = service.submit_many("sys", bs)
            xs = [f.result(timeout=30) for f in futures]
        for x, b in zip(xs, bs, strict=True):
            np.testing.assert_array_equal(x, backend.solve(plan, b))

    def test_single_submit_and_blocking_solve(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            b = np.ones(lower.n)
            x1 = service.submit("s", b).result(timeout=30)
            x2 = service.solve("s", b)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(
            x1, get_backend().solve(compile_plan(lower), b)
        )

    def test_concurrent_clients_many_systems(self, lower):
        """Interleaved submissions from several threads against several
        systems: every result still matches its own oracle."""
        other = erdos_renyi_lower(300, 0.02, seed=9)
        plans = {
            "band": compile_plan(lower),
            "er": compile_plan(other),
        }
        mats = {"band": lower, "er": other}
        backend = get_backend()
        failures = []
        with SolveService(max_batch=16) as service:
            service.register("band", lower)
            service.register("er", other)
            barrier = threading.Barrier(6)

            def client(seed):
                rng = np.random.default_rng(seed)
                key = "band" if seed % 2 else "er"
                bs = [rng.standard_normal(mats[key].n) for _ in range(10)]
                barrier.wait()
                futures = service.submit_many(key, bs)
                for b, fut in zip(bs, futures, strict=True):
                    x = fut.result(timeout=30)
                    if not np.array_equal(
                        x, backend.solve(plans[key], b)
                    ):  # pragma: no cover - failure path
                        failures.append((key, seed))

            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures

    def test_solve_block_direct_path(self, lower):
        rng = np.random.default_rng(2)
        b_block = rng.standard_normal((lower.n, 5))
        with SolveService() as service:
            service.register("s", lower)
            x_block = service.solve_block("s", b_block)
            stats = service.stats("s")
        np.testing.assert_array_equal(
            x_block,
            get_backend().solve_block(compile_plan(lower), b_block),
        )
        assert stats.n_requests == 5
        assert stats.n_batches == 1
        assert stats.max_batch_size == 5


class TestSolveServiceBehavior:
    def test_stats_track_coalescing(self, lower):
        bs = [np.ones(lower.n) for _ in range(12)]
        with SolveService(max_batch=4) as service:
            service.register("s", lower)
            for f in service.submit_many("s", bs):
                f.result(timeout=30)
            stats = service.stats("s")
        assert isinstance(stats, SystemStats)
        assert stats.n_requests == 12
        # coalescing with max_batch=4 gives batches of <= 4; at least
        # one multi-request batch must have formed
        assert stats.max_batch_size <= 4
        assert stats.n_batches < 12
        assert stats.avg_batch_size > 1.0
        assert stats.avg_latency_seconds > 0.0
        assert stats.throughput_rps > 0.0
        row = stats.as_row()
        assert row["requests"] == 12

    def test_stats_all_systems(self, lower):
        with SolveService() as service:
            service.register("a", lower)
            service.register("b", lower)
            service.solve("a", np.ones(lower.n))
            all_stats = service.stats()
        assert set(all_stats) == {"a", "b"}
        assert all_stats["a"].n_requests == 1
        assert all_stats["b"].n_requests == 0

    def test_shared_plan_cache_compiles_once(self, lower):
        cache = PlanCache()
        with SolveService(plan_cache=cache) as s1:
            s1.register("sys", lower)
        with SolveService(plan_cache=cache) as s2:
            s2.register("sys", lower)
            assert cache.hits >= 1  # second registration reused the plan
            assert s2.plan_cache is cache

    def test_unknown_system_raises(self, lower):
        with SolveService() as service:
            with pytest.raises(ConfigurationError):
                service.submit("nope", np.ones(4))

    def test_wrong_rhs_shape_raises(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            with pytest.raises(MatrixFormatError):
                service.submit("s", np.ones(lower.n - 1))

    def test_singular_system_rejected_at_registration(self):
        singular = erdos_renyi_lower(50, 0.05, seed=1)
        data = singular.data.copy()
        data[singular.indptr[1:] - 1] = 0.0  # zero every diagonal
        from repro.errors import SingularMatrixError
        from repro.matrix.csr import CSRMatrix

        bad = CSRMatrix(singular.n, singular.indptr, singular.indices,
                        data)
        with SolveService() as service:
            with pytest.raises(SingularMatrixError):
                service.register("bad", bad)

    def test_closed_service_rejects_submissions(self, lower):
        service = SolveService()
        service.register("s", lower)
        service.close()
        assert service.closed
        with pytest.raises(ConfigurationError):
            service.submit("s", np.ones(lower.n))
        service.close()  # idempotent

    def test_close_drains_pending_requests(self, lower):
        service = SolveService(max_batch=4)
        service.register("s", lower)
        futures = service.submit_many(
            "s", [np.ones(lower.n) for _ in range(16)]
        )
        service.close()  # waits for the drain
        assert all(f.done() for f in futures)
        assert all(f.exception() is None for f in futures)

    def test_max_batch_validated(self):
        with pytest.raises(ConfigurationError):
            SolveService(max_batch=0)

    def test_cancelled_future_does_not_kill_worker(self, lower):
        """A client cancelling a queued future must not crash the worker
        thread or block the rest of the batch."""
        with SolveService(max_batch=4) as service:
            service.register("s", lower)
            bs = [np.ones(lower.n) for _ in range(8)]
            futures = service.submit_many("s", bs)
            cancelled = futures[0].cancel()  # may race with the worker
            survivors = [f for f, c in zip(futures,
                                           [cancelled] + [False] * 7,
                                           strict=True)
                         if not c]
            results = [f.result(timeout=30) for f in survivors]
            assert len(results) == 8 - int(cancelled)
            # the service must still be operational afterwards
            x = service.solve("s", np.ones(lower.n))
            assert x.shape == (lower.n,)

    def test_reregistering_key_with_new_matrix_replaces_plan(self):
        """Regression: the plan cache is keyed by (key, direction), so
        re-registering a key with a *different* matrix must not serve
        the stale cached plan."""
        a = erdos_renyi_lower(120, 0.05, seed=11)
        bb = erdos_renyi_lower(120, 0.05, seed=12)  # same size, new system
        cache = PlanCache()
        backend = get_backend()
        with SolveService(plan_cache=cache) as service:
            service.register("sys", a)
            x_a = service.solve("sys", np.ones(120))
            service.register("sys", bb)
            x_b = service.solve("sys", np.ones(120))
        np.testing.assert_array_equal(
            x_a, backend.solve(compile_plan(a), np.ones(120))
        )
        np.testing.assert_array_equal(
            x_b, backend.solve(compile_plan(bb), np.ones(120))
        )
        assert not np.array_equal(x_a, x_b)
        # the stale entry was replaced, so registering bb again is a hit
        misses = cache.misses
        with SolveService(plan_cache=cache) as service:
            service.register("sys", bb)
        assert cache.misses == misses

    def test_register_rejects_foreign_precompiled_plan(self):
        """A precompiled plan from a different (same-size) matrix must be
        rejected, not silently served."""
        a = erdos_renyi_lower(120, 0.05, seed=13)
        other = erdos_renyi_lower(120, 0.05, seed=14)
        with SolveService() as service:
            with pytest.raises(MatrixFormatError):
                service.register("sys", a, plan=compile_plan(other))

    def test_register_with_precompiled_plan(self, lower):
        plan = compile_plan(lower)
        with SolveService() as service:
            returned = service.register("s", lower, plan=plan)
            assert returned is plan
            x = service.solve("s", np.ones(lower.n))
        np.testing.assert_array_equal(
            x, get_backend().solve(plan, np.ones(lower.n))
        )

    def test_repr(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            assert "SolveService" in repr(service)


class TestUnregisterAndLifecycle:
    def test_unregister_removes_and_returns_final_stats(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            service.solve("s", np.ones(lower.n))
            final = service.unregister("s")
            assert final.n_requests == 1
            assert "s" not in service.systems()
            with pytest.raises(ConfigurationError):
                service.submit("s", np.ones(lower.n))

    def test_unregister_unknown_key_raises(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            with pytest.raises(ConfigurationError):
                service.unregister("nope")

    def test_unregister_keeps_other_systems_serving(self, lower):
        with SolveService() as service:
            service.register("a", lower)
            service.register("b", lower)
            service.unregister("a")
            x = service.solve("b", np.ones(lower.n))
            assert x.shape == (lower.n,)

    def test_unregister_allowed_after_close(self, lower):
        service = SolveService()
        service.register("s", lower)
        service.close()
        final = service.unregister("s")
        assert final.key == "s"
        assert service.systems() == []

    def test_queued_requests_complete_after_unregister(self, lower):
        """Requests already queued hold their own system reference: the
        table entry going away must not fail them."""
        with SolveService(max_batch=4) as service:
            service.register("s", lower)
            futures = service.submit_many(
                "s", [np.ones(lower.n) for _ in range(8)]
            )
            service.unregister("s")
            for f in futures:
                assert f.result().shape == (lower.n,)

    def test_submit_after_close_has_a_clear_message(self, lower):
        service = SolveService()
        service.register("s", lower)
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit("s", np.ones(lower.n))
        with pytest.raises(ConfigurationError, match="closed"):
            service.solve_block("s", np.ones((lower.n, 2)))
        with pytest.raises(ConfigurationError, match="closed"):
            service.register("t", lower)

    def test_submit_after_close_raises_named_error(self, lower):
        """Regression for the promoted error type: every request path
        raises ServiceClosedError (still a ConfigurationError, so
        pre-existing handlers keep working)."""
        service = SolveService()
        service.register("s", lower)
        service.close()
        b = np.ones(lower.n)
        with pytest.raises(ServiceClosedError):
            service.submit("s", b)
        with pytest.raises(ServiceClosedError):
            service.submit_many("s", [b])
        with pytest.raises(ServiceClosedError):
            service.solve("s", b)
        with pytest.raises(ServiceClosedError):
            service.solve_block("s", np.ones((lower.n, 2)))
        assert issubclass(ServiceClosedError, ConfigurationError)


class TestAdmissionAndDeadlines:
    def test_max_queue_validated(self):
        with pytest.raises(ConfigurationError):
            SolveService(max_queue=0)

    def test_timeout_validated(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            with pytest.raises(ConfigurationError, match="timeout"):
                service.submit("s", np.ones(lower.n), timeout=0.0)
            with pytest.raises(ConfigurationError, match="timeout"):
                service.submit_many(
                    "s", [np.ones(lower.n)], timeout=-1.0
                )

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_timeout_is_refused(self, lower, timeout):
        """A NaN deadline compares false against every instant, so it
        would silently disable the deadline; refuse it with the
        infinities."""
        with SolveService() as service:
            service.register("s", lower)
            with pytest.raises(ConfigurationError, match="finite"):
                service.submit("s", np.ones(lower.n), timeout=timeout)
            with pytest.raises(ConfigurationError, match="finite"):
                service.submit_many(
                    "s", [np.ones(lower.n)], timeout=timeout
                )
            assert service.pending == 0

    def test_oversized_submission_rejected_all_or_nothing(self, lower):
        """A submit_many that cannot fit under max_queue raises
        AdmissionError and enqueues *nothing*; the service keeps
        serving afterwards."""
        with SolveService(max_queue=4) as service:
            service.register("s", lower)
            bs = [np.ones(lower.n) for _ in range(5)]
            with pytest.raises(AdmissionError, match="queue full"):
                service.submit_many("s", bs)
            stats = service.stats("s")
            assert stats.n_admission_rejections == 5
            assert stats.as_row()["admission_rejections"] == 5
            # nothing of the rejected batch entered the queue
            x = service.solve("s", np.ones(lower.n))
            assert x.shape == (lower.n,)
            assert service.stats("s").n_requests == 1

    def test_unbounded_queue_never_rejects(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            futures = service.submit_many(
                "s", [np.ones(lower.n) for _ in range(64)]
            )
            for f in futures:
                f.result(timeout=30)
            assert service.stats("s").n_admission_rejections == 0

    def test_expired_request_fails_with_deadline_error(self, lower):
        """A deadline that passes before the worker reaches the request
        fails its future with DeadlineExceededError instead of
        executing it.  timeout=1e-9 expires before the worker can even
        re-acquire the queue lock, so the sweep is deterministic."""
        with SolveService() as service:
            service.register("s", lower)
            future = service.submit("s", np.ones(lower.n),
                                    timeout=1e-9)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
            stats = service.stats("s")
            assert stats.n_deadline_misses == 1
            assert stats.as_row()["deadline_misses"] == 1
            # expired work occupied no batch slot and the worker lives
            assert stats.n_requests == 0
            x = service.solve("s", np.ones(lower.n))
            assert x.shape == (lower.n,)

    def test_generous_deadline_executes_normally(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            x = service.solve("s", np.ones(lower.n), timeout=30.0)
            assert x.shape == (lower.n,)
            assert service.stats("s").n_deadline_misses == 0

    def test_expired_requests_do_not_split_the_batch(self, lower):
        """An expired request between live same-system requests fails
        with DeadlineExceededError and the live ones around it still
        complete (the batch they share is pinned in
        TestPerKeyCoalescing)."""
        with SolveService(max_batch=8) as service:
            service.register("s", lower)
            b = np.ones(lower.n)
            live_a = service.submit_many("s", [b, b])
            dead = service.submit("s", b, timeout=1e-9)
            live_b = service.submit_many("s", [b, b])
            for f in live_a + live_b:
                assert f.result(timeout=30).shape == (lower.n,)
            with pytest.raises(DeadlineExceededError):
                dead.result(timeout=30)

    def test_queue_wait_counters_without_obs(self, lower):
        """The cheap queue-wait counter stays populated with the obs
        gate off; the histogram (and its as_row keys) appear only
        under REPRO_OBS."""
        bs = [np.ones(lower.n) for _ in range(16)]
        with SolveService(max_batch=4) as service:
            service.register("s", lower)
            for f in service.submit_many("s", bs):
                f.result(timeout=30)
            stats = service.stats("s")
        assert stats.total_queue_wait_seconds > 0.0
        assert stats.avg_queue_wait_seconds > 0.0
        # queue wait is the pre-execution share of latency
        assert (stats.total_queue_wait_seconds
                <= stats.total_latency_seconds)
        row = stats.as_row()
        assert row["avg_queue_wait_s"] == stats.avg_queue_wait_seconds
        assert stats.queue_wait_hist is None
        assert "queue_wait_p50_s" not in row

    def test_pending_counts_queued_requests(self, lower):
        with SolveService() as service:
            service.register("s", lower)
            assert service.pending == 0
            for f in service.submit_many(
                "s", [np.ones(lower.n) for _ in range(8)]
            ):
                f.result(timeout=30)
            assert service.pending == 0


class TestPerKeyCoalescing:
    """The ordering contract: requests coalesce per system however keys
    interleave, each system's requests complete in its submission
    order, and a system with waiting requests is served within one
    batch per other waiting system.  A held worker queues each backlog
    whole before the first take, so every batch is deterministic."""

    def test_interleaved_keys_coalesce_per_key(self, lower):
        plan = compile_plan(lower)
        rng = np.random.default_rng(5)
        bs = {key: [rng.standard_normal(lower.n) for _ in range(16)]
              for key in ("a", "b")}
        done = {"a": [], "b": []}
        service, backend = _held_service(lower, ["a", "b"], max_batch=4)
        with service:
            futures = {"a": [], "b": []}
            for j in range(16):
                for key in ("a", "b"):
                    futures[key].append(_record_completion(
                        service.submit(key, bs[key][j]), done[key], j
                    ))
            backend.release.set()
            xs = {key: [f.result(timeout=30) for f in futures[key]]
                  for key in futures}
            stats = service.stats()
        for key in ("a", "b"):
            assert stats[key].n_batches == 4
            assert stats[key].max_batch_size == 4
            assert done[key] == list(range(16))
            for b, x in zip(bs[key], xs[key], strict=True):
                np.testing.assert_array_equal(
                    x, backend.inner.solve(plan, b)
                )

    def test_cold_key_is_not_starved_by_a_hot_backlog(self, lower):
        done = []
        b = np.ones(lower.n)
        service, backend = _held_service(
            lower, ["hot", "cold"], max_batch=64
        )
        with service:
            hot = [
                _record_completion(f, done, "hot")
                for f in service.submit_many("hot", [b] * 200)
            ]
            cold = _record_completion(
                service.submit("cold", b), done, "cold"
            )
            backend.release.set()
            for f in hot + [cold]:
                f.result(timeout=30)
            assert service.stats("hot").n_batches == 4
        # one hot batch of 64, then the cold request; the hot key's
        # other three batches follow it
        assert done.index("cold") == 64

    def test_expired_request_does_not_split_its_keys_batch(self, lower):
        b = np.ones(lower.n)
        service, backend = _held_service(lower, ["a", "b"], max_batch=8)
        with service:
            live = []
            for j in range(6):
                if j == 3:
                    dead = service.submit("a", b, timeout=1e-9)
                live.append(service.submit("a", b))
                live.append(service.submit("b", b))
            backend.release.set()
            for f in live:
                assert f.result(timeout=30).shape == (lower.n,)
            with pytest.raises(DeadlineExceededError):
                dead.result(timeout=30)
            stats = service.stats()
        assert stats["a"].n_batches == 1
        assert stats["a"].max_batch_size == 6
        assert stats["a"].n_deadline_misses == 1
        assert stats["b"].n_batches == 1

    def test_pending_and_admission_count_every_key(self, lower):
        b = np.ones(lower.n)
        service, backend = _held_service(
            lower, ["a", "b", "c"], max_queue=8
        )
        with service:
            futures = service.submit_many("a", [b] * 4)
            futures += service.submit_many("b", [b] * 3)
            assert service.pending == 7
            with pytest.raises(AdmissionError, match="7 waiting"):
                service.submit_many("c", [b] * 2)
            futures.append(service.submit("c", b))
            assert service.pending == 8
            assert "pending=8" in repr(service)
            backend.release.set()
            for f in futures:
                f.result(timeout=30)
            assert service.pending == 0
            assert service.stats("c").n_admission_rejections == 2


class TestWorkerSupervision:
    def test_worker_survives_a_fault_in_handling_a_batch(
        self, lower, monkeypatch
    ):
        """A fault after the worker took a batch (here in the stats
        update) fails that batch's futures with the error; the worker
        keeps serving and close() still drains and returns."""
        service = SolveService()
        plan = service.register("s", lower)
        record = service._record
        faults = [RuntimeError("injected fault")]

        def flaky_record(*args, **kwargs):
            if faults:
                raise faults.pop()
            return record(*args, **kwargs)

        monkeypatch.setattr(service, "_record", flaky_record)
        b = np.random.default_rng(4).standard_normal(lower.n)
        with pytest.raises(RuntimeError, match="injected fault"):
            service.submit("s", b).result(timeout=30)
        x = service.submit("s", b).result(timeout=30)
        np.testing.assert_array_equal(x, get_backend().solve(plan, b))
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive()


class TestSharedCacheWithTuner:
    """One PlanCache shared by a live SolveService and the tuner's
    prior — no recompiles for keys either side already built, and a
    bounded LRU stays consistent under concurrent hammering from both."""

    def test_no_duplicate_compiles_and_consistent_lru(self):
        from repro.exec import PlanCache
        from repro.experiments.datasets import DatasetInstance
        from repro.machine.model import get_machine
        from repro.tuner import Autotuner

        lower = narrow_band_lower(400, 0.1, 10.0, seed=21)
        machine = get_machine("intel_xeon_6238t")
        candidates = ("growlocal", "hdagg", "wavefront")
        cache = PlanCache(max_entries=64)

        with SolveService(plan_cache=cache) as service:
            service.register("sys", lower)
            # warm pass: every (instance, scheduler, cores) triple and
            # the simulated-cycles entries are compiled exactly once
            warm = Autotuner(candidates=candidates)
            warm.tune(
                DatasetInstance("shared", lower), machine,
                n_cores=4, plan_cache=cache,
            )
            misses_after_warm = cache.misses

            errors = []
            barrier = threading.Barrier(5)

            def tune_loop():
                try:
                    barrier.wait()
                    tuner = Autotuner(candidates=candidates)
                    for _ in range(3):
                        tuner.tune(
                            DatasetInstance("shared", lower), machine,
                            n_cores=4, plan_cache=cache,
                        )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def serve_loop():
                try:
                    barrier.wait()
                    for _ in range(20):
                        service.solve("sys", np.ones(lower.n))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=tune_loop) for _ in range(4)
            ] + [threading.Thread(target=serve_loop)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not errors
            # every key was already cached by the warm pass: the
            # concurrent tuners and the serving loop added zero misses
            assert cache.misses == misses_after_warm
            assert cache.hits > misses_after_warm
            assert len(cache) <= 64
            # the service keeps serving correctly off the shared cache
            x = service.solve("sys", np.ones(lower.n))
            assert x.shape == (lower.n,)
