"""Tests for the open-loop load generator.

Schedules must be deterministic (identical traffic across topologies),
Zipf skew must shape key choice, and the run report must account for
every scheduled arrival exactly once across ok / admission-rejected /
deadline-missed / failed.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.matrix.generators import narrow_band_lower
from repro.service import ServingGateway, SolveService, pick_balanced_keys
from repro.service.loadgen import (
    BurstPhase,
    LoadgenConfig,
    build_schedule,
    run_loadgen,
    saturation_throughput,
    zipf_weights,
)


@pytest.fixture(scope="module")
def lower():
    return narrow_band_lower(300, 0.08, 10.0, seed=0)


class TestConfig:
    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            BurstPhase(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            BurstPhase(10.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(phases=())
        with pytest.raises(ConfigurationError):
            LoadgenConfig(phases=(BurstPhase(1.0, 1.0),), zipf_s=-0.1)
        with pytest.raises(ConfigurationError):
            LoadgenConfig(
                phases=(BurstPhase(1.0, 1.0),), timeout_s=0.0
            )

    @pytest.mark.parametrize("value", [
        pytest.param(float("inf"), id="inf"),
        pytest.param(float("nan"), id="nan"),
        pytest.param(float("-inf"), id="-inf"),
    ])
    def test_non_finite_values_are_refused(self, value):
        """An infinite rate or duration would make build_schedule loop
        forever, a NaN one would build an empty run, and a NaN deadline
        never expires: all are configuration errors."""
        with pytest.raises(ConfigurationError, match="rate_rps"):
            BurstPhase(value, 1.0)
        with pytest.raises(ConfigurationError, match="duration_s"):
            BurstPhase(10.0, value)
        phases = (BurstPhase(10.0, 1.0),)
        with pytest.raises(ConfigurationError, match="zipf_s"):
            LoadgenConfig(phases=phases, zipf_s=value)
        with pytest.raises(ConfigurationError, match="timeout_s"):
            LoadgenConfig(phases=phases, timeout_s=value)

    def test_duration_and_offered_rate(self):
        config = LoadgenConfig(
            phases=(BurstPhase(100.0, 1.0), BurstPhase(400.0, 1.0))
        )
        assert config.duration_s == pytest.approx(2.0)
        # duration-weighted mean of 100 and 400 over equal halves
        assert config.offered_rate_rps == pytest.approx(250.0)


class TestZipfWeights:
    def test_uniform_at_zero(self):
        np.testing.assert_allclose(zipf_weights(5, 0.0), [0.2] * 5)

    def test_skew_orders_ranks(self):
        w = zipf_weights(6, 1.2)
        assert all(w[i] > w[i + 1] for i in range(5))
        assert w.sum() == pytest.approx(1.0)

    def test_validates(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0, 1.0)


class TestBuildSchedule:
    def test_deterministic_given_seed(self):
        config = LoadgenConfig(
            phases=(BurstPhase(500.0, 0.5),), zipf_s=1.0, seed=42
        )
        assert build_schedule(config, 4) == build_schedule(config, 4)
        other = LoadgenConfig(
            phases=(BurstPhase(500.0, 0.5),), zipf_s=1.0, seed=43
        )
        assert build_schedule(config, 4) != build_schedule(other, 4)

    def test_arrivals_sorted_and_bounded(self):
        config = LoadgenConfig(
            phases=(BurstPhase(200.0, 0.5), BurstPhase(800.0, 0.25)),
            seed=1,
        )
        schedule = build_schedule(config, 3)
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < 0.75 for t in times)
        assert all(0 <= slot < 3 for _, slot in schedule)

    def test_rate_roughly_respected(self):
        config = LoadgenConfig(phases=(BurstPhase(1000.0, 1.0),), seed=2)
        schedule = build_schedule(config, 2)
        # Poisson(1000) over 1s; 5 sigma ≈ ±158
        assert 800 <= len(schedule) <= 1200

    def test_zipf_skew_shapes_key_choice(self):
        config = LoadgenConfig(
            phases=(BurstPhase(2000.0, 1.0),), zipf_s=1.5, seed=3
        )
        schedule = build_schedule(config, 4)
        counts = np.bincount(
            [slot for _, slot in schedule], minlength=4
        )
        assert counts[0] > counts[1] > counts[3]
        assert counts[0] > len(schedule) / 2


class TestRunLoadgen:
    def test_accounting_sums_to_schedule(self, lower):
        keys = pick_balanced_keys(2, 2)
        rhs = {key: np.ones(lower.n) for key in keys}
        config = LoadgenConfig(
            phases=(BurstPhase(400.0, 0.25),), zipf_s=1.0, seed=5
        )
        with ServingGateway(n_shards=2) as gateway:
            for key in keys:
                gateway.register(key, lower)
            report = run_loadgen(gateway, keys, rhs, config)
        assert report.n_requests == len(
            build_schedule(config, len(keys))
        )
        assert (
            report.n_ok
            + report.n_admission_rejected
            + report.n_deadline_missed
            + report.n_failed
        ) == report.n_requests
        assert report.n_ok > 0
        assert report.latency_p50_s > 0.0
        assert report.latency_p99_s >= report.latency_p90_s
        assert report.latency_p90_s >= report.latency_p50_s
        assert report.total_execute_s > 0.0
        assert report.total_queue_wait_s >= 0.0
        assert len(report.per_shard_requests) == 2
        assert sum(report.per_shard_requests) == report.n_ok

    def test_works_against_bare_service(self, lower):
        config = LoadgenConfig(phases=(BurstPhase(300.0, 0.2),), seed=6)
        with SolveService() as service:
            service.register("sys", lower)
            report = run_loadgen(
                service, ["sys"], {"sys": np.ones(lower.n)}, config
            )
        assert report.n_ok == report.n_requests
        # bare service reports a single pseudo-shard
        assert report.per_shard_requests == [report.n_ok]

    def test_bounded_queue_rejections_counted(self, lower):
        keys = pick_balanced_keys(2, 2)
        rhs = {key: np.ones(lower.n) for key in keys}
        config = LoadgenConfig(
            phases=(BurstPhase(5000.0, 0.2),), seed=7
        )
        with ServingGateway(n_shards=2, max_queue=4) as gateway:
            for key in keys:
                gateway.register(key, lower)
            report = run_loadgen(gateway, keys, rhs, config)
        assert report.n_admission_rejected > 0
        assert (
            report.n_ok + report.n_admission_rejected
            == report.n_requests
        )

    def test_tight_deadline_misses_counted(self, lower):
        config = LoadgenConfig(
            phases=(BurstPhase(2000.0, 0.1),),
            seed=8,
            timeout_s=1e-9,
        )
        with SolveService() as service:
            service.register("sys", lower)
            report = run_loadgen(
                service, ["sys"], {"sys": np.ones(lower.n)}, config
            )
        assert report.n_deadline_missed > 0
        assert report.n_failed == 0

    def test_missing_rhs_rejected(self, lower):
        config = LoadgenConfig(phases=(BurstPhase(10.0, 0.1),))
        with SolveService() as service:
            service.register("sys", lower)
            with pytest.raises(ConfigurationError):
                run_loadgen(service, ["sys"], {}, config)

    def test_report_as_dict_round_trips(self, lower):
        config = LoadgenConfig(phases=(BurstPhase(200.0, 0.1),), seed=9)
        with SolveService() as service:
            service.register("sys", lower)
            report = run_loadgen(
                service, ["sys"], {"sys": np.ones(lower.n)}, config
            )
        payload = report.as_dict()
        assert payload["n_requests"] == report.n_requests
        assert payload["latency_p99_s"] == report.latency_p99_s
        assert isinstance(payload["per_shard_requests"], list)


class TestSaturation:
    def test_counts_all_requests(self, lower):
        keys = pick_balanced_keys(2, 2)
        rhs = {key: np.ones(lower.n) for key in keys}
        with ServingGateway(n_shards=2) as gateway:
            for key in keys:
                gateway.register(key, lower)
            out = saturation_throughput(gateway, keys, rhs, 40)
        assert out["n_requests"] == 40.0
        assert out["throughput_rps"] > 0.0
        assert out["elapsed_s"] > 0.0

    def test_validates(self, lower):
        with SolveService() as service:
            service.register("sys", lower)
            with pytest.raises(ConfigurationError):
                saturation_throughput(
                    service, ["sys"], {"sys": np.ones(lower.n)}, 0
                )
