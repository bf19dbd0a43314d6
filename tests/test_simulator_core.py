"""Tests for the simulator building blocks: containers, eviction, compute, reliability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmarks.base import WorkProfile
from repro.columnar.engine import _build_lane
from repro.config import DYNAMIC_MEMORY, Provider, SimulationConfig
from repro.exceptions import PlatformError
from repro.experiments.base import deploy_benchmark
from repro.faas.limits import limits_for
from repro.simulator.compute import ComputeModel
from repro.simulator.containers import Container, ContainerPool, ContainerState
from repro.simulator.eviction import AWS_EVICTION_PERIOD_S, HalfLifeEvictionPolicy, IdleTimeoutEvictionPolicy
from repro.simulator.profiles import profile_for
from repro.simulator.providers import create_platform
from repro.simulator.reliability import ReliabilityModel
from repro.simulator.step import invoke_step


def make_container(created_at=0.0, name="f", version=1, memory=128) -> Container:
    return Container(function_name=name, function_version=version, memory_mb=memory, created_at=created_at)


def make_pool(count: int, created_at: float = 0.0, name: str = "f") -> ContainerPool:
    pool = ContainerPool(name)
    for _ in range(count):
        container = make_container(created_at=created_at, name=name)
        container.mark_warm(created_at)
        pool.add(container)
    return pool


class TestContainer:
    def test_serve_updates_state_and_counters(self):
        container = make_container()
        container.serve(5.0)
        assert container.invocations == 1
        assert container.last_used_at == 5.0
        assert container.is_warm

    def test_evicted_container_cannot_serve(self):
        container = make_container()
        container.evict()
        with pytest.raises(PlatformError):
            container.serve(1.0)
        with pytest.raises(PlatformError):
            container.mark_warm(1.0)

    def test_uptime_and_idle_time(self):
        container = make_container(created_at=10.0)
        container.serve(15.0)
        assert container.uptime(20.0) == 10.0
        assert container.idle_time(20.0) == 5.0

    def test_unique_ids(self):
        assert make_container().container_id != make_container().container_id


class TestContainerPool:
    def test_warm_count_and_version_filter(self):
        pool = ContainerPool("f")
        c1 = make_container(version=1)
        c1.mark_warm(0.0)
        c2 = make_container(version=2)
        c2.mark_warm(0.0)
        pool.add(c1)
        pool.add(c2)
        assert pool.warm_count() == 2
        assert pool.warm_count(version=2) == 1

    def test_rejects_foreign_containers(self):
        pool = ContainerPool("f")
        with pytest.raises(PlatformError):
            pool.add(make_container(name="other"))

    def test_evict_all_and_prune(self):
        pool = make_pool(5)
        assert pool.evict_all() == 5
        assert pool.warm_count() == 0
        assert len(pool) == 5
        pool.prune()
        assert len(pool) == 0

    def test_total_created_counts_history(self):
        pool = make_pool(3)
        pool.evict_all()
        assert pool.total_created() == 3


class TestHalfLifeEviction:
    def test_no_eviction_within_first_period(self):
        policy = HalfLifeEvictionPolicy(period_s=380.0)
        pool = make_pool(20)
        assert policy.apply(pool, now=379.0) == 0
        assert pool.warm_count() == 20

    @pytest.mark.parametrize("d_init,periods,expected", [(20, 1, 10), (20, 2, 5), (20, 3, 2), (8, 1, 4), (8, 3, 1), (12, 2, 3)])
    def test_halving_model(self, d_init, periods, expected):
        policy = HalfLifeEvictionPolicy(period_s=380.0)
        pool = make_pool(d_init)
        policy.apply(pool, now=380.0 * periods + 1.0)
        assert pool.warm_count() == expected

    def test_eviction_is_deterministic(self):
        for _ in range(3):
            policy = HalfLifeEvictionPolicy(period_s=380.0)
            pool = make_pool(16)
            policy.apply(pool, now=381.0)
            assert pool.warm_count() == 8

    def test_default_period_matches_paper(self):
        assert AWS_EVICTION_PERIOD_S == 380.0
        assert HalfLifeEvictionPolicy().period_s == 380.0

    def test_rejects_non_positive_period(self):
        with pytest.raises(Exception):
            HalfLifeEvictionPolicy(period_s=0.0)


class TestIdleTimeoutEviction:
    def test_keeps_recently_used_containers(self):
        policy = IdleTimeoutEvictionPolicy(mean_idle_timeout_s=900.0, jitter_cv=0.0, rng=np.random.default_rng(0))
        pool = make_pool(5)
        assert policy.apply(pool, now=100.0) == 0

    def test_evicts_idle_containers_after_timeout(self):
        policy = IdleTimeoutEvictionPolicy(mean_idle_timeout_s=900.0, jitter_cv=0.0, rng=np.random.default_rng(0))
        pool = make_pool(5)
        assert policy.apply(pool, now=1000.0) == 5

    def test_jitter_makes_evictions_gradual(self):
        policy = IdleTimeoutEvictionPolicy(mean_idle_timeout_s=900.0, jitter_cv=0.6, rng=np.random.default_rng(1))
        pool = make_pool(50)
        policy.apply(pool, now=900.0)
        survivors = pool.warm_count()
        assert 0 < survivors < 50


PROFILE = WorkProfile(
    warm_compute_s=0.1,
    cold_init_s=0.2,
    instructions=1e8,
    cpu_utilization=0.95,
    peak_memory_mb=100.0,
    storage_read_bytes=1024 * 1024,
    storage_write_bytes=1024 * 1024,
    storage_read_requests=1,
    storage_write_requests=1,
    output_bytes=1000,
    code_package_mb=10.0,
)


class TestComputeModel:
    def _model(self, provider=Provider.AWS, seed=0) -> ComputeModel:
        return ComputeModel(profile_for(provider), limits_for(provider), np.random.default_rng(seed))

    def test_cpu_share_plateaus_at_one_vcpu(self):
        model = self._model()
        assert model.cpu_share(1792) == pytest.approx(1.0)
        assert model.cpu_share(3008) == pytest.approx(1.0)
        assert model.cpu_share(896) == pytest.approx(0.5)

    def test_compute_time_decreases_with_memory_until_plateau(self):
        model = self._model()
        t128 = np.median([model.compute_time(PROFILE, 128) for _ in range(50)])
        t1024 = np.median([model.compute_time(PROFILE, 1024) for _ in range(50)])
        t1792 = np.median([model.compute_time(PROFILE, 1792) for _ in range(50)])
        t3008 = np.median([model.compute_time(PROFILE, 3008) for _ in range(50)])
        assert t128 > t1024 > t1792
        assert t3008 == pytest.approx(t1792, rel=0.2)

    def test_dynamic_memory_uses_effective_size(self):
        model = self._model(Provider.AZURE)
        assert model.effective_memory(DYNAMIC_MEMORY) == profile_for(Provider.AZURE).dynamic_memory_effective_mb

    def test_gcp_compute_slower_than_aws(self):
        aws = self._model(Provider.AWS)
        gcp = self._model(Provider.GCP)
        aws_time = np.median([aws.compute_time(PROFILE, 2048) for _ in range(100)])
        gcp_time = np.median([gcp.compute_time(PROFILE, 2048) for _ in range(100)])
        assert gcp_time > aws_time

    def test_cold_init_includes_package_download(self):
        model = self._model()
        small = np.median([model.cold_init_time(PROFILE, 1024, code_package_mb=1.0) for _ in range(50)])
        large = np.median([model.cold_init_time(PROFILE, 1024, code_package_mb=240.0) for _ in range(50)])
        assert large > small

    def test_aws_cold_init_decreases_with_memory(self):
        model = self._model(Provider.AWS)
        low = np.median([model.cold_init_time(PROFILE, 128, 10.0) for _ in range(100)])
        high = np.median([model.cold_init_time(PROFILE, 2048, 10.0) for _ in range(100)])
        assert high < low

    def test_gcp_cold_init_grows_with_memory(self):
        """The paper's surprising finding: high memory hurts GCP cold starts."""
        model = self._model(Provider.GCP)
        low = np.median([model.cold_init_time(PROFILE, 256, 10.0) for _ in range(200)])
        high = np.median([model.cold_init_time(PROFILE, 4096, 10.0) for _ in range(200)])
        assert high > low

    def test_storage_time_scales_with_bytes_and_memory(self):
        model = self._model()
        big_profile = PROFILE.scaled(16.0)
        small_time = np.median([model.storage_time(PROFILE, 1024) for _ in range(50)])
        big_time = np.median([model.storage_time(big_profile, 1024) for _ in range(50)])
        assert big_time > small_time

    def test_memory_used_close_to_profile_peak(self):
        platform = create_platform(Provider.AWS, SimulationConfig(seed=0))
        fname = deploy_benchmark(platform, "thumbnailer", memory_mb=1024)
        lane = _build_lane(platform, fname)
        samples = [invoke_step(lane, False, 1, True, 0.0, None, None)[5] for _ in range(200)]
        assert np.median(samples) == pytest.approx(lane.profile.peak_memory_mb, rel=0.1)

    def test_benchmark_time_combines_compute_and_storage(self):
        model, twin = self._model(seed=5), self._model(seed=5)
        compiled = model.compile(PROFILE, 1024)
        assert compiled == twin.compile(PROFILE, 1024)
        assert model.cold_init_time(PROFILE, 1024, code_package_mb=10.0) > 0


class TestReliabilityModel:
    def _model(self, provider, seed=0, enabled=True):
        return ReliabilityModel(provider, np.random.default_rng(seed), enabled=enabled)

    def test_disabled_model_never_fails(self):
        model = self._model(Provider.GCP, enabled=False)
        decision = model.check(PROFILE, memory_mb=64, memory_used_mb=1000.0, concurrency=100)
        assert not decision.failed

    def test_gcp_kills_overcommitted_memory(self):
        model = self._model(Provider.GCP)
        decision = model.check(PROFILE, memory_mb=64, memory_used_mb=100.0)
        assert decision.failed and decision.reason == "out-of-memory"

    def test_gcp_sporadic_failures_near_the_limit(self):
        """Compression-at-256MB-style failures: a few percent, not all."""
        model = self._model(Provider.GCP)
        profile = WorkProfile(0.1, 0.1, 1e8, 0.9, peak_memory_mb=250.0)
        failures = sum(
            model.check(profile, memory_mb=256, memory_used_mb=250.0).failed for _ in range(1000)
        )
        assert 10 <= failures <= 120

    def test_aws_tolerates_borderline_memory(self):
        model = self._model(Provider.AWS)
        profile = WorkProfile(0.1, 0.1, 1e8, 0.9, peak_memory_mb=250.0)
        failures = sum(
            model.check(profile, memory_mb=256, memory_used_mb=250.0).failed for _ in range(500)
        )
        assert failures == 0

    def test_aws_kills_only_egregious_overcommit(self):
        model = self._model(Provider.AWS)
        assert model.check(PROFILE, memory_mb=128, memory_used_mb=500.0).failed
        assert not model.check(PROFILE, memory_mb=128, memory_used_mb=150.0).failed

    def test_gcp_highmem_burst_availability_failures(self):
        """image-recognition at 4096 MB with 50 concurrent calls: massive error rate."""
        model = self._model(Provider.GCP)
        failures = sum(
            model.check(PROFILE, memory_mb=4096, memory_used_mb=400.0, concurrency=50).failed
            for _ in range(500)
        )
        assert failures > 200

    def test_sequential_invocations_never_hit_burst_failures(self):
        model = self._model(Provider.GCP)
        failures = sum(
            model.check(PROFILE, memory_mb=4096, memory_used_mb=400.0, concurrency=1).failed
            for _ in range(200)
        )
        assert failures == 0

    def test_azure_dynamic_memory_never_oom(self):
        model = self._model(Provider.AZURE)
        assert not model.check(PROFILE, memory_mb=DYNAMIC_MEMORY, memory_used_mb=5000.0).failed
