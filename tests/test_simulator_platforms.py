"""Tests for the simulated FaaS platforms (AWS / GCP / Azure / IaaS)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DYNAMIC_MEMORY, FunctionConfig, Language, Provider, SimulationConfig, StartType, TriggerType
from repro.exceptions import (
    ConfigurationError,
    FunctionAlreadyExistsError,
    FunctionNotFoundError,
    PlatformError,
)
from repro.experiments.base import deploy_benchmark
from repro.faas.platform import LogQueryType
from repro.simulator.iaas import IaaSPlatform
from repro.simulator.providers import AWSLambdaSimulator, AzureFunctionsSimulator, GoogleCloudFunctionsSimulator, create_platform

from generator_loop import generator_run


class TestDeployment:
    def test_package_code_reports_benchmark_size(self, aws):
        package = aws.package_code("image-recognition", Language.PYTHON)
        assert package.size_mb == pytest.approx(240.0)
        assert package.benchmark == "image-recognition"

    def test_gcp_package_clamped_to_deployment_limit(self, gcp):
        package = gcp.package_code("image-recognition", Language.PYTHON)
        assert package.size_mb == pytest.approx(100.0)

    def test_package_code_rejects_missing_language(self, aws):
        with pytest.raises(PlatformError):
            aws.package_code("compression", Language.NODEJS)

    def test_create_function_and_lookup(self, aws):
        package = aws.package_code("thumbnailer", Language.PYTHON)
        function = aws.create_function("thumb", package, FunctionConfig(memory_mb=512))
        assert aws.get_function("thumb") is function
        assert aws.functions() == ["thumb"]

    def test_duplicate_function_rejected(self, aws):
        package = aws.package_code("thumbnailer", Language.PYTHON)
        aws.create_function("thumb", package, FunctionConfig(memory_mb=512))
        with pytest.raises(FunctionAlreadyExistsError):
            aws.create_function("thumb", package, FunctionConfig(memory_mb=512))

    def test_invalid_memory_rejected_on_aws(self, aws):
        package = aws.package_code("thumbnailer", Language.PYTHON)
        with pytest.raises(ConfigurationError):
            aws.create_function("thumb", package, FunctionConfig(memory_mb=64))

    def test_azure_only_accepts_dynamic_memory(self, azure):
        package = azure.package_code("thumbnailer", Language.PYTHON)
        with pytest.raises(ConfigurationError):
            azure.create_function("thumb", package, FunctionConfig(memory_mb=512))
        azure.create_function("thumb", package, FunctionConfig(memory_mb=DYNAMIC_MEMORY))

    def test_timeout_above_limit_rejected(self, aws):
        package = aws.package_code("thumbnailer", Language.PYTHON)
        with pytest.raises(PlatformError):
            aws.create_function("thumb", package, FunctionConfig(memory_mb=512, timeout_s=3600.0))

    def test_missing_function_errors(self, aws):
        with pytest.raises(FunctionNotFoundError):
            aws.get_function("nope")
        with pytest.raises(FunctionNotFoundError):
            aws.invoke("nope", payload={})

    def test_delete_function(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=512)
        aws.delete_function(fname)
        assert aws.functions() == []

    def test_update_function_bumps_version_and_evicts(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=512)
        aws.invoke(fname, payload={})
        assert aws.warm_container_count(fname) == 1
        aws.update_function(fname, config=FunctionConfig(memory_mb=1024))
        assert aws.get_function(fname).version == 2
        assert aws.warm_container_count(fname) == 0


class TestInvocationLifecycle:
    def test_first_invocation_cold_then_warm(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        first = aws.invoke(fname, payload={})
        second = aws.invoke(fname, payload={})
        assert first.start_type is StartType.COLD
        assert second.start_type is StartType.WARM
        assert first.client_time_s > second.client_time_s

    def test_enforce_cold_start(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        aws.invoke(fname, payload={})
        aws.enforce_cold_start(fname)
        record = aws.invoke(fname, payload={})
        assert record.start_type is StartType.COLD

    def test_clock_advances_by_client_time(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        start = aws.clock.now()
        record = aws.invoke(fname, payload={})
        assert aws.clock.now() == pytest.approx(start + record.client_time_s)

    def test_time_ordering_benchmark_provider_client(self, aws):
        fname = deploy_benchmark(aws, "thumbnailer", memory_mb=1024)
        record = aws.invoke(fname, payload={})
        assert record.benchmark_time_s <= record.provider_time_s <= record.client_time_s

    def test_invocation_record_billing_fields(self, aws):
        fname = deploy_benchmark(aws, "thumbnailer", memory_mb=1024)
        record = aws.invoke(fname, payload={})
        assert record.billed_duration_s >= record.provider_time_s
        assert record.billed_duration_s == pytest.approx(np.ceil(record.provider_time_s * 10) / 10, abs=0.11)
        assert record.cost.total > 0
        assert record.memory_declared_mb == 1024

    def test_batch_invocations_use_distinct_containers(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        records = aws.invoke_batch(fname, 10)
        assert len({r.container_id for r in records}) == 10
        assert all(r.start_type is StartType.COLD for r in records)
        assert aws.warm_container_count(fname) == 10

    def test_warm_batch_reuses_containers(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        aws.invoke_batch(fname, 10)
        warm = aws.invoke_batch(fname, 10)
        assert all(r.start_type is StartType.WARM for r in warm)
        assert aws.warm_container_count(fname) == 10

    def test_consecutive_aws_invocations_always_warm(self, aws):
        """Section 6.2 Q3: AWS consecutive warm invocations always hit warm containers."""
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        aws.invoke(fname, payload={})
        records = [aws.invoke(fname, payload={}) for _ in range(30)]
        assert all(r.start_type is StartType.WARM for r in records)

    def test_gcp_shows_spurious_cold_starts(self, gcp):
        """Section 6.2 Q3: GCP produces unexpected cold starts for sequential calls."""
        fname = deploy_benchmark(gcp, "graph-bfs", memory_mb=1024)
        gcp.invoke(fname, payload={})
        records = [gcp.invoke(fname, payload={}) for _ in range(60)]
        cold = sum(r.start_type is StartType.COLD for r in records)
        assert cold > 0

    def test_sdk_trigger_cheaper_than_http(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        http = aws.create_trigger(fname, TriggerType.HTTP)
        sdk = aws.create_trigger(fname, TriggerType.SDK)
        http_overheads = [http.invoke().invocation_overhead_s for _ in range(20)]
        sdk_overheads = [sdk.invoke().invocation_overhead_s for _ in range(20)]
        assert np.median(sdk_overheads) < np.median(http_overheads)

    def test_all_trigger_types_are_implemented(self, aws):
        """Timer, storage and queue triggers are part of the platform model."""
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        for trigger_type in TriggerType:
            trigger = aws.create_trigger(fname, trigger_type)
            assert trigger.trigger_type is trigger_type
            record = trigger.invoke()
            assert record.function_name == fname
        # Async channels take the internal (SDK-like) path, not the gateway.
        queue_overheads = [
            aws.create_trigger(fname, TriggerType.QUEUE).invoke().invocation_overhead_s
            for _ in range(20)
        ]
        http_overheads = [
            aws.create_trigger(fname, TriggerType.HTTP).invoke().invocation_overhead_s
            for _ in range(20)
        ]
        assert np.median(queue_overheads) < np.median(http_overheads)

    def test_query_logs(self, aws):
        fname = deploy_benchmark(aws, "graph-bfs", memory_mb=1024)
        aws.invoke(fname, payload={})
        aws.invoke(fname, payload={})
        assert len(aws.query_logs(fname, LogQueryType.TIME)) == 2
        assert len(aws.query_logs(fname, LogQueryType.MEMORY)) == 2
        assert all(cost > 0 for cost in aws.query_logs(fname, LogQueryType.COST))

    def test_timeout_enforcement(self, aws):
        fname = deploy_benchmark(aws, "compression", memory_mb=256, timeout_s=0.1)
        record = aws.invoke(fname, payload={})
        assert not record.success and record.error == "timeout"

    def test_payload_bytes_override_increases_overhead(self, aws):
        fname = deploy_benchmark(aws, "dynamic-html", memory_mb=256)
        aws.invoke(fname, payload={})
        small = np.median([aws.invoke(fname, payload={}, payload_bytes=1024).invocation_overhead_s for _ in range(10)])
        large = np.median(
            [aws.invoke(fname, payload={}, payload_bytes=5 * 1024 * 1024).invocation_overhead_s for _ in range(10)]
        )
        assert large > small

    def test_reproducibility_with_same_seed(self):
        results = []
        for _ in range(2):
            platform = AWSLambdaSimulator(simulation=SimulationConfig(seed=5))
            fname = deploy_benchmark(platform, "thumbnailer", memory_mb=1024)
            records = [platform.invoke(fname, payload={}) for _ in range(5)]
            results.append([r.client_time_s for r in records])
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        times = []
        for seed in (1, 2):
            platform = AWSLambdaSimulator(simulation=SimulationConfig(seed=seed))
            fname = deploy_benchmark(platform, "thumbnailer", memory_mb=1024)
            times.append(platform.invoke(fname, payload={}).client_time_s)
        assert times[0] != times[1]


class TestCrossProviderBehaviour:
    def _warm_median(self, platform, benchmark="thumbnailer", memory=2048, n=30):
        memory = memory if platform.limits.memory_static else DYNAMIC_MEMORY
        fname = deploy_benchmark(platform, benchmark, memory_mb=memory)
        platform.invoke(fname, payload={})
        times = []
        while len(times) < n:
            record = platform.invoke(fname, payload={})
            if record.success and record.start_type is StartType.WARM:
                times.append(record.client_time_s)
        return float(np.median(times))

    def test_aws_fastest_on_storage_bound_benchmark(self, simulation):
        aws = create_platform(Provider.AWS, simulation=simulation)
        gcp = create_platform(Provider.GCP, simulation=simulation)
        assert self._warm_median(aws) < self._warm_median(gcp)

    def test_execution_time_decreases_with_memory_on_aws(self, aws):
        medians = {}
        for memory in (128, 512, 2048):
            fname = deploy_benchmark(aws, "thumbnailer", memory_mb=memory, function_name=f"thumb-{memory}")
            aws.invoke(fname, payload={})
            times = [aws.invoke(fname, payload={}).benchmark_time_s for _ in range(20)]
            medians[memory] = np.median(times)
        assert medians[128] > medians[512] > medians[2048]

    def test_gcp_image_recognition_fails_at_512mb_occasionally(self, gcp):
        fname = deploy_benchmark(gcp, "image-recognition", memory_mb=512)
        records = []
        for _ in range(15):
            records.extend(gcp.invoke_batch(fname, 10))
        failures = [r for r in records if not r.success and r.error == "out-of-memory"]
        assert failures, "expected sporadic out-of-memory failures on GCP at 512 MB"
        assert len(failures) < len(records) * 0.5

    def test_aws_image_recognition_stable_at_512mb(self, aws):
        fname = deploy_benchmark(aws, "image-recognition", memory_mb=512)
        records = aws.invoke_batch(fname, 30)
        assert all(r.success for r in records)

    def test_gcp_highmem_burst_availability_errors(self, gcp):
        fname = deploy_benchmark(gcp, "image-recognition", memory_mb=4096)
        records = gcp.invoke_batch(fname, 50)
        error_rate = sum(not r.success for r in records) / len(records)
        assert error_rate > 0.3

    def test_azure_bursts_reuse_function_app_instances(self, azure):
        fname = deploy_benchmark(azure, "thumbnailer", memory_mb=DYNAMIC_MEMORY)
        azure.invoke_batch(fname, 8)
        records = azure.invoke_batch(fname, 40)
        warm = sum(r.start_type is StartType.WARM for r in records)
        # A single warm app instance can absorb several concurrent executions,
        # so most of the burst avoids cold starts (Section 3.3).
        assert warm >= len(records) // 2

    def test_azure_concurrent_invocations_more_variable_than_sequential(self, azure):
        fname = deploy_benchmark(azure, "compression", memory_mb=DYNAMIC_MEMORY)
        azure.invoke_batch(fname, 8)
        sequential = [azure.invoke(fname, payload={}).client_time_s for _ in range(40)]
        concurrent = [r.client_time_s for r in azure.invoke_batch(fname, 40) if r.success]
        cv_seq = np.std(sequential) / np.mean(sequential)
        cv_conc = np.std(concurrent) / np.mean(concurrent)
        assert cv_conc > cv_seq

    def test_cold_warm_ratio_largest_for_image_recognition(self, aws):
        ratios = {}
        for benchmark, memory in (("image-recognition", 2048), ("compression", 2048)):
            fname = deploy_benchmark(aws, benchmark, memory_mb=memory, function_name=f"{benchmark}-ratio")
            cold = []
            for _ in range(5):
                aws.enforce_cold_start(fname)
                cold.append(aws.invoke(fname, payload={}).client_time_s)
            warm = [aws.invoke(fname, payload={}).client_time_s for _ in range(10)]
            ratios[benchmark] = np.median(cold) / np.median(warm)
        # Figure 4: image-recognition has by far the largest cold overhead,
        # compression the smallest (long-running function hides the cold start).
        assert ratios["image-recognition"] > 3.0
        assert ratios["compression"] < 2.0
        assert ratios["image-recognition"] > ratios["compression"]


class TestIaaS:
    def test_invocations_are_always_warm(self, simulation):
        platform = IaaSPlatform(simulation=simulation)
        fname = deploy_benchmark(platform, "thumbnailer", memory_mb=1024)
        records = [platform.invoke(fname, payload={}) for _ in range(5)]
        assert all(r.start_type is StartType.WARM for r in records)

    def test_faster_than_lambda_at_comparable_resources(self, simulation):
        """Table 5: the VM outperforms warm Lambda executions."""
        iaas = IaaSPlatform(simulation=simulation)
        aws = create_platform(Provider.AWS, simulation=simulation)
        iaas_fname = deploy_benchmark(iaas, "thumbnailer", memory_mb=1024)
        aws_fname = deploy_benchmark(aws, "thumbnailer", memory_mb=1024)
        aws.invoke(aws_fname, payload={})
        iaas_times = [iaas.invoke(iaas_fname, payload={}).provider_time_s for _ in range(30)]
        aws_times = [aws.invoke(aws_fname, payload={}).provider_time_s for _ in range(30)]
        assert np.median(iaas_times) < np.median(aws_times)

    def test_cloud_storage_mode_slower_than_local(self, simulation):
        local = IaaSPlatform(simulation=simulation, use_cloud_storage=False)
        cloud = IaaSPlatform(simulation=simulation, use_cloud_storage=True)
        local_fname = deploy_benchmark(local, "compression", memory_mb=1024)
        cloud_fname = deploy_benchmark(cloud, "compression", memory_mb=1024)
        local_times = [local.invoke(local_fname, payload={}).provider_time_s for _ in range(20)]
        cloud_times = [cloud.invoke(cloud_fname, payload={}).provider_time_s for _ in range(20)]
        assert np.median(cloud_times) > np.median(local_times)

    def test_vm_heap_stays_bounded_over_sequential_invokes(self):
        """Each invoke consumes the VM's MRU entry instead of stacking one
        more; the records match the scan-only acquisition exactly."""

        def invoke_1000(pick: bool):
            platform = IaaSPlatform(simulation=SimulationConfig(seed=3))
            fname = deploy_benchmark(platform, "dynamic-html", memory_mb=1024)
            pool = platform._state[fname].pool
            if not pick:
                pool.pick_mru = lambda version: None
            return [platform.invoke(fname, payload={}) for _ in range(1000)], pool

        records, pool = invoke_1000(pick=True)
        assert len(pool.all_containers()) == 1
        assert sum(len(heap) for heap in pool._mru.values()) <= 2
        scanned, _ = invoke_1000(pick=False)
        assert records == scanned

    def test_hourly_cost_matches_t2_micro(self, simulation):
        assert IaaSPlatform(simulation=simulation).hourly_cost() == pytest.approx(0.0116)

    def test_max_requests_per_hour(self, simulation):
        platform = IaaSPlatform(simulation=simulation)
        fname = deploy_benchmark(platform, "graph-bfs", memory_mb=1024)
        rate = platform.max_requests_per_hour(fname, samples=20)
        assert rate > 1000

    def test_create_platform_factory(self, simulation):
        assert isinstance(create_platform(Provider.IAAS, simulation=simulation), IaaSPlatform)
        assert isinstance(create_platform(Provider.AWS, simulation=simulation), AWSLambdaSimulator)
        assert isinstance(create_platform(Provider.GCP, simulation=simulation), GoogleCloudFunctionsSimulator)
        assert isinstance(create_platform(Provider.AZURE, simulation=simulation), AzureFunctionsSimulator)
        with pytest.raises(ValueError):
            create_platform(Provider.LOCAL, simulation=simulation)

    def test_execute_kernels_mode_returns_real_output(self, simulation):
        platform = create_platform(Provider.AWS, simulation=simulation, execute_kernels=True)
        fname = deploy_benchmark(platform, "graph-bfs", memory_mb=1024)
        from repro.benchmarks.base import BenchmarkContext, InputSize
        from repro.benchmarks.registry import default_registry

        context = BenchmarkContext(storage=platform.object_store, rng=np.random.default_rng(0))
        event = default_registry().get("graph-bfs").generate_input(InputSize.TEST, context)
        record = platform.invoke(fname, payload=event)
        assert record.output and "result" in record.output
        assert record.output_bytes > 100
        assert record.output["num_vertices"] == 128

    def test_kernel_mode_prices_and_downloads_the_actual_output(self, simulation):
        """A kernel's real output replaces the profile's output size in the
        response download time and in the static (egress) costs."""
        from repro.benchmarks.base import BenchmarkContext, InputSize
        from repro.benchmarks.registry import default_registry

        records = []
        for execute_kernels in (True, False):
            platform = create_platform(Provider.GCP, simulation=simulation, execute_kernels=execute_kernels)
            fname = deploy_benchmark(platform, "graph-bfs", memory_mb=1024)
            context = BenchmarkContext(storage=platform.object_store, rng=np.random.default_rng(0))
            event = default_registry().get("graph-bfs").generate_input(InputSize.TEST, context)
            records.append(platform.invoke(fname, payload=event))
        kernel, modelled = records
        profile = platform._class_of(platform.get_function(fname), platform._state[fname]).profile
        assert modelled.output_bytes == profile.output_bytes != kernel.output_bytes
        assert kernel.provider_time_s == modelled.provider_time_s
        expected = platform.billing.invocation_cost(
            kernel.provider_time_s,
            1024,
            kernel.memory_used_mb,
            output_bytes=kernel.output_bytes,
            storage_requests=profile.storage_read_requests + profile.storage_write_requests,
        )
        assert kernel.cost == expected and kernel.cost.egress_cost > 0
        bandwidth = platform.performance.invocation.response_bandwidth_mbps * 1024 * 1024
        assert kernel.client_time_s - modelled.client_time_s == pytest.approx(
            (kernel.output_bytes - modelled.output_bytes) / bandwidth, rel=1e-6
        )


@pytest.mark.parametrize("loop", ("columnar", "generator"))
def test_unencodable_payload_reserves_no_sandbox(loop):
    """A payload whose JSON encoding fails raises before any sandbox is
    reserved, on both replay loops."""
    from repro.faas.invocation import InvocationRequest

    platform = create_platform(Provider.AWS, SimulationConfig(seed=1))
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
    requests = [
        InvocationRequest(fname, submitted_at=0.0),
        InvocationRequest(fname, payload={(1, 2): 3}, submitted_at=10.0),
    ]
    with pytest.raises(TypeError):
        if loop == "columnar":
            platform.run_workload(requests)
        else:
            generator_run(platform, requests)
    assert platform._state[fname].pool._in_use == {}


@pytest.mark.parametrize("provider", (Provider.AWS, Provider.IAAS))
def test_invoked_platform_is_freed_without_the_cycle_collector(provider):
    """The generator loop caches a lane on each runtime state; the lane must
    not point back at its state or platform, or every invoked platform
    would wait for the cyclic garbage collector."""
    import gc
    import weakref

    if provider is Provider.IAAS:
        platform = IaaSPlatform(SimulationConfig(seed=1))
    else:
        platform = create_platform(provider, SimulationConfig(seed=1))
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=1024)
    platform.invoke(fname, payload={})
    refs = (weakref.ref(platform), weakref.ref(platform._state[fname]))
    enabled = gc.isenabled()
    gc.disable()
    try:
        del platform
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_deleted_function_leaves_no_runtime_state():
    """delete_function drops the function's runtime state, so a later replay
    that announces fault windows for every known function does not trip over
    the deleted one."""
    from repro.faas.invocation import InvocationRequest
    from repro.faults import FaultPlaneConfig, OutageWindow

    faults = FaultPlaneConfig(outages=(OutageWindow(start_s=1.0, duration_s=2.0),))
    platform = create_platform(Provider.AWS, SimulationConfig(seed=1, faults=faults))
    deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="gone")
    platform.invoke("gone", payload={})
    platform.delete_function("gone")
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="kept")
    # A lazy stream has no function list, so the replay announces the
    # windows of every function with runtime state.
    requests = (InvocationRequest(fname, submitted_at=float(t)) for t in range(5))
    result = platform.run_workload(requests, timeseries=1.0)
    assert result.invocation_count == 5
    assert sorted(platform._state) == ["kept"]


def test_redeployed_sandbox_draws_a_fresh_idle_timeout():
    """delete + create under the same name mints the same sandbox id again;
    the idle-timeout policy must draw that sandbox a new timeout instead of
    reusing the deleted deployment's."""
    platform = create_platform(Provider.GCP, SimulationConfig(seed=3))
    policy = platform.eviction_policy
    timeouts = []
    for _ in range(2):
        deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="web")
        record = platform.invoke("web", payload={})
        assert record.container_id == "web-c00000001"
        platform.warm_container_count("web")  # the policy ingests the sandbox
        pool = platform._state["web"].pool
        timeouts.append(policy._timeout_for(pool, pool.creation_log[0]))
        platform.delete_function("web")
    assert timeouts[0] != timeouts[1]


def test_pool_prunes_itself_during_long_idle_eviction_replay(monkeypatch):
    """A long GCP replay with many idle evictions keeps the pool's
    bookkeeping within a small multiple of its live sandboxes, and pruning
    changes no simulated output."""
    from repro.simulator.containers import ContainerPool
    from repro.workload import BurstyArrivals, WorkloadTrace

    trace = WorkloadTrace.synthesize(
        "web",
        BurstyArrivals(on_rate_per_s=10.0, mean_on_s=20.0, mean_off_s=1500.0),
        duration_s=6 * 3600.0,
        rng=9,
    )

    def replay():
        platform = create_platform(Provider.GCP, SimulationConfig(seed=5))
        deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="web")
        result = platform.run_workload(trace, keep_records=False)
        return result, platform._state["web"].pool

    result, pool = replay()
    live = pool.warm_count()
    assert pool.total_created() > 10 * len(pool)
    assert len(pool) <= 2 * live
    # The numbers the replay gave before pools pruned themselves.
    assert (result.invocation_count, result.cold_start_total, pool.total_created()) == (4532, 451, 451)
    assert result.cost_usd_total == 0.006266651709365505

    def outcome(result):
        row = result.summary_row()
        del row["throughput_inv_per_s"]  # wall clock
        return row, result.to_rows()

    monkeypatch.setattr(ContainerPool, "prune", lambda self: None)
    unpruned, unpruned_pool = replay()
    assert len(unpruned_pool) == pool.total_created()
    assert outcome(unpruned) == outcome(result)
