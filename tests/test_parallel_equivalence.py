"""Sharded parallel replay must equal serial replay — bit for bit.

The contract pinned here (see ``docs/architecture.md``, "Parallel replay &
determinism"):

* **record mode** — the merged record list of a sharded replay is
  ``==``-identical to the serial one, for every provider × arrival pattern,
  on both backends and any worker count;
* **streaming mode** — merged accumulators equal the serial streaming
  aggregates *exactly* for counts, cost sums, span, min/max and the
  per-function percentile state (each function lives in one shard, so even
  the reservoir-backed percentiles are byte-identical);
* **workflows** — per-execution results (sorted by execution index) and all
  merged totals equal serial replay, including the hash-seeded trigger-edge
  delays, because global execution indices ride along with the shards.

``peak_in_flight`` is exempt only in streaming mode (max-over-shards lower
bound) and ``wall_clock_s`` always (it is a measurement).
"""

from __future__ import annotations

import pytest

from repro.config import Provider, SimulationConfig
from repro.exceptions import ConfigurationError
from repro.experiments.base import deploy_benchmark
from repro.faas.invocation import InvocationRecord
from repro.parallel import PlatformSnapshot, ShardPlanner
from repro.population import PopulationSpec, replay_population
from repro.simulator.providers import create_platform
from repro.workload import (
    BurstyArrivals,
    ConstantRateArrivals,
    PoissonArrivals,
    WorkloadTrace,
)
from repro.workload.engine import WorkloadEngine, _ReplayAccumulator, streaming_result
from repro.workload.scenario import standard_scenario
from repro.workflows import standard_workflow, synthesize_workflow_arrivals
from repro.workflows.spec import merge_workflow_arrivals

PROVIDERS = (Provider.AWS, Provider.GCP, Provider.AZURE)
PATTERNS = ("poisson", "bursty", "constant")

_PROCESSES = {
    "poisson": lambda: PoissonArrivals(6.0),
    "bursty": lambda: BurstyArrivals(on_rate_per_s=20.0, mean_on_s=4.0, mean_off_s=10.0),
    "constant": lambda: ConstantRateArrivals(5.0),
}

_DEPLOYMENTS = (
    ("web", "dynamic-html", 256),
    ("thumbs", "thumbnailer", 1024),
    ("arch", "compression", 1024),
)


def _platform(provider: Provider, seed: int = 7):
    platform = create_platform(provider, SimulationConfig(seed=seed))
    for fname, benchmark, memory_mb in _DEPLOYMENTS:
        deploy_benchmark(
            platform,
            benchmark,
            memory_mb=memory_mb if platform.limits.memory_static else 0,
            function_name=fname,
        )
    return platform


def _trace(pattern: str, duration_s: float = 60.0):
    traces = [
        WorkloadTrace.synthesize(
            fname, _PROCESSES[pattern](), duration_s=duration_s, rng=300 + index
        )
        for index, (fname, _, _) in enumerate(_DEPLOYMENTS)
    ]
    return WorkloadTrace.merge(*traces)


def _assert_streaming_equal(serial, parallel, check_peak: bool = False) -> None:
    """Every merged streaming statistic (except wall clock) equals serial."""
    assert parallel.records == []
    assert parallel.invocations == serial.invocations
    assert parallel.cold_start_total == serial.cold_start_total
    assert parallel.failure_total == serial.failure_total
    assert parallel.total_cost_usd == serial.total_cost_usd  # exact, sorted-name reduction
    assert parallel.simulated_span_s == serial.simulated_span_s
    if check_peak:
        assert parallel.peak_in_flight == serial.peak_in_flight
    serial_fns = serial.per_function()
    parallel_fns = parallel.per_function()
    assert set(parallel_fns) == set(serial_fns)
    for fname, serial_summary in serial_fns.items():
        parallel_summary = parallel_fns[fname]
        assert parallel_summary.invocations == serial_summary.invocations
        assert parallel_summary.cold_starts == serial_summary.cold_starts
        assert parallel_summary.failures == serial_summary.failures
        assert parallel_summary.total_cost_usd == serial_summary.total_cost_usd
        serial_dist = serial_summary.client_time
        parallel_dist = parallel_summary.client_time
        assert parallel_dist.count == serial_dist.count
        assert parallel_dist.minimum == serial_dist.minimum
        assert parallel_dist.maximum == serial_dist.maximum
        assert parallel_dist.mean == serial_dist.mean
        assert parallel_dist.std == serial_dist.std
        # Per-function sharding: the whole stream lives in one shard, so
        # even the sampled percentile state is bit-identical.
        assert parallel_dist.median == serial_dist.median
        assert parallel_dist.percentiles == serial_dist.percentiles


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_workers1_sequential_backend_is_bit_identical(provider, pattern):
    trace = _trace(pattern)
    serial = _platform(provider).run_workload(trace)
    sharded = _platform(provider).run_workload(trace, workers=1)
    assert sharded.records == serial.records
    assert sharded.peak_in_flight == serial.peak_in_flight
    assert sharded.simulated_span_s == serial.simulated_span_s
    assert sharded.total_cost_usd == serial.total_cost_usd


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_workers4_streaming_merge_equals_serial(provider, pattern):
    trace = _trace(pattern)
    serial = _platform(provider).run_workload(trace, keep_records=False)
    parallel = _platform(provider).run_workload(
        trace, keep_records=False, workers=4, backend="sequential"
    )
    _assert_streaming_equal(serial, parallel)


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_process_backend_matches_serial_records(provider):
    """The multiprocessing backend changes nothing — only wall clock."""
    trace = _trace("poisson")
    serial = _platform(provider).run_workload(trace)
    parallel = _platform(provider).run_workload(trace, workers=2, backend="process")
    assert parallel.records == serial.records
    assert parallel.peak_in_flight == serial.peak_in_flight


def test_process_backend_matches_serial_streaming():
    trace = _trace("bursty")
    serial = _platform(Provider.GCP).run_workload(trace, keep_records=False)
    parallel = _platform(Provider.GCP).run_workload(trace, keep_records=False, workers=3)
    _assert_streaming_equal(serial, parallel)


def test_scenario_recipe_sharding_matches_trace_replay():
    """Workers synthesizing their own shards reproduce the built trace."""
    scenario = standard_scenario("mixed", [f for f, _, _ in _DEPLOYMENTS], duration_s=90.0, rate_per_s=4.0)
    platform = _platform(Provider.AWS, seed=42)
    serial = platform.run_workload(scenario.build_trace(seed=42), keep_records=False)
    parallel = _platform(Provider.AWS, seed=42).run_workload(
        scenario, keep_records=False, workers=3
    )
    _assert_streaming_equal(serial, parallel)


def test_scenario_sharding_requires_streaming_mode():
    scenario = standard_scenario("poisson", ["web"], duration_s=10.0)
    with pytest.raises(ConfigurationError, match="streaming-only"):
        _platform(Provider.AWS).run_workload(scenario, workers=2)


# --------------------------------------------------------------- workflows
def _workflow_arrivals():
    spec_a, _ = standard_workflow("pipeline")
    spec_b, _ = standard_workflow("fanout", fan_out=3)
    arrivals_a = synthesize_workflow_arrivals(spec_a, PoissonArrivals(1.5), duration_s=50, rng=1)
    arrivals_b = synthesize_workflow_arrivals(spec_b, PoissonArrivals(1.5), duration_s=50, rng=2)
    return merge_workflow_arrivals(arrivals_a, arrivals_b)


def _workflow_platform(provider: Provider):
    platform = create_platform(provider, SimulationConfig(seed=11))
    deployed = set()
    for workflow in ("pipeline", "fanout"):
        _, functions = standard_workflow(workflow, fan_out=3)
        for function in functions:
            if function.function_name in deployed:
                continue
            deployed.add(function.function_name)
            deploy_benchmark(
                platform,
                function.benchmark,
                memory_mb=function.memory_mb if platform.limits.memory_static else 0,
                function_name=function.function_name,
            )
    return platform


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_workflow_sharded_replay_matches_serial(provider):
    arrivals = _workflow_arrivals()
    serial = _workflow_platform(provider).run_workflows(arrivals)
    parallel = _workflow_platform(provider).run_workflows(arrivals, workers=2)
    # Serial yields executions in completion order, sharded merge in
    # canonical index order; the *sets of per-execution results* are equal.
    assert sorted(serial.executions, key=lambda r: r.execution_index) == parallel.executions
    assert parallel.execution_count == serial.execution_count
    assert parallel.invocation_total == serial.invocation_total
    assert parallel.cold_start_total == serial.cold_start_total
    assert parallel.failure_total == serial.failure_total
    assert parallel.cost_usd_total == serial.cost_usd_total
    assert parallel.compute_s_total == serial.compute_s_total
    assert parallel.cold_start_s_total == serial.cold_start_s_total
    assert parallel.trigger_propagation_s_total == serial.trigger_propagation_s_total
    assert parallel.end_to_end_s_total == serial.end_to_end_s_total
    assert parallel.simulated_span_s == serial.simulated_span_s
    # peak_in_flight is deliberately NOT compared: workflow results carry no
    # constituent intervals, so the merge reports the max over shards — a
    # documented lower bound on the serial cross-component peak.
    assert parallel.peak_in_flight <= serial.peak_in_flight


def test_workflow_sharded_streaming_matches_serial():
    arrivals = _workflow_arrivals()
    serial = _workflow_platform(Provider.AWS).run_workflows(arrivals, keep_records=False)
    parallel = _workflow_platform(Provider.AWS).run_workflows(
        arrivals, keep_records=False, workers=2
    )
    assert parallel.executions == []
    assert parallel.cost_usd_total == serial.cost_usd_total
    assert parallel.end_to_end_s_total == serial.end_to_end_s_total
    assert set(parallel.summaries) == set(serial.summaries)
    for name, serial_summary in serial.summaries.items():
        parallel_summary = parallel.summaries[name]
        assert parallel_summary.executions == serial_summary.executions
        assert parallel_summary.invocations == serial_summary.invocations
        assert parallel_summary.cost_usd == serial_summary.cost_usd
        assert parallel_summary.end_to_end.median == serial_summary.end_to_end.median
        assert parallel_summary.end_to_end.percentiles == serial_summary.end_to_end.percentiles


def test_workflow_specs_sharing_functions_stay_in_one_shard():
    """Union-find grouping: shared functions force a common shard."""
    spec_a, _ = standard_workflow("pipeline")
    spec_b, _ = standard_workflow("fanout")
    arrivals = merge_workflow_arrivals(
        synthesize_workflow_arrivals(spec_a, PoissonArrivals(2.0), duration_s=20, rng=5),
        synthesize_workflow_arrivals(spec_b, PoissonArrivals(2.0), duration_s=20, rng=6),
    )
    shards = ShardPlanner().plan_workflows(arrivals, workers=4)
    # Disjoint function sets: two components, at most two shards.
    assert len(shards) == 2
    functions_by_shard = [set(shard.functions) for shard in shards]
    assert not functions_by_shard[0] & functions_by_shard[1]
    # Force an overlap: a spec reusing a pipeline function joins everything.
    from repro.workflows.spec import WorkflowSpec, WorkflowStage

    bridge = WorkflowSpec(
        name="bridge",
        stages=(
            WorkflowStage("a", "wf-ingest"),
            WorkflowStage("b", "wf-split", after=("a",)),
        ),
    )
    bridged = merge_workflow_arrivals(
        list(arrivals),
        synthesize_workflow_arrivals(bridge, PoissonArrivals(1.0), duration_s=20, rng=7),
    )
    assert len(ShardPlanner().plan_workflows(bridged, workers=4)) == 1


# ------------------------------------------------------------- plumbing
def test_shard_planner_balances_by_invocation_count():
    requests = list(_trace("constant", duration_s=120.0))
    shards = ShardPlanner().plan_trace(iter(requests), workers=2)
    assert len(shards) == 2
    total = sum(len(shard.requests) for shard in shards)
    assert total == len(requests)
    weights = sorted(shard.weight for shard in shards)
    # 3 equal-rate functions into 2 buckets: LPT puts 2 in one, 1 in the other.
    assert weights[1] <= 2.1 * weights[0]
    # Deterministic: planning twice yields the same partition.
    again = ShardPlanner().plan_trace(iter(requests), workers=2)
    assert [shard.functions for shard in shards] == [shard.functions for shard in again]


def test_snapshot_preserves_subclass_constructor_state():
    """IaaS use_cloud_storage must survive the worker rebuild — dropping it
    silently swapped S3 latency for local disk in sharded replays."""
    from repro.simulator.iaas import IaaSPlatform

    def fresh():
        platform = IaaSPlatform(simulation=SimulationConfig(seed=3), use_cloud_storage=True)
        deploy_benchmark(platform, "thumbnailer", memory_mb=1024, function_name="vm-thumb")
        deploy_benchmark(platform, "compression", memory_mb=1024, function_name="vm-zip")
        return platform

    trace = WorkloadTrace.merge(
        WorkloadTrace.synthesize("vm-thumb", PoissonArrivals(4.0), duration_s=20, rng=61),
        WorkloadTrace.synthesize("vm-zip", PoissonArrivals(4.0), duration_s=20, rng=62),
    )
    rebuilt = PlatformSnapshot.capture(fresh()).build()
    assert rebuilt.use_cloud_storage is True
    serial = fresh().run_workload(trace)
    sharded = fresh().run_workload(trace, workers=2, backend="sequential")
    assert sharded.records == serial.records


def test_snapshot_refuses_used_platform():
    platform = _platform(Provider.AWS)
    platform.invoke("web", payload={})
    with pytest.raises(ConfigurationError, match="freshly deployed"):
        PlatformSnapshot.capture(platform)


def test_snapshot_refuses_kernel_execution():
    platform = create_platform(Provider.AWS, SimulationConfig(seed=1), execute_kernels=True)
    with pytest.raises(ConfigurationError, match="execute_kernels"):
        PlatformSnapshot.capture(platform)


def test_parallel_replay_does_not_mutate_parent_platform():
    platform = _platform(Provider.AWS)
    platform.run_workload(_trace("poisson"), workers=2)
    # Still fresh: a snapshot (which refuses used platforms) succeeds.
    PlatformSnapshot.capture(platform)
    assert platform.clock.now() == 0.0


def test_same_named_specs_share_a_shard():
    """Accumulators (and reservoir tag streams) are keyed by workflow name,
    so two distinct specs named alike must not split across shards even
    when their function sets are disjoint."""
    from repro.workflows.spec import WorkflowSpec, WorkflowStage

    twin_a = WorkflowSpec(name="etl", stages=(WorkflowStage("s", "wf-ingest"),))
    twin_b = WorkflowSpec(name="etl", stages=(WorkflowStage("s", "wf-split"),))
    arrivals = merge_workflow_arrivals(
        synthesize_workflow_arrivals(twin_a, PoissonArrivals(2.0), duration_s=20, rng=8),
        synthesize_workflow_arrivals(twin_b, PoissonArrivals(2.0), duration_s=20, rng=9),
    )
    assert len(ShardPlanner().plan_workflows(arrivals, workers=4)) == 1


# ------------------------------------------------------------- overload
def _overload_platform(provider: Provider, seed: int = 7):
    """The standard deployment under a tight concurrency cap."""
    from repro.concurrency import OverloadConfig

    overload = OverloadConfig(
        reserved_concurrency=3,
        max_retries=2,
        admission_queue_depth=50,
        admission_max_age_s=5.0,
    )
    platform = create_platform(provider, SimulationConfig(seed=seed, overload=overload))
    for fname, benchmark, memory_mb in _DEPLOYMENTS:
        deploy_benchmark(
            platform,
            benchmark,
            memory_mb=memory_mb if platform.limits.memory_static else 0,
            function_name=fname,
        )
    return platform


def _overload_trace(duration_s: float = 45.0):
    """Sync-heavy traffic on two functions plus an async queue source."""
    from repro.config import TriggerType

    return WorkloadTrace.merge(
        WorkloadTrace.synthesize("web", PoissonArrivals(25.0), duration_s=duration_s, rng=401),
        WorkloadTrace.synthesize("thumbs", PoissonArrivals(20.0), duration_s=duration_s, rng=402),
        WorkloadTrace.synthesize(
            "arch",
            PoissonArrivals(20.0),
            duration_s=duration_s,
            rng=403,
            trigger=TriggerType.QUEUE,
        ),
    )


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
@pytest.mark.parametrize("backend", ("sequential", "process"))
def test_overloaded_replay_workers4_is_bit_identical(provider, backend):
    """Acceptance: an overloaded trace sharded over 4 workers replays
    bit-identically — throttle, retry and admission-queue state is per
    function, so it shards exactly like the unthrottled scheduler state."""
    trace = _overload_trace()
    serial = _overload_platform(provider).run_workload(trace)
    assert serial.throttled_count > 0  # the cap actually bites
    sharded = _overload_platform(provider).run_workload(
        trace, workers=4, backend=backend
    )
    assert sharded.records == serial.records
    assert sharded.peak_in_flight == serial.peak_in_flight
    assert sharded.simulated_span_s == serial.simulated_span_s
    assert sharded.total_cost_usd == serial.total_cost_usd


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_overloaded_streaming_counters_merge_exactly(provider):
    """Acceptance: throttle/drop/queue-delay counters merge exactly."""
    trace = _overload_trace()
    serial = _overload_platform(provider).run_workload(trace, keep_records=False)
    parallel = _overload_platform(provider).run_workload(
        trace, keep_records=False, workers=4, backend="sequential"
    )
    _assert_streaming_equal(serial, parallel)
    for attribute in (
        "throttled_count",
        "dropped_count",
        "retry_count",
        "queued_total",
        "queue_delay_s",
        "throttle_event_total",
    ):
        assert getattr(parallel, attribute) == getattr(serial, attribute), attribute
    serial_fns, parallel_fns = serial.per_function(), parallel.per_function()
    for fname, serial_summary in serial_fns.items():
        parallel_summary = parallel_fns[fname]
        assert parallel_summary.throttled == serial_summary.throttled
        assert parallel_summary.dropped == serial_summary.dropped
        assert parallel_summary.retries == serial_summary.retries
        assert parallel_summary.queued == serial_summary.queued
        # Exact float equality: one shard owns the whole function stream.
        assert parallel_summary.queue_delay_s == serial_summary.queue_delay_s


def test_overloaded_workflow_sharded_replay_matches_serial():
    """Workflow components replayed under a cap still merge exactly."""
    from repro.concurrency import OverloadConfig

    def build():
        overload = OverloadConfig(reserved_concurrency=2, max_retries=1)
        platform = create_platform(
            Provider.AWS, SimulationConfig(seed=11, overload=overload)
        )
        deployed = set()
        for workflow in ("pipeline", "fanout"):
            _, functions = standard_workflow(workflow, fan_out=3)
            for function in functions:
                if function.function_name in deployed:
                    continue
                deployed.add(function.function_name)
                deploy_benchmark(
                    platform,
                    function.benchmark,
                    memory_mb=function.memory_mb,
                    function_name=function.function_name,
                )
        return platform

    arrivals = _workflow_arrivals()
    serial = build().run_workflows(arrivals)
    assert serial.failure_total > 0  # the cap sheds some stage tasks
    parallel = build().run_workflows(arrivals, workers=2)
    assert sorted(serial.executions, key=lambda r: r.execution_index) == parallel.executions
    assert parallel.failure_total == serial.failure_total
    assert parallel.cost_usd_total == serial.cost_usd_total
    assert parallel.end_to_end_s_total == serial.end_to_end_s_total


# ------------------------------------------------------------ fault storms
def _chaos_platform(provider: Provider, seed: int = 7):
    """The standard deployment under the full fault + resilience stack:
    a tight concurrency cap, a region outage, a partial-zone crash, a
    latency storm, jittered window boundaries, circuit breakers, hedging
    and a staleness deadline with client resubmission — every new
    mechanism active at once."""
    from repro.concurrency import OverloadConfig
    from repro.faults import ContainerCrash, FaultPlaneConfig, LatencyStorm, OutageWindow
    from repro.resilience import CircuitBreakerConfig, HedgeConfig, ResilienceConfig

    overload = OverloadConfig(
        reserved_concurrency=4,
        max_retries=3,
        admission_queue_depth=50,
        admission_max_age_s=5.0,
    )
    faults = FaultPlaneConfig(
        outages=(
            OutageWindow(start_s=10.0, duration_s=6.0),
            OutageWindow(start_s=30.0, duration_s=4.0, mode="hang", functions=("thumbs",)),
        ),
        crashes=(ContainerCrash(at_s=20.0, survive_fraction=0.3),),
        storms=(
            LatencyStorm(
                start_s=24.0, duration_s=8.0, compute_multiplier=2.5, network_multiplier=1.5
            ),
        ),
        boundary_jitter_s=0.5,
    )
    resilience = ResilienceConfig(
        breaker=CircuitBreakerConfig(
            window=10, min_calls=5, failure_threshold=0.5, cooldown_s=4.0, half_open_probes=2
        ),
        hedge=HedgeConfig(delay_s=1.0),
        retry_policy="exponential",
        max_retries=3,
        stale_after_s=3.0,
    )
    platform = create_platform(
        provider,
        SimulationConfig(seed=seed, overload=overload, faults=faults, resilience=resilience),
    )
    for fname, benchmark, memory_mb in _DEPLOYMENTS:
        deploy_benchmark(
            platform,
            benchmark,
            memory_mb=memory_mb if platform.limits.memory_static else 0,
            function_name=fname,
        )
    return platform


def _chaos_trace(duration_s: float = 45.0):
    from repro.config import TriggerType

    return WorkloadTrace.merge(
        WorkloadTrace.synthesize("web", PoissonArrivals(12.0), duration_s=duration_s, rng=501),
        WorkloadTrace.synthesize("thumbs", PoissonArrivals(8.0), duration_s=duration_s, rng=502),
        WorkloadTrace.synthesize(
            "arch",
            PoissonArrivals(6.0),
            duration_s=duration_s,
            rng=503,
            trigger=TriggerType.QUEUE,
        ),
    )


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
@pytest.mark.parametrize("backend", ("sequential", "process"))
def test_fault_storm_workers4_is_bit_identical(provider, backend):
    """Chaos equivalence: a replay with outages, crashes, storms, breakers,
    hedges and stale resubmission all active shards bit-identically — the
    whole fault/resilience state is per function, so it partitions exactly
    like the scheduler state."""
    trace = _chaos_trace()
    serial = _chaos_platform(provider).run_workload(trace)
    # The scenario actually exercises the new machinery.
    assert serial.faulted_count > 0
    assert serial.short_circuited_count > 0
    sharded = _chaos_platform(provider).run_workload(trace, workers=4, backend=backend)
    assert sharded.records == serial.records
    assert sharded.peak_in_flight == serial.peak_in_flight
    assert sharded.simulated_span_s == serial.simulated_span_s
    assert sharded.total_cost_usd == serial.total_cost_usd


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_fault_storm_streaming_counters_merge_exactly(provider):
    """Breaker-open, hedge and fault counters are per-function integer sums,
    so the sharded merge reproduces them exactly."""
    trace = _chaos_trace()
    serial = _chaos_platform(provider).run_workload(trace, keep_records=False)
    parallel = _chaos_platform(provider).run_workload(
        trace, keep_records=False, workers=4, backend="sequential"
    )
    _assert_streaming_equal(serial, parallel)
    for attribute in (
        "throttled_count",
        "dropped_count",
        "retry_count",
        "faulted_count",
        "short_circuited_count",
        "hedge_count",
    ):
        assert getattr(parallel, attribute) == getattr(serial, attribute), attribute
    serial_fns, parallel_fns = serial.per_function(), parallel.per_function()
    for fname, serial_summary in serial_fns.items():
        parallel_summary = parallel_fns[fname]
        assert parallel_summary.faulted == serial_summary.faulted
        assert parallel_summary.short_circuited == serial_summary.short_circuited
        assert parallel_summary.hedges == serial_summary.hedges
        assert parallel_summary.retries == serial_summary.retries


def test_fault_storm_records_and_streaming_agree():
    """The two aggregation modes count the same storm the same way."""
    trace = _chaos_trace()
    records = _chaos_platform(Provider.AWS).run_workload(trace)
    streaming = _chaos_platform(Provider.AWS).run_workload(trace, keep_records=False)
    assert streaming.invocations == records.invocations
    assert streaming.faulted_count == records.faulted_count
    assert streaming.short_circuited_count == records.short_circuited_count
    assert streaming.hedge_count == records.hedge_count
    assert streaming.total_cost_usd == pytest.approx(records.total_cost_usd)
    # Conservation under the full stack: every request resolves once.
    assert (
        records.executed_count
        + records.throttled_count
        + records.dropped_count
        + records.faulted_count
        + records.short_circuited_count
        == records.invocations
    )
    # The value fold of a streaming replay equals folding the records the
    # generator loop yields, in yield order, bit for bit.
    engine = WorkloadEngine(_chaos_platform(Provider.AWS))
    folded = _ReplayAccumulator()
    for record in engine.stream(trace):
        folded.add_record(record)
    assert repr(
        streaming_result(Provider.AWS, folded, streaming.wall_clock_s, engine.last_peak_in_flight)
    ) == repr(streaming)


def test_controlled_replay_builds_each_record_once(monkeypatch):
    """Hedges, retries, queueing, staleness and rejections compute their
    final fields first: a streaming replay builds no record, a
    record-keeping one exactly one per request."""
    builds = []
    build = InvocationRecord.__init__

    def counted(self, *args, **kwargs):
        builds.append(None)
        build(self, *args, **kwargs)

    monkeypatch.setattr(InvocationRecord, "__init__", counted)
    trace = _chaos_trace()
    streaming = _chaos_platform(Provider.AWS).run_workload(trace, keep_records=False)
    assert streaming.hedge_count and streaming.queued_count and streaming.retry_count
    assert streaming.faulted_count and streaming.short_circuited_count
    assert builds == []
    records = _chaos_platform(Provider.AWS).run_workload(trace)
    assert any(record.error == "stale" for record in records.records)
    assert len(builds) == records.invocations == len(trace)


@pytest.mark.slow
def test_large_scale_streaming_parallel_equivalence():
    """60k-invocation stress variant of the streaming merge equivalence."""
    traces = [
        WorkloadTrace.synthesize(
            fname, PoissonArrivals(40.0), duration_s=500.0, rng=700 + index
        )
        for index, (fname, _, _) in enumerate(_DEPLOYMENTS)
    ]
    trace = WorkloadTrace.merge(*traces)
    serial = _platform(Provider.AWS).run_workload(trace, keep_records=False)
    parallel = _platform(Provider.AWS).run_workload(trace, keep_records=False, workers=4)
    assert serial.invocations > 50_000
    _assert_streaming_equal(serial, parallel)


def test_invalid_worker_and_backend_arguments():
    platform = _platform(Provider.AWS)
    trace = _trace("poisson", duration_s=5.0)
    arrivals = _workflow_arrivals()
    population = PopulationSpec(n_functions=20, duration_s=10.0, aggregate_rate_per_s=2.0)
    entry_points = (
        lambda **kw: platform.run_workload(trace, **kw),
        lambda **kw: _workflow_platform(Provider.AWS).run_workflows(arrivals, **kw),
        lambda **kw: replay_population(
            create_platform(Provider.AWS, SimulationConfig(seed=7)), population, **kw
        ),
    )
    for replay in entry_points:
        for workers in (0, -1, 2.5, 1.0, "2"):
            with pytest.raises(ConfigurationError, match="workers"):
                replay(workers=workers)
        with pytest.raises(ConfigurationError, match="backend"):
            replay(workers=2, backend="threads")
