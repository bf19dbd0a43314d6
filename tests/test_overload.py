"""Concurrency-limit & throttling subsystem (:mod:`repro.concurrency`).

Covers the Table 2 limit edges (cpu share clamps, memory/package
validation), the burst-profile/throttle unit behaviour, the retry
policies, the engine's throttle/spill paths (THROTTLED without a sandbox,
deterministic retries, billing rules, admission-queue delays and drops),
streaming-vs-record counter agreement, the workflow integration, the CLI
flags and the CI perf-regression gate.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.concurrency import (
    AdmissionQueue,
    BurstKind,
    BurstProfile,
    FunctionThrottle,
    OverloadConfig,
    QueuedInvocation,
    build_function_throttle,
    burst_profile_for,
    create_retry_policy,
)
from repro.config import (
    DYNAMIC_MEMORY,
    InvocationOutcome,
    Provider,
    SimulationConfig,
    StartType,
    TriggerType,
)
from repro.exceptions import ConfigurationError, DeploymentError
from repro.experiments.base import deploy_benchmark
from repro.experiments.overload import OverloadExperiment
from repro.faas.invocation import InvocationRequest
from repro.faas.limits import limits_for
from repro.simulator.providers import create_platform
from repro.workload import PoissonArrivals, WorkloadTrace

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------
# faas/limits.py edges: cpu share clamps and validation boundaries
# --------------------------------------------------------------------------
class TestPlatformLimitEdges:
    def test_cpu_share_clamps_at_minimum(self):
        aws = limits_for(Provider.AWS)
        # 64 MB of 1792 MB would be ~0.036 of a vCPU; clamped to 0.05.
        assert aws.cpu_share(64) == pytest.approx(0.05)

    def test_cpu_share_clamps_at_two_vcpus(self):
        gcp = limits_for(Provider.GCP)
        # 8 GB of a 2048 MB full-vCPU point would be 4 cores; clamped to 2.
        assert gcp.cpu_share(8192) == pytest.approx(2.0)

    def test_cpu_share_reaches_exactly_one_vcpu(self):
        aws = limits_for(Provider.AWS)
        assert aws.cpu_share(aws.full_vcpu_memory_mb) == pytest.approx(1.0)

    def test_cpu_share_dynamic_memory_is_full_core(self):
        azure = limits_for(Provider.AZURE)
        assert azure.cpu_share(DYNAMIC_MEMORY) == pytest.approx(1.0)
        # Static providers treat the dynamic sentinel as a full core too.
        assert limits_for(Provider.AWS).cpu_share(DYNAMIC_MEMORY) == pytest.approx(1.0)

    def test_memory_bounds_are_inclusive(self):
        aws = limits_for(Provider.AWS)
        aws.validate_memory(aws.memory_min_mb)
        aws.validate_memory(aws.memory_max_mb)
        with pytest.raises(ConfigurationError):
            aws.validate_memory(aws.memory_max_mb + 1)
        with pytest.raises(ConfigurationError):
            aws.validate_memory(aws.memory_min_mb - 1)

    def test_gcp_allowed_memory_list_is_exact(self):
        gcp = limits_for(Provider.GCP)
        gcp.validate_memory(2048)
        with pytest.raises(ConfigurationError):
            gcp.validate_memory(1536)  # in range but not an allowed step

    def test_azure_rejects_static_memory(self):
        azure = limits_for(Provider.AZURE)
        azure.validate_memory(DYNAMIC_MEMORY)
        with pytest.raises(ConfigurationError):
            azure.validate_memory(512)

    def test_package_limit_edge(self):
        gcp = limits_for(Provider.GCP)
        gcp.validate_package(gcp.deployment_limit_mb)
        with pytest.raises(DeploymentError):
            gcp.validate_package(gcp.deployment_limit_mb + 0.1)

    def test_concurrency_limits_match_table2(self):
        assert limits_for(Provider.AWS).concurrency_limit == 1000
        assert limits_for(Provider.AZURE).concurrency_limit == 200
        assert limits_for(Provider.GCP).concurrency_limit == 100


# --------------------------------------------------------------------------
# Burst profiles and the FunctionThrottle unit behaviour
# --------------------------------------------------------------------------
class TestBurstProfiles:
    def test_every_provider_has_an_entry(self):
        for provider in Provider:
            burst_profile_for(provider)  # no KeyError

    def test_commercial_kinds(self):
        assert burst_profile_for(Provider.AWS).kind is BurstKind.TOKEN_BUCKET
        assert burst_profile_for(Provider.GCP).kind is BurstKind.INSTANCE_RATE
        assert burst_profile_for(Provider.AZURE).kind is BurstKind.INSTANCE_RATE
        assert burst_profile_for(Provider.IAAS) is None

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            BurstProfile(BurstKind.TOKEN_BUCKET, initial=0, ramp_per_s=1.0)
        with pytest.raises(ConfigurationError):
            BurstProfile(BurstKind.TOKEN_BUCKET, initial=1, ramp_per_s=-1.0)


class TestFunctionThrottle:
    def test_hard_limit_without_burst(self):
        throttle = FunctionThrottle(limit=2)
        assert throttle.try_admit(0.0, in_flight=0)
        assert throttle.try_admit(0.0, in_flight=1)
        assert not throttle.try_admit(0.0, in_flight=2)

    def test_token_bucket_consumes_on_growth_and_refills(self):
        profile = BurstProfile(BurstKind.TOKEN_BUCKET, initial=2, ramp_per_s=1.0)
        throttle = FunctionThrottle(limit=10, profile=profile)
        assert throttle.try_admit(0.0, in_flight=0)  # granted 1, 1 token left
        assert throttle.try_admit(0.0, in_flight=1)  # granted 2, 0 tokens
        assert not throttle.try_admit(0.0, in_flight=2)  # bucket empty
        # Re-admitting below the high-water mark costs nothing.
        assert throttle.try_admit(0.0, in_flight=0)
        # One second refills one token: concurrency 3 is now grantable.
        assert throttle.try_admit(1.0, in_flight=2)
        assert not throttle.try_admit(1.0, in_flight=3)

    def test_token_bucket_never_exceeds_hard_limit(self):
        profile = BurstProfile(BurstKind.TOKEN_BUCKET, initial=100, ramp_per_s=100.0)
        throttle = FunctionThrottle(limit=3, profile=profile)
        for in_flight in range(3):
            assert throttle.try_admit(0.0, in_flight=in_flight)
        assert not throttle.try_admit(1000.0, in_flight=3)

    def test_instance_rate_ramp(self):
        profile = BurstProfile(BurstKind.INSTANCE_RATE, initial=1, ramp_per_s=1.0)
        throttle = FunctionThrottle(limit=100, profile=profile)
        assert throttle.try_admit(0.0, in_flight=0)  # 1 instance
        assert not throttle.try_admit(0.5, in_flight=1)  # still 1 instance
        assert throttle.try_admit(2.0, in_flight=1)  # 3 instances by t=2
        assert throttle.try_admit(2.0, in_flight=2)
        assert not throttle.try_admit(2.0, in_flight=3)

    def test_instance_rate_multiplies_by_slot_capacity(self):
        profile = BurstProfile(BurstKind.INSTANCE_RATE, initial=1, ramp_per_s=0.0)
        throttle = FunctionThrottle(limit=100, profile=profile, slot_capacity=8)
        for in_flight in range(8):
            assert throttle.try_admit(0.0, in_flight=in_flight)
        assert not throttle.try_admit(0.0, in_flight=8)

    def test_allowance_is_read_only(self):
        profile = BurstProfile(BurstKind.TOKEN_BUCKET, initial=2, ramp_per_s=0.0)
        throttle = FunctionThrottle(limit=10, profile=profile)
        assert throttle.allowance(0.0) == 2
        assert throttle.allowance(0.0) == 2  # no token was consumed
        assert throttle.try_admit(0.0, in_flight=0)
        assert throttle.allowance(0.0) == 2  # granted 1 + 1 token left

    def test_build_uses_tightest_cap_and_overrides(self):
        overload = OverloadConfig(
            reserved_concurrency=5, per_function_reserved={"hot": 2}
        )
        limits = limits_for(Provider.AWS)
        assert build_function_throttle("hot", overload, limits, Provider.AWS).limit == 2
        assert build_function_throttle("cold", overload, limits, Provider.AWS).limit == 5
        uncapped = OverloadConfig()
        assert (
            build_function_throttle("x", uncapped, limits, Provider.AWS).limit
            == limits.concurrency_limit
        )
        accounted = OverloadConfig(reserved_concurrency=5000, account_concurrency=300)
        assert build_function_throttle("x", accounted, limits, Provider.AWS).limit == 300


class TestRetryPolicies:
    def test_none_gives_up_immediately(self):
        policy = create_retry_policy("none")
        assert policy.next_delay(1, None) is None

    def test_immediate_is_deterministic_and_bounded(self):
        policy = create_retry_policy("immediate", max_retries=2)
        assert policy.next_delay(1, None) == 0.0
        assert policy.next_delay(2, None) == 0.0
        assert policy.next_delay(3, None) is None

    def test_exponential_jitter_is_seeded_and_capped(self):
        policy = create_retry_policy(
            "exponential", max_retries=5, base_delay_s=0.1, max_delay_s=0.3
        )
        delays_a = [policy.next_delay(n, np.random.default_rng(7)) for n in range(1, 6)]
        delays_b = [policy.next_delay(n, np.random.default_rng(7)) for n in range(1, 6)]
        assert delays_a == delays_b  # same stream, same sequence
        for attempt, delay in enumerate(delays_a, start=1):
            assert 0.0 <= delay <= min(0.3, 0.1 * 2.0 ** (attempt - 1))
        assert policy.next_delay(6, np.random.default_rng(7)) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            create_retry_policy("fibonacci")


class TestOverloadConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reserved_concurrency": 0},
            {"account_concurrency": 0},
            {"per_function_reserved": {"f": 0}},
            {"retry_policy": "bogus"},
            {"max_retries": -1},
            {"retry_base_delay_s": 0.0},
            {"admission_queue_depth": -1},
            {"admission_max_age_s": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            OverloadConfig(**kwargs)


class TestAdmissionQueue:
    def test_bounded_push_and_fifo(self):
        queue = AdmissionQueue(depth=2, max_age_s=1.0)
        first = QueuedInvocation(0.0, 0, InvocationRequest("f"))
        assert queue.push(first)
        assert queue.push(QueuedInvocation(0.1, 1, InvocationRequest("f")))
        assert not queue.push(QueuedInvocation(0.2, 2, InvocationRequest("f")))
        assert queue.head() is first
        assert not queue.head_expired(1.0)
        assert queue.head_expired(1.5)
        assert queue.pop() is first
        assert len(queue) == 1


# --------------------------------------------------------------------------
# Engine integration: throttle path, retries, billing, async spill
# --------------------------------------------------------------------------
def _overloaded_platform(
    provider=Provider.AWS,
    seed: int = 11,
    functions: tuple[str, ...] = ("hot",),
    **overload_kwargs,
):
    overload = OverloadConfig(**overload_kwargs)
    platform = create_platform(provider, SimulationConfig(seed=seed, overload=overload))
    for fname in functions:
        deploy_benchmark(
            platform,
            "dynamic-html",
            memory_mb=256 if platform.limits.memory_static else 0,
            function_name=fname,
        )
    return platform


def _burst_trace(fname: str, count: int, trigger=TriggerType.HTTP) -> WorkloadTrace:
    """``count`` simultaneous arrivals — a guaranteed over-limit burst."""
    return WorkloadTrace(
        InvocationRequest(fname, trigger=trigger, submitted_at=0.0) for _ in range(count)
    )


class TestThrottlePath:
    def test_over_limit_sync_yields_throttled_not_a_container(self):
        platform = _overloaded_platform(
            reserved_concurrency=1, retry_policy="none"
        )
        result = platform.run_workload(_burst_trace("hot", 3))
        outcomes = [record.outcome for record in result.records]
        assert outcomes.count(InvocationOutcome.THROTTLED) == 2
        assert outcomes.count(InvocationOutcome.COMPLETED) == 1
        throttled = [r for r in result.records if r.outcome is InvocationOutcome.THROTTLED]
        for record in throttled:
            assert record.start_type is StartType.NONE
            assert record.container_id == ""
            assert not record.success
            assert record.cost.total == 0.0
            assert record.error == "throttled"
        # Only the admitted invocation ever materialised a sandbox.
        assert platform._state["hot"].pool.total_created() == 1

    def test_throttles_do_not_bill_retries_bill_once(self):
        # Cap 1 with immediate retries: the burst serializes through retries
        # (each admitted request frees the slot only at its completion, but
        # retries re-attempt immediately, so some get admitted later).
        platform = _overloaded_platform(
            reserved_concurrency=1, retry_policy="immediate", max_retries=50
        )
        result = platform.run_workload(_burst_trace("hot", 3))
        executed = [r for r in result.records if r.executed]
        shed = [r for r in result.records if not r.executed]
        assert executed and all(r.cost.total > 0 for r in executed)
        assert all(r.cost.total == 0.0 for r in shed)
        assert result.total_cost_usd == sum(r.cost.total for r in executed)

    def test_retried_request_accounts_backoff_in_client_time(self):
        platform = _overloaded_platform(
            reserved_concurrency=1, retry_policy="exponential", max_retries=8
        )
        result = platform.run_workload(_burst_trace("hot", 2))
        late = [r for r in result.records if r.executed and r.attempts > 1]
        assert late, "expected at least one retried-then-admitted request"
        for record in late:
            assert record.admission_delay_s > 0.0
            assert record.admitted_at == pytest.approx(
                record.submitted_at + record.admission_delay_s
            )
            assert record.client_time_s == pytest.approx(
                record.finished_at - record.submitted_at
            )

    def test_retries_are_deterministic_per_seed(self):
        trace = WorkloadTrace.synthesize("hot", PoissonArrivals(40.0), 10.0, rng=3)
        kwargs = dict(reserved_concurrency=2, retry_policy="exponential", max_retries=3)
        first = _overloaded_platform(seed=21, **kwargs).run_workload(trace)
        second = _overloaded_platform(seed=21, **kwargs).run_workload(trace)
        assert first.records == second.records
        other_seed = _overloaded_platform(seed=22, **kwargs).run_workload(trace)
        assert [r.admission_delay_s for r in other_seed.records] != [
            r.admission_delay_s for r in first.records
        ]

    def test_records_stay_in_arrival_order(self):
        trace = WorkloadTrace.synthesize("hot", PoissonArrivals(40.0), 10.0, rng=3)
        platform = _overloaded_platform(reserved_concurrency=2)
        result = platform.run_workload(trace)
        indices = [record.request_index for record in result.records]
        assert indices == sorted(indices)
        submitted = [record.submitted_at for record in result.records]
        assert submitted == sorted(submitted)

    def test_disabled_overload_throttles_nothing(self):
        platform = create_platform(Provider.AWS, SimulationConfig(seed=11))
        deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="hot")
        result = platform.run_workload(_burst_trace("hot", 50))
        assert result.throttled_count == 0
        assert all(r.outcome is not InvocationOutcome.THROTTLED for r in result.records)


class TestAsyncSpill:
    def test_queued_requests_run_late_with_delay_accounting(self):
        platform = _overloaded_platform(
            reserved_concurrency=1, admission_queue_depth=10, admission_max_age_s=None
        )
        result = platform.run_workload(_burst_trace("hot", 4, trigger=TriggerType.QUEUE))
        assert result.throttled_count == 0  # async never 429s
        assert result.dropped_count == 0
        executed = [r for r in result.records if r.executed]
        assert len(executed) == 4
        delayed = [r for r in executed if r.admission_delay_s > 0.0]
        assert len(delayed) == 3  # everything behind the first waited
        assert result.queue_delay_s == pytest.approx(
            sum(r.admission_delay_s for r in delayed)
        )
        # Queued requests keep their original submission time.
        assert all(r.submitted_at == executed[0].submitted_at for r in executed)

    def test_queue_full_drops_immediately(self):
        platform = _overloaded_platform(
            reserved_concurrency=1, admission_queue_depth=2, admission_max_age_s=None
        )
        result = platform.run_workload(_burst_trace("hot", 6, trigger=TriggerType.QUEUE))
        drops = [r for r in result.records if r.outcome is InvocationOutcome.DROPPED]
        assert len(drops) == 3  # 1 admitted, 2 queued, 3 over the bound
        assert all(r.error == "queue-full" for r in drops)
        assert all(r.cost.total == 0.0 for r in drops)

    def test_age_based_drops(self):
        platform = _overloaded_platform(
            reserved_concurrency=1, admission_queue_depth=50, admission_max_age_s=0.001
        )
        result = platform.run_workload(_burst_trace("hot", 4, trigger=TriggerType.QUEUE))
        expired = [r for r in result.records if r.error == "expired"]
        assert expired, "expected queue entries to age out behind a long execution"
        for record in expired:
            assert record.outcome is InvocationOutcome.DROPPED
            assert record.admission_delay_s > 0.001


class TestCounterConsistency:
    def test_streaming_equals_record_mode(self):
        trace = WorkloadTrace.merge(
            WorkloadTrace.synthesize("hot", PoissonArrivals(30.0), 15.0, rng=1),
            WorkloadTrace.synthesize(
                "worker", PoissonArrivals(20.0), 15.0, rng=2, trigger=TriggerType.QUEUE
            ),
        )
        kwargs = dict(
            functions=("hot", "worker"),
            reserved_concurrency=2,
            max_retries=2,
            admission_queue_depth=20,
            admission_max_age_s=2.0,
        )
        records = _overloaded_platform(**kwargs).run_workload(trace)
        streaming = _overloaded_platform(**kwargs).run_workload(trace, keep_records=False)
        for attribute in (
            "invocations",
            "throttled_count",
            "dropped_count",
            "retry_count",
            "failure_count",
            "cold_start_count",
            "simulated_span_s",
        ):
            assert getattr(streaming, attribute) == getattr(records, attribute), attribute
        # Both modes fold one accumulator and reduce it in sorted function
        # order, but in a controlled replay they feed each function's float
        # sums in a different order (record mode: arrival order; streaming:
        # resolution order), so cross-MODE they agree to float
        # associativity.  Uncontrolled replays agree exactly
        # (test_golden_traces); within a mode, serial and sharded replays
        # match bit-for-bit (test_parallel_equivalence).
        assert streaming.total_cost_usd == pytest.approx(records.total_cost_usd, rel=1e-12)
        assert streaming.queue_delay_s == pytest.approx(records.queue_delay_s, rel=1e-12)
        record_fns = records.per_function()
        for fname, summary in streaming.per_function().items():
            exact = record_fns[fname]
            assert summary.invocations == exact.invocations
            assert summary.throttled == exact.throttled
            assert summary.dropped == exact.dropped
            assert summary.retries == exact.retries
            assert summary.queued == exact.queued
            assert summary.queue_delay_s == pytest.approx(exact.queue_delay_s)

    def test_outcomes_partition_the_requests(self):
        trace = WorkloadTrace.synthesize("hot", PoissonArrivals(50.0), 10.0, rng=9)
        result = _overloaded_platform(reserved_concurrency=2).run_workload(trace)
        executed = sum(1 for r in result.records if r.executed)
        assert (
            executed + result.throttled_count + result.dropped_count
            == result.invocations
            == len(trace)
        )


class TestWorkflowIntegration:
    def test_workflow_replay_under_overload(self):
        from repro.workflows import standard_workflow, synthesize_workflow_arrivals

        overload = OverloadConfig(reserved_concurrency=2, max_retries=1)
        platform = create_platform(Provider.AWS, SimulationConfig(seed=5, overload=overload))
        spec, functions = standard_workflow("fanout", fan_out=4)
        for function in functions:
            deploy_benchmark(
                platform,
                function.benchmark,
                memory_mb=function.memory_mb,
                function_name=function.function_name,
            )
        arrivals = synthesize_workflow_arrivals(
            spec, PoissonArrivals(8.0), duration_s=15.0, rng=5
        )
        records = []
        result = platform.run_workflows(arrivals, record_sink=records.append)
        assert result.execution_count == len(arrivals)
        # Fan-out stages are queue-triggered: over the cap they spill and
        # run late (or drop) rather than throttle; every stage task still
        # resolves to exactly one record.
        assert result.invocation_total == len(records)
        shed = [r for r in records if not r.executed]
        assert shed, "expected the cap to shed some workflow stage tasks"
        # A shed stage counts as a failed constituent invocation.
        assert result.failure_total >= len(
            [r for r in shed if r.outcome is InvocationOutcome.THROTTLED]
        )


class TestOverloadExperiment:
    def test_sweep_shape(self, quick_config):
        experiment = OverloadExperiment(
            config=quick_config, simulation=SimulationConfig(seed=99)
        )
        result = experiment.run(
            providers=(Provider.AWS,),
            reserved_levels=(2, None),
            duration_s=20.0,
            sync_rate_per_s=20.0,
            async_rate_per_s=10.0,
        )
        assert len(result.points) == 2
        tight, loose = result.points
        assert tight.reserved_concurrency == 2 and loose.reserved_concurrency is None
        assert tight.throttled > loose.throttled
        assert tight.executed + tight.throttled + tight.dropped == tight.invocations
        rows = result.to_rows()
        assert rows[0]["throttle_pct"] > rows[1]["throttle_pct"]


class TestCLIFlags:
    def test_workload_with_reserved_concurrency(self, capsys, tmp_path):
        output = tmp_path / "summary.json"
        exit_code = cli_main(
            [
                "workload",
                "--pattern",
                "bursty",
                "--duration",
                "15",
                "--rate",
                "5",
                "--reserved-concurrency",
                "2",
                "--retry-policy",
                "immediate",
                "--providers",
                "aws",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "throttled" in printed
        document = json.loads(output.read_text())
        assert any("throttled" in row for row in document["providers"])

    def test_retry_policy_alone_enables_the_model(self, capsys):
        # --retry-policy without a cap still builds an OverloadConfig (the
        # account cap and burst ramp apply); the command must run clean.
        exit_code = cli_main(
            [
                "workload",
                "--pattern",
                "constant",
                "--duration",
                "5",
                "--rate",
                "2",
                "--retry-policy",
                "none",
                "--providers",
                "aws",
            ]
        )
        assert exit_code == 0


# --------------------------------------------------------------------------
# CI perf-regression gate (benchmarks/check_regression.py)
# --------------------------------------------------------------------------
def _load_check_regression():
    path = REPO_ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckRegression:
    @pytest.fixture(scope="class")
    def gate(self):
        return _load_check_regression()

    def test_passes_on_committed_baselines(self, gate):
        current = gate.load_current_metrics(REPO_ROOT / "benchmarks")
        baselines = json.loads(
            (REPO_ROOT / "benchmarks" / "baselines.json").read_text()
        )
        assert gate.compare(current, baselines) == []

    def test_fails_on_25_percent_slowdown(self, gate):
        baselines = {
            "tolerance": 0.25,
            "benchmarks": {
                "smoke_replay": {
                    "trace_throughput_per_s": {"baseline": 10_000.0, "direction": "higher"}
                }
            },
        }
        # 25% under baseline sits exactly on the floor (passes); beyond fails.
        at_floor = {"smoke_replay": {"trace_throughput_per_s": 7_500.0}}
        assert gate.compare(at_floor, baselines) == []
        slower = {"smoke_replay": {"trace_throughput_per_s": 7_499.0}}
        failures = gate.compare(slower, baselines)
        assert len(failures) == 1 and "trace_throughput_per_s" in failures[0]

    def test_fails_on_memory_regression(self, gate):
        baselines = {
            "tolerance": 0.25,
            "benchmarks": {
                "workload_throughput_100k": {
                    "peak_rss_mb": {"baseline": 100.0, "direction": "lower"}
                }
            },
        }
        assert gate.compare(
            {"workload_throughput_100k": {"peak_rss_mb": 124.9}}, baselines
        ) == []
        failures = gate.compare(
            {"workload_throughput_100k": {"peak_rss_mb": 130.0}}, baselines
        )
        assert len(failures) == 1

    def test_missing_benchmark_or_metric_fails(self, gate):
        baselines = {
            "tolerance": 0.25,
            "benchmarks": {"smoke_replay": {"x": {"baseline": 1.0, "direction": "higher"}}},
        }
        assert gate.compare({}, baselines)  # benchmark missing
        assert gate.compare({"smoke_replay": {}}, baselines)  # metric missing
