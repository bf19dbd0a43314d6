"""Tests of the trace-driven workload engine and its building blocks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import ExperimentConfig, Provider, SimulationConfig, StartType, TriggerType
from repro.exceptions import ConfigurationError, FunctionNotFoundError, PlatformError
from repro.experiments.base import deploy_benchmark
from repro.experiments.workload_replay import WorkloadDeployment, WorkloadReplayExperiment
from repro.faas.invocation import InvocationRequest
from repro.simulator.providers import create_platform
from repro.workload import (
    BurstyArrivals,
    ConstantRateArrivals,
    DiurnalArrivals,
    FunctionTraffic,
    PoissonArrivals,
    Scenario,
    WorkloadTrace,
    standard_scenario,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestArrivalProcesses:
    def test_constant_rate_is_evenly_spaced(self, rng):
        arrivals = ConstantRateArrivals(rate_per_s=2.0).generate(10.0, rng)
        assert len(arrivals) == 20
        assert np.allclose(np.diff(arrivals), 0.5)
        assert arrivals[0] == 0.0
        assert arrivals[-1] < 10.0

    def test_poisson_matches_mean_rate(self, rng):
        arrivals = PoissonArrivals(rate_per_s=5.0).generate(2000.0, rng)
        assert arrivals[0] >= 0.0 and arrivals[-1] < 2000.0
        assert np.all(np.diff(arrivals) >= 0)
        # Law of large numbers: the empirical rate approaches 5/s.
        assert len(arrivals) == pytest.approx(10_000, rel=0.05)

    def test_poisson_is_deterministic_per_seed(self):
        a = PoissonArrivals(3.0).generate(100.0, np.random.default_rng(11))
        b = PoissonArrivals(3.0).generate(100.0, np.random.default_rng(11))
        c = PoissonArrivals(3.0).generate(100.0, np.random.default_rng(12))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bursty_clusters_arrivals(self, rng):
        process = BurstyArrivals(on_rate_per_s=20.0, mean_on_s=5.0, mean_off_s=20.0)
        arrivals = process.generate(2000.0, rng)
        assert len(arrivals) > 100
        # ON/OFF traffic is much more variable than Poisson at the same mean
        # rate: the inter-arrival coefficient of variation must exceed 1.
        gaps = np.diff(arrivals)
        cv = np.std(gaps) / np.mean(gaps)
        assert cv > 1.5

    def test_diurnal_peak_beats_trough(self, rng):
        period = 1000.0
        # Peak at t=period/4, trough at t=3*period/4.
        process = DiurnalArrivals(mean_rate_per_s=2.0, amplitude=0.9, period_s=period)
        arrivals = process.generate(period, rng)
        peak_window = np.sum((arrivals >= 150) & (arrivals < 350))
        trough_window = np.sum((arrivals >= 650) & (arrivals < 850))
        assert peak_window > 4 * trough_window
        assert process.rate_at(period / 4.0) == pytest.approx(2.0 * 1.9)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ConstantRateArrivals(0.0),
            lambda: PoissonArrivals(-1.0),
            lambda: BurstyArrivals(0.0, 1.0, 1.0),
            lambda: BurstyArrivals(1.0, 0.0, 1.0),
            lambda: DiurnalArrivals(1.0, amplitude=1.5),
            lambda: DiurnalArrivals(1.0, period_s=0.0),
        ],
    )
    def test_invalid_parameters_rejected(self, factory):
        with pytest.raises(ConfigurationError):
            factory()

    def test_negative_duration_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(1.0).generate(0.0, rng)


class TestWorkloadTrace:
    def test_synthesize_produces_sorted_requests(self):
        trace = WorkloadTrace.synthesize("f", PoissonArrivals(4.0), 50.0, rng=3)
        times = [request.submitted_at for request in trace]
        assert times == sorted(times)
        assert trace.functions() == ["f"]
        assert trace.duration_s == times[-1]
        assert trace.mean_rate_per_s() == pytest.approx(4.0, rel=0.4)

    def test_merge_interleaves_by_time(self):
        a = WorkloadTrace.synthesize("a", ConstantRateArrivals(1.0), 10.0, rng=0)
        b = WorkloadTrace.synthesize("b", ConstantRateArrivals(1.0, phase_s=0.5), 10.0, rng=0)
        merged = WorkloadTrace.merge(a, b)
        assert len(merged) == len(a) + len(b)
        assert merged.functions() == ["a", "b"]
        names = [request.function_name for request in merged][:4]
        assert names == ["a", "b", "a", "b"]

    def test_json_round_trip(self, tmp_path):
        trace = WorkloadTrace.synthesize(
            "f",
            PoissonArrivals(2.0),
            20.0,
            rng=5,
            payload={"size": 1},
            payload_bytes=64,
            trigger=TriggerType.SDK,
        )
        path = tmp_path / "trace.json"
        trace.to_json(path, indent=2)
        loaded = WorkloadTrace.from_json(path)
        assert len(loaded) == len(trace)
        for original, restored in zip(trace, loaded):
            assert restored == original
        # Round-trip via a JSON string as well.
        again = WorkloadTrace.from_json(trace.to_json())
        assert list(again) == list(trace)

    def test_loaded_trace_shares_payloads_and_replays_identically(self):
        """Equal payloads load as one mapping; 1 and True stay apart."""
        one = WorkloadTrace.synthesize("f", PoissonArrivals(5.0), 20.0, rng=3, payload={"n": 1})
        flag = WorkloadTrace.synthesize("f", PoissonArrivals(5.0), 20.0, rng=4, payload={"n": True})
        for trace, distinct in ((one, 1), (WorkloadTrace.merge(one, flag).materialize(), 2)):
            loaded = WorkloadTrace.from_json(trace.to_json())
            assert list(loaded) == list(trace)
            assert len({id(request.payload) for request in loaded}) == distinct
            assert len({id(request.function_name) for request in loaded}) == 1
            assert [type(r.payload["n"]) for r in loaded] == [type(r.payload["n"]) for r in trace]
            replays = []
            for requests in (trace, loaded):
                platform = create_platform(Provider.AWS, SimulationConfig(seed=9))
                deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="f")
                replays.append(platform.run_workload(requests).records)
            assert replays[0] == replays[1]

    def test_from_json_validates_structure(self):
        with pytest.raises(ConfigurationError):
            WorkloadTrace.from_json(json.dumps({"version": 99, "requests": []}))
        with pytest.raises(ConfigurationError):
            WorkloadTrace.from_json(json.dumps({"requests": [{"submitted_at": 1.0}]}))
        with pytest.raises(ConfigurationError):
            WorkloadTrace.from_json(json.dumps({"requests": "nope"}))

    def test_negative_timestamps_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadTrace([InvocationRequest(function_name="f", submitted_at=-1.0)])

    @pytest.mark.parametrize("value", (float("nan"), float("inf")), ids=("nan", "inf"))
    def test_non_finite_timestamps_rejected(self, value):
        """Rejected when the trace is built, not mid-replay (a NaN would
        break the sort, an inf would overflow the clock arithmetic)."""
        requests = [
            InvocationRequest(function_name="f", submitted_at=0.5),
            InvocationRequest(function_name="f", submitted_at=value),
        ]
        with pytest.raises(ConfigurationError, match="finite"):
            WorkloadTrace(requests)
        document = json.dumps({"requests": [{"function": "f", "submitted_at": value}]})
        with pytest.raises(ConfigurationError, match="finite"):
            WorkloadTrace.from_json(document)

    def test_payload_bytes_zero_survives_round_trip(self):
        """An explicit 0 override is distinct from 'measure the payload'."""
        trace = WorkloadTrace(
            [
                InvocationRequest(function_name="f", payload={"k": "v"}, payload_bytes=0),
                InvocationRequest(function_name="f", payload={"k": "v"}, submitted_at=1.0),
            ]
        )
        loaded = WorkloadTrace.from_json(trace.to_json())
        assert loaded[0].payload_bytes == 0
        assert loaded[1].payload_bytes is None

    def test_mean_rate_uses_observed_span(self):
        trace = WorkloadTrace(
            [InvocationRequest(function_name="f", submitted_at=100.0 + i) for i in range(11)]
        )
        # 11 arrivals, 10 gaps of 1s: rate 1/s regardless of the 100s lead-in.
        assert trace.mean_rate_per_s() == pytest.approx(1.0)
        single = WorkloadTrace([InvocationRequest(function_name="f", submitted_at=5.0)])
        assert single.mean_rate_per_s() == 0.0


class TestScenario:
    def test_build_trace_is_deterministic(self):
        scenario = Scenario(
            name="pair",
            duration_s=100.0,
            traffic=(
                FunctionTraffic("alpha", PoissonArrivals(2.0)),
                FunctionTraffic("beta", BurstyArrivals(8.0, 5.0, 15.0)),
            ),
        )
        first = scenario.build_trace(seed=9)
        second = scenario.build_trace(seed=9)
        other = scenario.build_trace(seed=10)
        assert list(first) == list(second)
        assert list(first) != list(other)
        assert first.functions() == ["alpha", "beta"]

    def test_standard_scenarios(self):
        for pattern in ("constant", "poisson", "bursty", "diurnal", "mixed"):
            scenario = standard_scenario(pattern, ["f1", "f2", "f3"], duration_s=50.0, rate_per_s=1.0)
            trace = scenario.build_trace(seed=1)
            assert len(trace) > 0
            assert set(trace.functions()) <= {"f1", "f2", "f3"}

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            standard_scenario("lumpy", ["f"])
        with pytest.raises(ConfigurationError):
            standard_scenario("poisson", [])


def _deploy(platform, fname="svc", benchmark="dynamic-html"):
    return deploy_benchmark(
        platform,
        benchmark,
        memory_mb=256 if platform.limits.memory_static else 0,
        function_name=fname,
    )


class TestEventQueueEngine:
    def test_overlapping_arrivals_need_two_containers(self, aws):
        """Back-to-back requests overlap in time, so each needs a sandbox."""
        fname = _deploy(aws)
        trace = WorkloadTrace(
            [
                InvocationRequest(function_name=fname, submitted_at=0.0),
                InvocationRequest(function_name=fname, submitted_at=0.001),
            ]
        )
        records = list(aws.invoke_stream(trace))
        assert [record.start_type for record in records] == [StartType.COLD, StartType.COLD]
        assert records[0].container_id != records[1].container_id
        assert aws.warm_container_count(fname) == 2

    def test_spaced_arrivals_reuse_one_container(self, aws):
        """A request arriving after the first finishes reuses its sandbox."""
        fname = _deploy(aws)
        trace = WorkloadTrace(
            [
                InvocationRequest(function_name=fname, submitted_at=0.0),
                InvocationRequest(function_name=fname, submitted_at=60.0),
            ]
        )
        records = list(aws.invoke_stream(trace))
        assert records[0].start_type is StartType.COLD
        assert records[1].start_type is StartType.WARM
        assert records[0].container_id == records[1].container_id
        assert records[0].finished_at <= 60.0
        assert aws.warm_container_count(fname) == 1

    def test_concurrency_follows_overlap(self, aws):
        """An arrival overlapping N in-flight executions sees concurrency N+1."""
        fname = _deploy(aws)
        trace = WorkloadTrace(
            [InvocationRequest(function_name=fname, submitted_at=0.001 * i) for i in range(5)]
        )
        result = aws.run_workload(trace)
        assert result.peak_in_flight == 5
        assert result.cold_start_count == 5

    def test_azure_shares_app_instances_under_overlap(self, azure):
        """Azure packs concurrent executions into one function-app instance."""
        fname = _deploy(azure)
        trace = WorkloadTrace(
            [InvocationRequest(function_name=fname, submitted_at=0.001 * i) for i in range(6)]
        )
        records = list(azure.invoke_stream(trace))
        containers = {record.container_id for record in records}
        assert len(containers) == 1
        assert sum(1 for r in records if r.start_type is StartType.COLD) == 1

    def test_clock_advances_to_last_completion(self, aws):
        fname = _deploy(aws)
        trace = WorkloadTrace([InvocationRequest(function_name=fname, submitted_at=5.0)])
        result = aws.run_workload(trace)
        assert aws.clock.now() == pytest.approx(result.records[0].finished_at)
        assert result.records[0].submitted_at == pytest.approx(5.0)
        # The span covers first submission to last completion, not the
        # idle lead-in before the first arrival.
        record = result.records[0]
        assert result.simulated_span_s == pytest.approx(record.finished_at - record.submitted_at)

    def test_explicit_zero_payload_bytes_is_honoured(self, simulation):
        """payload_bytes=0 in a trace matches invoke(..., payload_bytes=0)."""
        big_payload = {"blob": "x" * 500_000}

        def replay(payload_bytes):
            platform = create_platform(Provider.AWS, simulation=simulation)
            fname = _deploy(platform)
            trace = WorkloadTrace(
                [
                    InvocationRequest(
                        function_name=fname, payload=big_payload, payload_bytes=payload_bytes
                    )
                ]
            )
            return list(platform.invoke_stream(trace))[0]

        overridden = replay(0)
        measured = replay(None)
        # The 500 kB upload time only appears when the size is measured.
        assert measured.invocation_overhead_s > overridden.invocation_overhead_s + 0.01

    def test_stream_rejects_unsorted_requests(self, aws):
        fname = _deploy(aws)
        requests = [
            InvocationRequest(function_name=fname, submitted_at=1.0),
            InvocationRequest(function_name=fname, submitted_at=0.5),
        ]
        with pytest.raises(ConfigurationError):
            list(aws.invoke_stream(requests))

    @pytest.mark.parametrize("overload", (False, True), ids=("uncontrolled", "overload"))
    def test_nan_submission_time_is_rejected(self, overload):
        """NaN compares False both ways, so it must not slip past the sort
        check into the replay."""
        from repro.concurrency import OverloadConfig

        simulation = SimulationConfig(
            seed=3, overload=OverloadConfig(reserved_concurrency=4) if overload else None
        )
        platform = create_platform(Provider.AWS, simulation)
        fname = _deploy(platform)
        requests = [
            InvocationRequest(function_name=fname, submitted_at=0.5),
            InvocationRequest(function_name=fname, submitted_at=float("nan")),
            InvocationRequest(function_name=fname, submitted_at=1.0),
        ]
        for keep_records in (True, False):
            with pytest.raises(ConfigurationError, match="sorted"):
                platform.run_workload(requests, keep_records=keep_records)

    def test_run_workload_validates_functions_upfront(self, aws):
        trace = WorkloadTrace([InvocationRequest(function_name="ghost", submitted_at=0.0)])
        with pytest.raises(FunctionNotFoundError):
            aws.run_workload(trace)
        # Nothing was simulated: the clock has not moved.
        assert aws.clock.now() == 0.0

    def test_run_workload_is_deterministic_for_10k_poisson_trace(self):
        """Acceptance: same seed => identical cold-start count and cost."""

        def replay() -> tuple:
            platform = create_platform(Provider.AWS, SimulationConfig(seed=1234))
            fname = _deploy(platform)
            trace = WorkloadTrace.synthesize(fname, PoissonArrivals(10.0), 1000.0, rng=99)
            assert len(trace) >= 9_500  # ~10k arrivals at 10/s over 1000s
            result = platform.run_workload(trace)
            return result.invocations, result.cold_start_count, result.total_cost_usd

        first = replay()
        second = replay()
        assert first == second
        assert first[1] > 0 and first[2] > 0

    def test_per_function_summaries(self, aws):
        web = _deploy(aws, "web", "dynamic-html")
        thumbs = _deploy(aws, "thumbs", "thumbnailer")
        scenario = Scenario(
            name="two",
            duration_s=60.0,
            traffic=(
                FunctionTraffic(web, PoissonArrivals(2.0)),
                FunctionTraffic(thumbs, PoissonArrivals(1.0)),
            ),
        )
        result = aws.run_workload(scenario.build_trace(seed=3))
        summaries = result.per_function()
        assert set(summaries) == {"web", "thumbs"}
        assert sum(s.invocations for s in summaries.values()) == result.invocations
        assert sum(s.total_cost_usd for s in summaries.values()) == pytest.approx(result.total_cost_usd)
        for summary in summaries.values():
            assert summary.client_time is not None
            assert 0.0 <= summary.cold_start_rate <= 1.0
            row = summary.to_row()
            assert row["invocations"] == summary.invocations
        rows = result.to_rows()
        assert len(rows) == 2
        assert result.summary_row()["invocations"] == result.invocations

    def test_half_life_eviction_is_idempotent_between_periods(self, aws):
        """Repeated lazy policy application must not re-halve survivors."""
        fname = _deploy(aws)
        aws.invoke_batch(fname, 8)
        aws.clock.advance(400.0)  # one 380s period elapsed
        assert aws.warm_container_count(fname) == 4
        # Asking again (as every scheduling decision does) must not evict more.
        assert aws.warm_container_count(fname) == 4
        aws.clock.advance(380.0)  # second period
        assert aws.warm_container_count(fname) == 2

    def test_half_life_eviction_survives_external_invalidation(self, aws):
        """Containers created after update_function follow their own half-life.

        Regression: the policy must not remember the pre-invalidation batch
        size, or the smaller replacement population would never be evicted.
        """
        fname = _deploy(aws)
        aws.invoke_batch(fname, 8)
        aws.update_function(fname)  # invalidates all warm sandboxes
        aws.invoke_batch(fname, 2)  # same 380s creation window
        aws.clock.advance(400.0)
        assert aws.warm_container_count(fname) == 1
        aws.clock.advance(380.0)
        assert aws.warm_container_count(fname) == 0


class TestInvokeBatchValidation:
    def test_missing_function_wins_over_bad_count(self, aws):
        """Regression: fname is validated before the batch size."""
        with pytest.raises(FunctionNotFoundError):
            aws.invoke_batch("ghost", 0)
        with pytest.raises(FunctionNotFoundError):
            aws.invoke_batch("ghost", -3)

    def test_bad_count_still_rejected_for_existing_function(self, aws):
        fname = _deploy(aws)
        with pytest.raises(PlatformError):
            aws.invoke_batch(fname, 0)


class TestWorkloadReplayExperiment:
    def test_replays_same_trace_on_every_provider(self):
        experiment = WorkloadReplayExperiment(
            config=ExperimentConfig(samples=1, seed=7), simulation=SimulationConfig(seed=7)
        )
        deployments = (
            WorkloadDeployment("web", "dynamic-html", 256),
            WorkloadDeployment("thumbs", "thumbnailer", 1024),
        )
        result = experiment.run(
            providers=(Provider.AWS, Provider.AZURE),
            deployments=deployments,
            pattern="poisson",
            duration_s=60.0,
            rate_per_s=1.0,
        )
        assert set(result.per_provider) == {Provider.AWS, Provider.AZURE}
        for provider_result in result.per_provider.values():
            assert provider_result.invocations == result.trace_invocations
        rows = result.to_rows()
        assert {row["provider"] for row in rows} == {"aws", "azure"}
        assert len(result.summary_rows()) == 2

    def test_replays_external_trace(self, tmp_path):
        experiment = WorkloadReplayExperiment(
            config=ExperimentConfig(samples=1, seed=7), simulation=SimulationConfig(seed=7)
        )
        trace = WorkloadTrace.synthesize("web", ConstantRateArrivals(1.0), 20.0, rng=1)
        path = tmp_path / "external.json"
        trace.to_json(path)
        result = experiment.run(
            providers=(Provider.AWS,),
            deployments=(WorkloadDeployment("web", "dynamic-html", 256),),
            trace=WorkloadTrace.from_json(path),
        )
        assert result.scenario_name == "trace"
        assert result.per_provider[Provider.AWS].invocations == len(trace)
