"""Tests of the workflow orchestration subsystem (repro.workflows)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import ExperimentConfig, Provider, SimulationConfig, StartType, TriggerType
from repro.exceptions import ConfigurationError, FunctionNotFoundError
from repro.experiments.base import deploy_benchmark
from repro.experiments.workflow_replay import WorkflowReplayExperiment
from repro.faas.invocation import InvocationRequest
from repro.simulator.providers import create_platform
from repro.workload import (
    ConstantRateArrivals,
    FunctionTraffic,
    MergedWorkloadTrace,
    PoissonArrivals,
    Scenario,
    WorkflowTraffic,
    WorkloadTrace,
)
from repro.workflows import (
    STANDARD_WORKFLOWS,
    TriggerEdgeModel,
    WorkflowArrival,
    WorkflowSpec,
    WorkflowStage,
    merge_workflow_arrivals,
    standard_workflow,
    synthesize_workflow_arrivals,
)


def _platform(seed: int = 11, provider: Provider = Provider.AWS):
    platform = create_platform(provider, SimulationConfig(seed=seed))
    deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="web")
    deploy_benchmark(platform, "thumbnailer", memory_mb=1024, function_name="thumb")
    deploy_benchmark(platform, "uploader", memory_mb=512, function_name="up")
    return platform


def _signatures(records):
    """Per-record signatures with container ids canonicalised per run."""
    canonical: dict[str, int] = {}
    signatures = []
    for record in records:
        container = canonical.setdefault(record.container_id, len(canonical))
        signatures.append(
            (
                record.function_name,
                record.submitted_at,
                record.started_at,
                record.finished_at,
                record.start_type,
                record.cost.total,
                container,
            )
        )
    return signatures


# ------------------------------------------------------------------ spec layer
class TestWorkflowSpec:
    def test_validation_rejects_malformed_dags(self):
        with pytest.raises(ConfigurationError):
            WorkflowSpec("empty", ())
        with pytest.raises(ConfigurationError):
            WorkflowSpec("dup", (WorkflowStage("a", "f"), WorkflowStage("a", "g")))
        with pytest.raises(ConfigurationError):
            WorkflowSpec("unknown", (WorkflowStage("a", "f", after=("ghost",)),))
        with pytest.raises(ConfigurationError):
            WorkflowSpec("self", (WorkflowStage("a", "f", after=("a",)),))
        with pytest.raises(ConfigurationError):  # two-node cycle (also: no root)
            WorkflowSpec(
                "cycle",
                (WorkflowStage("a", "f", after=("b",)), WorkflowStage("b", "g", after=("a",))),
            )
        with pytest.raises(ConfigurationError):  # TIMER only fires roots
            WorkflowSpec(
                "timer-edge",
                (
                    WorkflowStage("a", "f"),
                    WorkflowStage("b", "g", after=("a",), trigger=TriggerType.TIMER),
                ),
            )

    @pytest.mark.parametrize(
        "value", (-1.0, float("nan"), float("inf")), ids=("negative", "nan", "inf")
    )
    def test_arrival_rejects_bad_timestamps(self, value):
        spec = WorkflowSpec("one", (WorkflowStage("a", "f"),))
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            WorkflowArrival(spec, value)

    def test_trigger_defaults(self):
        spec = WorkflowSpec(
            "defaults", (WorkflowStage("root", "f"), WorkflowStage("next", "g", after=("root",)))
        )
        assert spec.stage("root").resolved_trigger() is TriggerType.HTTP
        assert spec.stage("next").resolved_trigger() is TriggerType.QUEUE

    def test_topology_accessors(self):
        spec = WorkflowSpec(
            "diamond",
            (
                WorkflowStage("d", "f", after=("b", "c")),
                WorkflowStage("b", "f", after=("a",)),
                WorkflowStage("c", "f", after=("a",)),
                WorkflowStage("a", "f"),
            ),
        )
        assert spec.roots() == ("a",)
        assert spec.terminals() == ("d",)
        assert spec.downstream("a") == ("b", "c")
        assert spec.stage_names()[0] == "a" and spec.stage_names()[-1] == "d"
        assert spec.functions() == ["f"]

    def test_cardinality_and_guard(self):
        stage = WorkflowStage("m", "f", map_items="items")
        assert stage.cardinality({"items": [1, 2, 3]}) == 3
        assert stage.cardinality({"items": 5}) == 5
        assert stage.cardinality({}) == 1
        assert WorkflowStage("m", "f", map_items=4).cardinality({}) == 4
        with pytest.raises(ConfigurationError):
            stage.cardinality({"items": "lots"})
        guarded = WorkflowStage("g", "f", run_if=("route", "fast"))
        assert guarded.should_run({"route": "fast"})
        assert not guarded.should_run({"route": "slow"})
        assert not guarded.should_run({})

    def test_synthesize_and_merge_arrivals(self):
        spec = WorkflowSpec("one", (WorkflowStage("a", "f"),))
        first = synthesize_workflow_arrivals(spec, PoissonArrivals(2.0), 50.0, rng=3)
        second = synthesize_workflow_arrivals(spec, PoissonArrivals(2.0), 50.0, rng=3)
        assert [a.submitted_at for a in first] == [a.submitted_at for a in second]
        other = synthesize_workflow_arrivals(spec, ConstantRateArrivals(1.0), 50.0, rng=0)
        merged = merge_workflow_arrivals(first, other)
        times = [arrival.submitted_at for arrival in merged]
        assert times == sorted(times)
        assert len(merged) == len(first) + len(other)


# ---------------------------------------------------------------- edge latency
class TestTriggerEdges:
    def test_edge_delays_are_deterministic_per_identity(self):
        platform = _platform(seed=3)
        model_a = TriggerEdgeModel(platform)
        model_b = TriggerEdgeModel(platform)
        args = ("wf#0", "down", "up", 128, 1024)
        for trigger in (TriggerType.QUEUE, TriggerType.STORAGE):
            assert model_a.delay(trigger, *args) == model_b.delay(trigger, *args)
        # Different edges and executions draw different delays.
        assert model_a.delay(TriggerType.QUEUE, "wf#0", "down", "up", 128, 1024) != model_a.delay(
            TriggerType.QUEUE, "wf#1", "down", "up", 128, 1024
        )
        assert model_a.delay(TriggerType.QUEUE, "wf#0", "down", "up", 128, 1024) != model_a.delay(
            TriggerType.QUEUE, "wf#0", "other", "up", 128, 1024
        )

    def test_synchronous_edges_are_free_and_async_edges_are_not(self):
        model = TriggerEdgeModel(_platform(seed=3))
        assert model.delay(TriggerType.HTTP, "wf#0", "d", "u", 64, 512) == 0.0
        assert model.delay(TriggerType.SDK, "wf#0", "d", "u", 64, 512) == 0.0
        assert model.delay(TriggerType.QUEUE, "wf#0", "d", "u", 64, 512) > 0.0
        assert model.delay(TriggerType.STORAGE, "wf#0", "d", "u", 64, 512) > 0.0

    def test_storage_events_slower_than_queue_hops(self):
        model = TriggerEdgeModel(_platform(seed=3))
        queue = [
            model.delay(TriggerType.QUEUE, f"wf#{i}", "d", "u", 256, 1024) for i in range(50)
        ]
        storage = [
            model.delay(TriggerType.STORAGE, f"wf#{i}", "d", "u", 256, 1024) for i in range(50)
        ]
        assert sum(storage) / len(storage) > sum(queue) / len(queue)


# -------------------------------------------------------------- engine replay
class TestWorkflowEngine:
    def test_chain_respects_completion_plus_edge_delay(self):
        platform = _platform()
        spec = WorkflowSpec(
            "chain",
            (
                WorkflowStage("first", "web"),
                WorkflowStage("second", "thumb", after=("first",), trigger=TriggerType.QUEUE),
            ),
        )
        records = []
        result = platform.run_workflows(
            [WorkflowArrival(spec, 0.0)], record_sink=records.append
        )
        assert len(records) == 2
        first, second = records
        # The queue edge delays the downstream invocation past the upstream
        # completion — never before it, never simultaneous.
        assert second.submitted_at > first.finished_at
        execution = result.executions[0]
        assert execution.critical_path == ("first", "second")
        assert execution.trigger_propagation_s == pytest.approx(
            second.submitted_at - first.finished_at
        )

    def test_synchronous_chain_starts_at_upstream_completion(self):
        platform = _platform()
        spec = WorkflowSpec(
            "sync-chain",
            (
                WorkflowStage("first", "web"),
                WorkflowStage("second", "thumb", after=("first",), trigger=TriggerType.HTTP),
            ),
        )
        records = []
        platform.run_workflows([WorkflowArrival(spec, 0.0)], record_sink=records.append)
        assert records[1].submitted_at == pytest.approx(records[0].finished_at)

    def test_fan_in_waits_for_slowest_upstream(self):
        platform = _platform()
        spec = WorkflowSpec(
            "diamond",
            (
                WorkflowStage("src", "web"),
                WorkflowStage("fast", "web", after=("src",), trigger=TriggerType.QUEUE),
                WorkflowStage("slow", "thumb", after=("src",), trigger=TriggerType.QUEUE),
                WorkflowStage("join", "up", after=("fast", "slow"), trigger=TriggerType.QUEUE),
            ),
        )
        records = []
        result = platform.run_workflows(
            [WorkflowArrival(spec, 0.0)], record_sink=records.append
        )
        by_stage = {
            "src": records[0],
            "fast": next(r for r in records[1:] if r.function_name == "web"),
            "slow": next(r for r in records if r.function_name == "thumb"),
            "join": next(r for r in records if r.function_name == "up"),
        }
        assert by_stage["join"].submitted_at > max(
            by_stage["fast"].finished_at, by_stage["slow"].finished_at
        )
        # The critical path runs through whichever branch finished last.
        execution = result.executions[0]
        slowest = max(("fast", "slow"), key=lambda name: by_stage[name].finished_at)
        assert execution.critical_path == ("src", slowest, "join")

    def test_dynamic_map_spawns_one_task_per_item(self):
        platform = _platform()
        spec = WorkflowSpec(
            "mapper",
            (
                WorkflowStage("split", "web"),
                WorkflowStage(
                    "work", "thumb", after=("split",), map_items="items", trigger=TriggerType.QUEUE
                ),
                WorkflowStage("join", "up", after=("work",), trigger=TriggerType.QUEUE),
            ),
        )
        records = []
        result = platform.run_workflows(
            [WorkflowArrival(spec, 0.0, payload={"items": ["x", "y", "z"]})],
            record_sink=records.append,
        )
        execution = result.executions[0]
        assert execution.invocations == 5  # split + 3 map tasks + join
        map_records = [r for r in records if r.function_name == "thumb"]
        assert len(map_records) == 3
        # All tasks start together; the join waits for the slowest task.
        assert len({r.submitted_at for r in map_records}) == 1
        join = next(r for r in records if r.function_name == "up")
        assert join.submitted_at > max(r.finished_at for r in map_records)

    def test_map_cardinality_reads_the_stage_payload_override(self):
        """A map keyed on data in the stage's own payload override fans out."""
        platform = _platform()
        spec = WorkflowSpec(
            "override-map",
            (
                WorkflowStage("split", "web"),
                WorkflowStage(
                    "work",
                    "thumb",
                    after=("split",),
                    payload={"items": ["a", "b", "c", "d"]},
                    map_items="items",
                ),
            ),
        )
        result = platform.run_workflows([WorkflowArrival(spec, 0.0, payload={})])
        assert result.executions[0].invocations == 5  # split + 4 map tasks

    def test_conditional_branch_routes_and_skips(self):
        platform = _platform()
        spec = WorkflowSpec(
            "router",
            (
                WorkflowStage("classify", "web"),
                WorkflowStage(
                    "small", "thumb", after=("classify",), run_if=("size", "small")
                ),
                WorkflowStage(
                    "large", "up", after=("classify",), run_if=("size", "large")
                ),
                WorkflowStage("store", "up", after=("small", "large")),
            ),
        )
        records = []
        result = platform.run_workflows(
            [
                WorkflowArrival(spec, 0.0, payload={"size": "small"}),
                WorkflowArrival(spec, 30.0, payload={"size": "large"}),
            ],
            record_sink=records.append,
        )
        first, second = result.executions
        assert first.invocations == 3 and first.skipped_stages == 1
        assert "small" in first.critical_path and "large" not in first.critical_path
        assert second.invocations == 3 and second.skipped_stages == 1
        assert "large" in second.critical_path and "small" not in second.critical_path
        assert [r.function_name for r in records if r.function_name == "thumb"] == ["thumb"]

    def test_fully_skipped_execution_completes_without_invocations(self):
        platform = _platform()
        spec = WorkflowSpec(
            "ghost",
            (
                WorkflowStage("only", "web", run_if=("enabled", True)),
            ),
        )
        result = platform.run_workflows([WorkflowArrival(spec, 1.0, payload={})])
        execution = result.executions[0]
        assert execution.invocations == 0
        assert execution.skipped_stages == 1
        assert execution.end_to_end_s == 0.0

    def test_timer_root_charges_firing_jitter_as_trigger_time(self):
        platform = _platform()
        spec = WorkflowSpec(
            "cron", (WorkflowStage("tick", "web", trigger=TriggerType.TIMER),)
        )
        records = []
        result = platform.run_workflows(
            [WorkflowArrival(spec, 5.0)], record_sink=records.append
        )
        execution = result.executions[0]
        assert execution.trigger_propagation_s > 0
        assert records[0].submitted_at == pytest.approx(5.0 + execution.trigger_propagation_s)

    def test_critical_path_components_sum_to_end_to_end(self):
        spec, functions = standard_workflow("fanout", fan_out=5)
        platform = create_platform(Provider.AWS, SimulationConfig(seed=23))
        for function in functions:
            deploy_benchmark(
                platform,
                function.benchmark,
                memory_mb=function.memory_mb,
                function_name=function.function_name,
            )
        arrivals = synthesize_workflow_arrivals(spec, PoissonArrivals(1.0), 120.0, rng=2)
        result = platform.run_workflows(arrivals)
        assert result.executions
        for execution in result.executions:
            total = execution.compute_s + execution.cold_start_s + execution.trigger_propagation_s
            assert total == pytest.approx(execution.end_to_end_s, rel=1e-9, abs=1e-12)

    def test_costs_aggregate_constituent_invocations(self):
        platform = _platform()
        spec = WorkflowSpec(
            "billed",
            (
                WorkflowStage("a", "web"),
                WorkflowStage("b", "thumb", after=("a",)),
            ),
        )
        records = []
        result = platform.run_workflows(
            [WorkflowArrival(spec, 0.0)], record_sink=records.append
        )
        execution = result.executions[0]
        assert execution.cost_usd == pytest.approx(sum(r.cost.total for r in records))
        assert execution.cold_starts == sum(
            1 for r in records if r.start_type is StartType.COLD
        )

    def test_unknown_function_fails_before_simulation(self):
        platform = _platform()
        spec = WorkflowSpec("missing", (WorkflowStage("a", "nope"),))
        with pytest.raises(FunctionNotFoundError):
            platform.run_workflows([WorkflowArrival(spec, 0.0)])

    def test_unsorted_arrivals_rejected(self):
        platform = _platform()
        spec = WorkflowSpec("sorted", (WorkflowStage("a", "web"),))
        arrivals = [WorkflowArrival(spec, 10.0), WorkflowArrival(spec, 1.0)]
        with pytest.raises(ConfigurationError):
            platform.run_workflows(arrivals)

    def test_replay_is_deterministic(self):
        def run():
            platform = _platform(seed=31)
            spec = WorkflowSpec(
                "det",
                (
                    WorkflowStage("a", "web"),
                    WorkflowStage("b", "thumb", after=("a",), trigger=TriggerType.STORAGE),
                    WorkflowStage("c", "up", after=("a", "b"), trigger=TriggerType.QUEUE),
                ),
            )
            arrivals = synthesize_workflow_arrivals(spec, PoissonArrivals(0.5), 80.0, rng=6)
            records = []
            result = platform.run_workflows(arrivals, record_sink=records.append)
            return [e.to_row() for e in result.executions], _signatures(records)

        rows_a, signatures_a = run()
        rows_b, signatures_b = run()
        assert rows_a == rows_b
        assert signatures_a == signatures_b

    def test_streaming_mode_matches_exact_aggregates(self):
        spec = WorkflowSpec(
            "agg",
            (
                WorkflowStage("a", "web"),
                WorkflowStage("b", "thumb", after=("a",)),
            ),
        )
        arrivals = synthesize_workflow_arrivals(spec, PoissonArrivals(1.0), 90.0, rng=8)
        exact = _platform(seed=13).run_workflows(arrivals, keep_records=True)
        streamed = _platform(seed=13).run_workflows(arrivals, keep_records=False)
        assert streamed.executions == []
        assert streamed.execution_count == exact.execution_count == len(arrivals)
        assert streamed.invocation_total == exact.invocation_total
        assert streamed.cold_start_total == exact.cold_start_total
        assert streamed.cost_usd_total == pytest.approx(exact.cost_usd_total)
        assert streamed.end_to_end_s_total == pytest.approx(exact.end_to_end_s_total)
        assert streamed.summaries.keys() == exact.summaries.keys()
        assert streamed.summaries["agg"].invocations == exact.summaries["agg"].invocations


# ------------------------------------------------- property-based invariants
class TestWorkflowProperties:
    DIAMOND_STAGES = (
        WorkflowStage("src", "web"),
        WorkflowStage("left", "thumb", after=("src",), trigger=TriggerType.QUEUE),
        WorkflowStage("right", "up", after=("src",), trigger=TriggerType.STORAGE),
        WorkflowStage("sink", "web", after=("left", "right"), trigger=TriggerType.QUEUE),
    )

    @settings(max_examples=8, deadline=None)
    @given(order=st.permutations(range(4)))
    def test_declaration_order_invariance(self, order):
        """Topologically equivalent specs replay bit-identically."""
        spec = WorkflowSpec("perm", tuple(self.DIAMOND_STAGES[i] for i in order))
        platform = _platform(seed=17)
        arrivals = synthesize_workflow_arrivals(spec, PoissonArrivals(0.8), 30.0, rng=5)
        records = []
        result = platform.run_workflows(arrivals, record_sink=records.append)
        rows = [e.to_row() for e in result.executions]
        signatures = _signatures(records)
        baseline_rows, baseline_signatures = self._baseline()
        assert rows == baseline_rows
        assert signatures == baseline_signatures

    _cached_baseline = None

    @classmethod
    def _baseline(cls):
        if cls._cached_baseline is None:
            spec = WorkflowSpec("perm", cls.DIAMOND_STAGES)
            platform = _platform(seed=17)
            arrivals = synthesize_workflow_arrivals(spec, PoissonArrivals(0.8), 30.0, rng=5)
            records = []
            result = platform.run_workflows(arrivals, record_sink=records.append)
            cls._cached_baseline = (
                [e.to_row() for e in result.executions],
                _signatures(records),
            )
        return cls._cached_baseline

    def test_single_stage_workflow_equals_plain_trace_replay(self):
        """A 1-stage HTTP workflow is exactly a flat trace replay."""
        times = [0.0, 0.4, 0.4, 2.5, 30.0]
        payload = {"kind": "check"}
        spec = WorkflowSpec("single", (WorkflowStage("only", "web"),))
        workflow_records = []
        workflow_platform = _platform(seed=41)
        result = workflow_platform.run_workflows(
            [WorkflowArrival(spec, t, payload=payload) for t in times],
            record_sink=workflow_records.append,
        )
        plain_platform = _platform(seed=41)
        trace = WorkloadTrace(
            [InvocationRequest("web", payload=payload, submitted_at=t) for t in times]
        )
        plain = plain_platform.run_workload(trace)
        assert _signatures(workflow_records) == _signatures(plain.records)
        # And the workflow view agrees: one invocation per execution, the
        # whole client time attributed to compute + cold start, no trigger
        # propagation on a synchronous root.
        for execution, record in zip(result.executions, plain.records):
            assert execution.invocations == 1
            assert execution.trigger_propagation_s == 0.0
            assert execution.end_to_end_s == pytest.approx(record.client_time_s)


# ---------------------------------------------------- scenario + experiment
class TestWorkflowScenario:
    def test_scenario_workflow_traffic(self):
        spec, _ = standard_workflow("pipeline")
        scenario = Scenario(
            name="mixed-composition",
            duration_s=60.0,
            traffic=(FunctionTraffic("web", PoissonArrivals(1.0)),),
            workflow_traffic=(WorkflowTraffic(spec, PoissonArrivals(0.5)),),
        )
        assert "wf-thumbnail" in scenario.functions() and "web" in scenario.functions()
        arrivals_a = scenario.build_workflow_arrivals(seed=4)
        arrivals_b = scenario.build_workflow_arrivals(seed=4)
        assert [a.submitted_at for a in arrivals_a] == [a.submitted_at for a in arrivals_b]
        assert all(a.workflow is spec for a in arrivals_a)
        # Flat traffic streams are untouched by adding workflow traffic.
        flat_only = Scenario(
            name="mixed-composition",
            duration_s=60.0,
            traffic=(FunctionTraffic("web", PoissonArrivals(1.0)),),
        )
        assert list(scenario.build_trace(seed=4)) == list(flat_only.build_trace(seed=4))

    def test_workload_experiment_rejects_workflow_traffic(self):
        """The flat replay refuses to silently drop workflow arrivals."""
        from repro.experiments.workload_replay import (
            WorkloadDeployment,
            WorkloadReplayExperiment,
        )

        spec, _ = standard_workflow("pipeline")
        scenario = Scenario(
            name="both",
            duration_s=20.0,
            traffic=(FunctionTraffic("web", PoissonArrivals(1.0)),),
            workflow_traffic=(WorkflowTraffic(spec, PoissonArrivals(0.5)),),
        )
        experiment = WorkloadReplayExperiment(
            config=ExperimentConfig(samples=1, seed=3), simulation=SimulationConfig(seed=3)
        )
        with pytest.raises(ConfigurationError):
            experiment.run(
                providers=(Provider.AWS,),
                deployments=(WorkloadDeployment("web", "dynamic-html", 256),),
                scenario=scenario,
            )

    def test_scenario_requires_some_traffic(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="empty", duration_s=10.0)
        spec, _ = standard_workflow("pipeline")
        workflow_only = Scenario(
            name="wf", duration_s=10.0, workflow_traffic=(WorkflowTraffic(spec, PoissonArrivals(1.0)),)
        )
        with pytest.raises(ConfigurationError):
            workflow_only.build_trace(seed=0)

    def test_standard_workflows_cover_catalog(self):
        for name in STANDARD_WORKFLOWS:
            spec, functions = standard_workflow(name)
            assert spec.name == name
            deployed = {function.function_name for function in functions}
            assert set(spec.functions()) <= deployed
        with pytest.raises(ConfigurationError):
            standard_workflow("nope")

    def test_experiment_replays_same_arrivals_on_every_provider(self):
        experiment = WorkflowReplayExperiment(
            config=ExperimentConfig(samples=1, seed=7), simulation=SimulationConfig(seed=7)
        )
        result = experiment.run(
            providers=(Provider.AWS, Provider.AZURE),
            workflow="fanout",
            duration_s=30.0,
            rate_per_s=0.5,
            fan_out=3,
        )
        assert set(result.per_provider) == {Provider.AWS, Provider.AZURE}
        for provider_result in result.per_provider.values():
            assert provider_result.execution_count == result.executions
            assert provider_result.invocation_total == result.executions * 5
        assert {row["provider"] for row in result.to_rows()} == {"aws", "azure"}
        assert len(result.summary_rows()) == 2


# ------------------------------------------------------------ lazy trace merge
class TestLazyMerge:
    def test_merge_is_lazy_and_reiterable(self):
        a = WorkloadTrace.synthesize("a", ConstantRateArrivals(1.0), 10.0, rng=0)
        b = WorkloadTrace.synthesize("b", ConstantRateArrivals(1.0, phase_s=0.5), 10.0, rng=0)
        merged = WorkloadTrace.merge(a, b)
        assert isinstance(merged, MergedWorkloadTrace)
        assert len(merged) == len(a) + len(b)
        assert merged.functions() == ["a", "b"]
        assert merged.duration_s == max(a.duration_s, b.duration_s)
        # Re-iterable (each pass runs a fresh heapq.merge) and time-sorted.
        first_pass = [r.submitted_at for r in merged]
        second_pass = [r.submitted_at for r in merged]
        assert first_pass == second_pass == sorted(first_pass)

    def test_merge_matches_materialised_behaviour(self):
        a = WorkloadTrace.synthesize("a", PoissonArrivals(2.0), 40.0, rng=1)
        b = WorkloadTrace.synthesize("b", PoissonArrivals(3.0), 40.0, rng=2)
        lazy = list(WorkloadTrace.merge(a, b))
        eager = list(WorkloadTrace(list(a) + list(b)))
        assert lazy == eager

    def test_nested_merges_compose(self):
        a = WorkloadTrace.synthesize("a", ConstantRateArrivals(1.0), 5.0, rng=0)
        b = WorkloadTrace.synthesize("b", ConstantRateArrivals(1.0), 5.0, rng=0)
        c = WorkloadTrace.synthesize("c", ConstantRateArrivals(1.0), 5.0, rng=0)
        nested = WorkloadTrace.merge(WorkloadTrace.merge(a, b), c)
        assert len(nested) == 15
        assert nested.functions() == ["a", "b", "c"]
        times = [r.submitted_at for r in nested]
        assert times == sorted(times)

    def test_merge_rejects_unsorted_sources(self):
        with pytest.raises(ConfigurationError):
            WorkloadTrace.merge([InvocationRequest("f", submitted_at=1.0)])

    def test_merged_trace_replays_in_streaming_mode(self):
        platform = _platform(seed=5)
        merged = WorkloadTrace.merge(
            WorkloadTrace.synthesize("web", PoissonArrivals(2.0), 30.0, rng=1),
            WorkloadTrace.synthesize("thumb", PoissonArrivals(1.0), 30.0, rng=2),
        )
        result = platform.run_workload(merged, keep_records=False)
        assert result.records == []
        assert result.invocations == len(merged)
        assert set(result.per_function()) == {"thumb", "web"}

    def test_merged_trace_validates_functions_upfront(self):
        platform = _platform(seed=5)
        merged = WorkloadTrace.merge(
            WorkloadTrace.synthesize("ghost", PoissonArrivals(2.0), 10.0, rng=1)
        )
        with pytest.raises(FunctionNotFoundError):
            platform.run_workload(merged)

    def test_merged_trace_serialises_via_materialisation(self, tmp_path):
        merged = WorkloadTrace.merge(
            WorkloadTrace.synthesize("a", ConstantRateArrivals(1.0), 5.0, rng=0)
        )
        path = tmp_path / "merged.json"
        merged.to_json(path)
        assert len(WorkloadTrace.from_json(path)) == len(merged)


# -------------------------------------------------------------------- the CLI
class TestWorkflowCLI:
    def test_workflow_command_with_output(self, capsys, tmp_path):
        output = tmp_path / "workflow.json"
        assert main([
            "workflow", "--workflow", "fanout", "--duration", "20", "--rate", "0.5",
            "--fan-out", "3", "--providers", "aws", "--output", str(output),
        ]) == 0
        assert "Workflow replay" in capsys.readouterr().out
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["command"] == "workflow"
        assert document["providers"][0]["provider"] == "aws"
        assert document["per_workflow"][0]["workflow"] == "fanout"

    def test_workflow_command_streaming(self, capsys):
        assert main([
            "workflow", "--workflow", "branch", "--duration", "20", "--rate", "0.5",
            "--providers", "aws", "--streaming",
        ]) == 0
        assert "branch" in capsys.readouterr().out

    def test_workload_command_with_output(self, capsys, tmp_path):
        output = tmp_path / "workload.json"
        assert main([
            "workload", "--pattern", "poisson", "--duration", "30", "--rate", "1",
            "--providers", "aws", "--output", str(output),
        ]) == 0
        assert "Workload replay" in capsys.readouterr().out
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["command"] == "workload"
        assert document["providers"][0]["provider"] == "aws"
        assert document["per_function"]
