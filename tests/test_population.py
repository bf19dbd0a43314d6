"""Million-tenant population generation, trace ingestion, and sharded replay.

The contracts pinned here:

* **bit-identity** — ``replay_population`` at any worker count (sequential
  or process backend) merges to exactly the serial result, modulo the
  documented streaming exemptions (``peak_in_flight`` is a max-over-shards
  lower bound, wall clock is a measurement);
* **scenario-bridge equivalence** — the dedicated population replay and
  ``platform.run_workload(population.scenario(seed))`` replay the *same*
  invocations: identical counts and bit-identical total cost;
* **ingest round-trip** — the checked-in Azure-format fixture parses to a
  pinned structural summary and replays identically sharded vs serial;
* **recipe laziness** — arrivals and recipes are pure functions of
  ``(population, seed, index)``, independent of sharding or call order.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DYNAMIC_MEMORY, Provider, SimulationConfig, TriggerType
from repro.exceptions import ConfigurationError
from repro.parallel import PlatformSnapshot, ShardPlanner
from repro.parallel import plan as plan_module
from repro.parallel import supervisor as supervisor_module
from repro.parallel.supervisor import run_installed, ship
from repro.population import (
    SEBS_PROFILES,
    AppProfile,
    PopulationSpec,
    TraceIngest,
    replay_population,
    tenant_attribution,
)
from repro.population.ingest import summarize_population
from repro.population.replay import (
    _replay_population_shard,
    _resolve_memory,
    _shard_request_stream,
    deploy_population,
)
from repro.simulator.providers import create_platform

from generator_loop import generator_run

FIXTURE = "tests/fixtures/azure_trace_sample.csv"

SMALL = PopulationSpec(
    n_functions=120,
    duration_s=120.0,
    aggregate_rate_per_s=12.0,
    n_tenants=10,
    name="small-pop",
)


def _platform(provider=Provider.AWS, seed=42):
    return create_platform(provider, SimulationConfig(seed=seed))


def _assert_streaming_equal(serial, parallel):
    """Merged sharded result equals serial, minus the documented exemptions."""
    assert parallel.records == []
    assert parallel.invocations == serial.invocations
    assert parallel.cold_start_total == serial.cold_start_total
    assert parallel.failure_total == serial.failure_total
    assert parallel.total_cost_usd == serial.total_cost_usd
    assert parallel.simulated_span_s == serial.simulated_span_s
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
        assert parallel_dist.mean == serial_dist.mean
        assert parallel_dist.median == serial_dist.median
        assert parallel_dist.percentiles == serial_dist.percentiles


# --------------------------------------------------------------------- spec
class TestPopulationSpec:
    def test_validation_rejects_bad_envelopes(self):
        with pytest.raises(ConfigurationError):
            PopulationSpec(n_functions=0, duration_s=60.0, aggregate_rate_per_s=1.0)
        with pytest.raises(ConfigurationError):
            PopulationSpec(n_functions=10, duration_s=0.0, aggregate_rate_per_s=1.0)
        with pytest.raises(ConfigurationError):
            PopulationSpec(n_functions=10, duration_s=60.0, aggregate_rate_per_s=0.0)
        with pytest.raises(ConfigurationError):
            PopulationSpec(
                n_functions=10, duration_s=60.0, aggregate_rate_per_s=1.0, n_tenants=0
            )
        with pytest.raises(ConfigurationError):
            PopulationSpec(
                n_functions=10, duration_s=60.0, aggregate_rate_per_s=1.0,
                diurnal_amplitude=1.5,
            )
        with pytest.raises(ConfigurationError):
            PopulationSpec(
                n_functions=10, duration_s=60.0, aggregate_rate_per_s=1.0,
                burst_multiplier=0.5,
            )
        with pytest.raises(ConfigurationError):
            PopulationSpec(
                n_functions=10, duration_s=60.0, aggregate_rate_per_s=1.0, profiles=()
            )

    @pytest.mark.parametrize(
        "field",
        [
            "duration_s",
            "aggregate_rate_per_s",
            "zipf_alpha",
            "diurnal_period_s",
            "burst_window_s",
            "burst_multiplier",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_validation_rejects_non_finite_floats(self, field, value):
        base = dict(n_functions=10, duration_s=60.0, aggregate_rate_per_s=1.0)
        base[field] = value
        with pytest.raises(ConfigurationError):
            PopulationSpec(**base)

    def test_expected_counts_are_zipf_and_sum_to_rate_times_duration(self):
        counts = SMALL.expected_counts()
        assert counts.shape == (SMALL.n_functions,)
        assert np.all(np.diff(counts) < 0)  # strictly decreasing popularity
        assert counts.sum() == pytest.approx(
            SMALL.aggregate_rate_per_s * SMALL.duration_s
        )

    def test_recipes_are_deterministic_and_profile_consistent(self):
        for index in (0, 7, 119):
            first = SMALL.recipe(index, seed=42)
            again = SMALL.recipe(index, seed=42)
            assert first == again
            assert first.function_name == f"small-pop-{index:07d}"
            assert first.profile in SEBS_PROFILES
            assert first.memory_mb in first.profile.memory_mb_choices
            low, high = first.profile.payload_bytes_range
            assert low <= first.payload_bytes <= high
            assert first.trigger is first.profile.trigger

    def test_arrivals_are_pure_functions_of_spec_seed_index(self):
        first = SMALL.arrivals(3, seed=42)
        again = SMALL.arrivals(3, seed=42)
        np.testing.assert_array_equal(first, again)
        assert np.all(np.diff(first) >= 0)
        assert first.size == 0 or (first[0] >= 0.0 and first[-1] < SMALL.duration_s)
        # A different seed re-derives a different stream.
        other = SMALL.arrivals(3, seed=43)
        assert first.shape != other.shape or not np.array_equal(first, other)

    def test_arrival_process_is_pinned_to_population_horizon(self):
        traffic = SMALL.traffic(0, seed=42)
        rng = np.random.default_rng(0)
        pinned = traffic.process.generate(SMALL.duration_s, rng)
        np.testing.assert_array_equal(pinned, SMALL.arrivals(0, seed=42))
        with pytest.raises(ConfigurationError):
            traffic.process.generate(SMALL.duration_s + 1.0, rng)


# ------------------------------------------------------------------ planner
class TestPopulationPlanner:
    @staticmethod
    def _assert_plan_contract(population, workers):
        """Shards partition the members, each sorted, deterministic and in budget."""
        n = population.n_functions
        shards = ShardPlanner().plan_population(population, seed=42, workers=workers)
        again = ShardPlanner().plan_population(population, seed=42, workers=workers)
        budget = plan_module.MEMBER_BUDGET
        assert len(shards) == min(
            n, max(plan_module.SHARDS_PER_WORKER * workers, math.ceil(n / budget))
        )
        assert [shard.index for shard in shards] == list(range(len(shards)))
        seen = np.concatenate([shard.member_indices for shard in shards])
        assert sorted(seen.tolist()) == list(range(n))
        for shard, repeat in zip(shards, again, strict=True):
            np.testing.assert_array_equal(shard.member_indices, repeat.member_indices)
            assert np.all(np.diff(shard.member_indices) > 0)  # sorted ascending
            assert 1 <= shard.member_indices.size <= budget
            assert shard.weight == pytest.approx(
                population.expected_counts()[shard.member_indices].sum()
            )

    def test_plan_partitions_members_disjointly_and_deterministically(self):
        self._assert_plan_contract(SMALL, workers=4)

    def test_plan_never_exceeds_workers_or_members(self, monkeypatch):
        tiny = PopulationSpec(n_functions=3, duration_s=10.0, aggregate_rate_per_s=1.0)
        assert len(ShardPlanner().plan_population(tiny, seed=1, workers=8)) == 3
        assert len(ShardPlanner().plan_population(SMALL, seed=1, workers=1)) == (
            plan_module.SHARDS_PER_WORKER
        )
        # A budget below n / (SHARDS_PER_WORKER * workers) sets the count.
        monkeypatch.setattr(plan_module, "MEMBER_BUDGET", 7)
        self._assert_plan_contract(SMALL, workers=1)
        assert len(ShardPlanner().plan_population(SMALL, seed=1, workers=1)) == 18
        with pytest.raises(ConfigurationError):
            ShardPlanner().plan_population(SMALL, seed=1, workers=0)

    @settings(max_examples=40, deadline=None)
    @given(
        n_functions=st.integers(min_value=1, max_value=400),
        workers=st.integers(min_value=1, max_value=6),
        budget=st.sampled_from((1, 3, 16, 100_000)),
    )
    def test_plan_contract_holds_for_any_size(self, n_functions, workers, budget):
        population = PopulationSpec(
            n_functions=n_functions, duration_s=60.0, aggregate_rate_per_s=5.0
        )
        with mock.patch.object(plan_module, "MEMBER_BUDGET", budget):
            self._assert_plan_contract(population, workers)

    @pytest.mark.parametrize("backend", ("sequential", "process"))
    def test_many_small_shards_replay_bit_identically(self, backend, monkeypatch):
        serial = replay_population(_platform(), SMALL, workers=1)
        monkeypatch.setattr(plan_module, "MEMBER_BUDGET", 5)
        assert len(ShardPlanner().plan_population(SMALL, seed=42, workers=2)) == 24
        sharded = replay_population(_platform(), SMALL, workers=2, backend=backend)
        _assert_streaming_equal(serial.result, sharded.result)
        assert sharded.result.per_function() == serial.result.per_function()
        assert sharded.top_tenants == serial.top_tenants
        assert sharded.functions_active == serial.functions_active


# ---------------------------------------------------------------- deployment
class TestMemoryResolution:
    def test_azure_collapses_to_dynamic(self):
        platform = _platform(Provider.AZURE)
        assert _resolve_memory(platform.limits, 1024) == DYNAMIC_MEMORY

    def test_gcp_rounds_up_to_discrete_size(self):
        limits = _platform(Provider.GCP).limits
        assert _resolve_memory(limits, 200) == 256
        assert _resolve_memory(limits, 256) == 256
        assert _resolve_memory(limits, 1536) == 2048
        assert _resolve_memory(limits, 99999) == max(
            size for size in limits.allowed_memory_mb if size != DYNAMIC_MEMORY
        )

    def test_aws_clamps_into_range(self):
        limits = _platform(Provider.AWS).limits
        assert _resolve_memory(limits, 64) == limits.memory_min_mb
        assert _resolve_memory(limits, 512) == 512
        assert _resolve_memory(limits, 10**6) == limits.memory_max_mb

    @pytest.mark.parametrize(
        "provider", (Provider.AWS, Provider.GCP, Provider.AZURE), ids=lambda p: p.value
    )
    def test_deploy_population_deploys_legal_configs(self, provider):
        platform = _platform(provider)
        deployed = deploy_population(platform, [SMALL.recipe(index, 42) for index in range(10)])
        assert deployed == 10
        assert len(platform.functions()) == 10


# ------------------------------------------------------------------- replay
class TestPopulationReplay:
    def test_snapshot_refuses_deployed_or_kernel_platforms(self):
        platform = _platform()
        deploy_population(platform, [SMALL.recipe(0, 42)])
        with pytest.raises(ConfigurationError, match="empty platform"):
            replay_population(platform, SMALL)
        kernels = create_platform(Provider.AWS, SimulationConfig(seed=42), execute_kernels=True)
        with pytest.raises(ConfigurationError, match="execute_kernels"):
            replay_population(kernels, SMALL)

    def test_shard_worker_refuses_record_mode(self):
        platform = _platform()
        snapshot = PlatformSnapshot.capture(platform)
        shard = ShardPlanner().plan_population(SMALL, seed=42, workers=1)[0]
        with pytest.raises(ConfigurationError):
            _replay_population_shard(snapshot, shard, keep_records=True)

    def test_process_tasks_ship_the_population_once(self, monkeypatch):
        """A pool task carries its shard without the population, which the
        worker resolves from the copy its pool initializer installed."""
        fixture = TraceIngest.load(FIXTURE)
        wide = dataclasses.replace(fixture, counts=np.tile(fixture.counts, (1, 48)))
        snapshot = PlatformSnapshot.capture(_platform())
        shard = ShardPlanner().plan_population(wide, seed=42, workers=1)[0]
        task = pickle.dumps(ship(shard, (wide,)))
        assert len(pickle.dumps(shard)) > len(pickle.dumps(wide)) > 100_000 > 50 * len(task)
        monkeypatch.setattr(
            supervisor_module, "_installed", (_replay_population_shard, snapshot, (wide,))
        )
        shipped = run_installed(pickle.loads(task), False)
        direct = _replay_population_shard(snapshot, shard, False)
        assert repr(shipped.sink.summaries()) == repr(direct.sink.summaries())
        assert shipped.sink.invocations == direct.sink.invocations > 0

    def test_sharded_replay_is_bit_identical_to_serial(self):
        serial = replay_population(_platform(), SMALL, workers=1)
        for workers in (2, 4):
            sharded = replay_population(_platform(), SMALL, workers=workers)
            _assert_streaming_equal(serial.result, sharded.result)
            assert sharded.top_tenants == serial.top_tenants
            assert sharded.functions_active == serial.functions_active

    def test_process_backend_matches_sequential(self):
        sequential = replay_population(_platform(), SMALL, workers=2, backend="sequential")
        process = replay_population(_platform(), SMALL, workers=2, backend="process")
        _assert_streaming_equal(sequential.result, process.result)
        assert process.top_tenants == sequential.top_tenants

    def test_columnar_replay_matches_scalar(self):
        """The sharded columnar replay equals one serial generator loop over
        the whole population's merged request stream."""
        active, arrivals = [], []
        for index in range(SMALL.n_functions):
            offsets = SMALL.arrivals(index, 42)
            if offsets.size:
                active.append(index)
                arrivals.append(offsets)
        platform = _platform()
        recipes = [SMALL.recipe(index, 42) for index in active]
        deploy_population(platform, recipes)
        requests = _shard_request_stream(recipes, arrivals)
        scalar = generator_run(platform, requests, keep_records=False)
        columnar = replay_population(_platform(), SMALL, workers=2)
        _assert_streaming_equal(scalar, columnar.result)
        top = len(columnar.top_tenants)
        assert columnar.top_tenants == tuple(tenant_attribution(scalar, SMALL, seed=42)[:top])

    def test_dedicated_path_equals_scenario_bridge(self):
        """The scale path replays exactly the scenario bridge's invocations."""
        dedicated = replay_population(_platform(), SMALL, workers=1)
        bridge_platform = _platform()
        deploy_population(
            bridge_platform, [SMALL.recipe(index, 42) for index in range(SMALL.n_functions)]
        )
        scenario = SMALL.scenario(seed=42)
        bridged = bridge_platform.run_workload(
            scenario.build_trace(0), keep_records=False
        )
        assert dedicated.invocations == bridged.invocations
        assert dedicated.total_cost_usd == bridged.total_cost_usd
        dedicated_fns = dedicated.result.per_function()
        bridged_fns = {
            fname: summary
            for fname, summary in bridged.per_function().items()
            if summary.invocations
        }
        assert set(dedicated_fns) == set(bridged_fns)
        for fname, summary in bridged_fns.items():
            assert dedicated_fns[fname].invocations == summary.invocations
            assert dedicated_fns[fname].total_cost_usd == summary.total_cost_usd

    def test_attribution_ranks_by_spend_and_conserves_totals(self):
        replay = replay_population(_platform(), SMALL, workers=1, top_tenants=5)
        spends = tenant_attribution(replay.result, SMALL, seed=42)
        costs = [spend.cost_usd for spend in spends]
        assert costs == sorted(costs, reverse=True)
        assert sum(spend.invocations for spend in spends) == replay.invocations
        assert sum(costs) == pytest.approx(replay.total_cost_usd)
        assert replay.top_tenants == tuple(spends[:5])

    def test_profile_and_summary_row(self):
        replay = replay_population(_platform(), SMALL, workers=2, profile=True)
        assert set(replay.result.profile.phases) >= {"plan", "shards", "merge"}
        row = replay.summary_row()
        assert row["population"] == "small-pop"
        assert row["functions_total"] == SMALL.n_functions
        assert row["functions_active"] == replay.functions_active


# ------------------------------------------------------------------- ingest
class TestTraceIngest:
    def test_fixture_round_trips_to_pinned_summary(self):
        population = TraceIngest.load(FIXTURE)
        assert summarize_population(population, seed=42) == {
            "name": "azure_trace_sample",
            "functions": 12,
            "tenants": 5,
            "duration_s": 1800.0,
            "expected_invocations": 2887.0,
            "hottest_function": "az-00000-7c57996e",
            "hottest_share": pytest.approx(0.4135781087634222),
        }
        assert population.counts.shape == (12, 30)
        assert population.tenant_names[0] == "app-bae34f3e7161"
        assert population.triggers[2] is TriggerType.TIMER
        assert population.triggers[4] is TriggerType.STORAGE

    def test_arrivals_reconstruct_exact_minute_counts(self):
        population = TraceIngest.load(FIXTURE)
        for index in range(population.n_functions):
            offsets = population.arrivals(index, seed=42)
            assert offsets.size == int(population.counts[index].sum())
            assert np.all(np.diff(offsets) >= 0)
            minutes = np.floor(offsets / 60.0).astype(int)
            per_minute = np.bincount(minutes, minlength=population.counts.shape[1])
            np.testing.assert_array_equal(per_minute, population.counts[index])

    def test_limit_slices_rows(self):
        population = TraceIngest.load(FIXTURE, limit=5)
        assert population.n_functions == 5

    def test_ingested_replay_sharded_equals_serial(self):
        population = TraceIngest.load(FIXTURE)
        serial = replay_population(_platform(), population, workers=1)
        sharded = replay_population(_platform(), population, workers=3)
        _assert_streaming_equal(serial.result, sharded.result)
        assert sharded.top_tenants == serial.top_tenants
        assert serial.invocations == 2887

    def test_malformed_traces_raise_configuration_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            TraceIngest.load(empty)
        missing = tmp_path / "missing.csv"
        missing.write_text("HashOwner,HashApp,1,2\n")
        with pytest.raises(ConfigurationError, match="HashFunction"):
            TraceIngest.load(missing)
        no_minutes = tmp_path / "nominutes.csv"
        no_minutes.write_text("HashOwner,HashApp,HashFunction,Trigger\n")
        with pytest.raises(ConfigurationError, match="minute"):
            TraceIngest.load(no_minutes)
        bad_count = tmp_path / "bad.csv"
        bad_count.write_text("HashOwner,HashApp,HashFunction,1\no,a,f,oops\n")
        with pytest.raises(ConfigurationError, match="non-numeric"):
            TraceIngest.load(bad_count)
        no_rows = tmp_path / "norows.csv"
        no_rows.write_text("HashOwner,HashApp,HashFunction,1\n")
        with pytest.raises(ConfigurationError, match="no data rows"):
            TraceIngest.load(no_rows)

    @pytest.mark.parametrize(
        "count, kind",
        [("-2", "negative"), ("2.7", "non-integer"), ("inf", "non-finite"), ("nan", "non-finite")],
    )
    def test_bad_counts_rejected_at_load_with_row_number(self, tmp_path, count, kind):
        trace = tmp_path / "counts.csv"
        trace.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
            "o,a,f,http,1,2.0\n"
            f"o,a,g,http,3,{count}\n"
        )
        with pytest.raises(ConfigurationError, match=f"row 3 has a {kind} invocation count"):
            TraceIngest.load(trace)

    def test_integral_float_counts_load(self, tmp_path):
        trace = tmp_path / "floats.csv"
        trace.write_text("HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,f,http,1.0,3e0\n")
        assert TraceIngest.load(trace).counts.tolist() == [[1, 3]]

    @pytest.mark.parametrize("label", ["webhook", ""])
    def test_unmapped_trigger_rejected_at_load_with_row_number(self, tmp_path, label):
        trace = tmp_path / "triggers.csv"
        trace.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1\n"
            "o,a,f,HTTP,1\n"
            f"o,a,g,{label},1\n"
        )
        with pytest.raises(
            ConfigurationError, match=f"row 3 has an unmapped Trigger label '{label}'"
        ):
            TraceIngest.load(trace)

    def test_trace_without_trigger_column_maps_to_http(self, tmp_path):
        trace = tmp_path / "notrigger.csv"
        trace.write_text("HashOwner,HashApp,HashFunction,1\no,a,f,1\no,a,g,2\n")
        assert TraceIngest.load(trace).triggers == (TriggerType.HTTP, TriggerType.HTTP)

    def test_duplicate_identity_rows_rejected_at_load(self, tmp_path):
        trace = tmp_path / "dupes.csv"
        trace.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1\n"
            "o,a,f,http,1\n"
            "o,a,g,http,1\n"
            "o,a,f,queue,4\n"
        )
        with pytest.raises(ConfigurationError, match=r"row 4 repeats .* of row 2"):
            TraceIngest.load(trace)
        # The same function hash under another owner or app is another function.
        trace.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1\n"
            "o,a,f,http,1\n"
            "p,a,f,http,1\n"
            "o,b,f,http,1\n"
        )
        assert TraceIngest.load(trace).n_functions == 3


# ----------------------------------------------------------------- profiles
class TestProfiles:
    def test_catalog_profiles_are_valid(self):
        for profile in SEBS_PROFILES:
            assert profile.memory_mb_choices
            low, high = profile.payload_bytes_range
            assert 0 < low <= high
            assert profile.timeout_s > 0
            assert profile.mix_weight > 0

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            AppProfile(
                name="bad", benchmark="dynamic-html", memory_mb_choices=(),
                payload_bytes_range=(1, 2),
            )
        with pytest.raises(ConfigurationError):
            AppProfile(
                name="bad", benchmark="dynamic-html", memory_mb_choices=(128,),
                payload_bytes_range=(10, 2),
            )
