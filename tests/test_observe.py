"""The observability layer's contracts (see ``docs/architecture.md``).

What is pinned here:

* **pure observation** — attaching an :class:`~repro.observe.EventLog`,
  a time-series builder and the profiler changes *nothing*: the replay's
  records and summaries are ``==``-identical to a detached run, for every
  provider (the observer draws no RNG values and reorders no decisions);
* **exact sharded series** — the merged time series of a sharded replay
  (``workers=4``, both backends, workload and workflow engines) equals the
  serial one exactly, including reservoir-backed window percentiles;
* **mode independence** — record mode and streaming mode fold the same
  series;
* **exporters** — edge cases (empty stream, single invocation, missing
  output directory) and schema sanity of the Chrome trace document;
* **guard rails** — spec-mismatch merges and resuming a pre-observability
  checkpoint fail loudly instead of producing a partial series.
"""

from __future__ import annotations

import json

import pytest

from repro.config import Provider, SimulationConfig
from repro.exceptions import CheckpointError, ConfigurationError
from repro.experiments.base import deploy_benchmark
from repro.faas.invocation import InvocationRequest
from repro.observe import (
    ContainerEvent,
    EventLog,
    InvocationSpan,
    ProfileBuilder,
    TimeSeriesSpec,
    WorkflowStageSpan,
    chrome_trace,
    invocation_span,
    iter_spans,
    prometheus_snapshot,
    timeseries_csv,
    write_chrome_trace,
    write_event_jsonl,
    write_prometheus_snapshot,
    write_timeseries_csv,
)
from repro.parallel import SupervisorConfig
from repro.population import PopulationSpec, replay_population
from repro.simulator.providers import create_platform
from repro.workflows import WorkflowEngine, standard_workflow, synthesize_workflow_arrivals
from repro.workload import BurstyArrivals, PoissonArrivals, WorkloadEngine, WorkloadTrace

PROVIDERS = (Provider.AWS, Provider.GCP, Provider.AZURE)

_DEPLOYMENTS = (
    ("web", "dynamic-html", 256),
    ("thumbs", "thumbnailer", 1024),
)


def _platform(provider: Provider = Provider.AWS, seed: int = 21):
    platform = create_platform(provider, SimulationConfig(seed=seed))
    for fname, benchmark, memory_mb in _DEPLOYMENTS:
        deploy_benchmark(
            platform,
            benchmark,
            memory_mb=memory_mb if platform.limits.memory_static else 0,
            function_name=fname,
        )
    return platform


def _trace(duration_s: float = 40.0) -> WorkloadTrace:
    return WorkloadTrace.merge(
        WorkloadTrace.synthesize("web", PoissonArrivals(4.0), duration_s=duration_s, rng=81),
        WorkloadTrace.synthesize(
            "thumbs",
            BurstyArrivals(on_rate_per_s=10.0, mean_on_s=4.0, mean_off_s=8.0),
            duration_s=duration_s,
            rng=82,
        ),
    )


def _workflow_setup(provider: Provider):
    spec, deployments = standard_workflow("pipeline", fan_out=4)
    platform = create_platform(provider, SimulationConfig(seed=33))
    for deployment in deployments:
        deploy_benchmark(
            platform,
            deployment.benchmark,
            memory_mb=deployment.memory_mb if platform.limits.memory_static else 0,
            function_name=deployment.function_name,
        )
    arrivals = synthesize_workflow_arrivals(spec, PoissonArrivals(0.8), 30.0, rng=90)
    return platform, arrivals


# ---------------------------------------------------------------------------
# Pure observation: attached == detached, bit for bit.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_observed_workload_replay_is_bit_identical(provider):
    trace = _trace()
    detached = _platform(provider).run_workload(trace)
    log = EventLog()
    attached = _platform(provider).run_workload(
        trace, observer=log, timeseries=TimeSeriesSpec(), profile=True
    )
    assert attached.records == detached.records
    assert attached.total_cost_usd == detached.total_cost_usd
    assert attached.simulated_span_s == detached.simulated_span_s
    assert attached.peak_in_flight == detached.peak_in_flight
    # The observer actually saw the replay.
    spans = [event for event in log.events if isinstance(event, InvocationSpan)]
    assert len(spans) == len(detached.records)
    assert any(isinstance(event, ContainerEvent) for event in log.events)
    assert attached.timeseries is not None and attached.profile is not None
    assert detached.timeseries is None and detached.profile is None


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_observed_workflow_replay_is_bit_identical(provider):
    platform, arrivals = _workflow_setup(provider)
    detached = platform.run_workflows(arrivals)
    attached_platform, _ = _workflow_setup(provider)
    log = EventLog()
    attached = attached_platform.run_workflows(arrivals, observer=log)
    assert [r.to_row() for r in attached.executions] == [
        r.to_row() for r in detached.executions
    ]
    stages = [event for event in log.events if isinstance(event, WorkflowStageSpan)]
    assert stages, "workflow stages must reach the observer"
    assert {stage.workflow for stage in stages} == {"pipeline"}


def test_invocation_span_segments_are_consistent():
    result = _platform().run_workload(_trace(15.0))
    for record in result.records:
        span = invocation_span(record)
        assert span.function == record.function_name
        assert span.finished_at >= span.started_at >= span.submitted_at
        assert span.queue_wait_s >= 0 and span.cold_init_s >= 0
        assert span.network_s >= 0
        if span.outcome == "executed":
            assert span.compute_s > 0
        document = span.to_dict()
        assert document["type"] == "invocation" and document["function"] == span.function


# ---------------------------------------------------------------------------
# Time series: sharded == serial, streaming == record mode.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_sharded_timeseries_equals_serial_sequential(provider):
    trace = _trace()
    spec = TimeSeriesSpec(window_s=5.0)
    serial = _platform(provider).run_workload(trace, timeseries=spec)
    sharded = _platform(provider).run_workload(
        trace, workers=4, backend="sequential", timeseries=spec
    )
    assert sharded.timeseries.to_dict() == serial.timeseries.to_dict()


def test_sharded_timeseries_equals_serial_process_backend():
    trace = _trace()
    spec = TimeSeriesSpec(window_s=5.0)
    serial = _platform().run_workload(trace, timeseries=spec)
    sharded = _platform().run_workload(trace, workers=4, backend="process", timeseries=spec)
    assert sharded.timeseries.to_dict() == serial.timeseries.to_dict()


def test_sharded_workflow_timeseries_equals_serial():
    platform, arrivals = _workflow_setup(Provider.AWS)
    spec = TimeSeriesSpec(window_s=5.0)
    serial = platform.run_workflows(arrivals, timeseries=spec)
    sharded_platform, _ = _workflow_setup(Provider.AWS)
    sharded = sharded_platform.run_workflows(
        arrivals, workers=4, backend="sequential", timeseries=spec
    )
    assert sharded.timeseries.to_dict() == serial.timeseries.to_dict()


def test_streaming_mode_folds_the_same_series():
    trace = _trace()
    spec = TimeSeriesSpec(window_s=5.0)
    record_mode = _platform().run_workload(trace, keep_records=True, timeseries=spec)
    streaming = _platform().run_workload(trace, keep_records=False, timeseries=spec)
    assert streaming.records == []
    assert streaming.timeseries.to_dict() == record_mode.timeseries.to_dict()


def test_streaming_mode_still_feeds_event_observers():
    trace = _trace(15.0)
    log = EventLog()
    result = _platform().run_workload(trace, keep_records=False, observer=log)
    assert result.records == []
    assert len([e for e in log.events if isinstance(e, InvocationSpan)]) == result.invocations


def test_timeseries_rows_are_dense_and_levels_prefix_summed():
    trace = _trace()
    result = _platform().run_workload(trace, timeseries=TimeSeriesSpec(window_s=5.0))
    rows = result.timeseries.rows()
    by_function: dict[str, list[dict]] = {}
    for row in rows:
        by_function.setdefault(row["function"], []).append(row)
    for fname, series in by_function.items():
        windows = [row["window"] for row in series]
        assert windows == list(range(windows[0], windows[0] + len(windows)))
        assert all(row["start_s"] == row["window"] * 5.0 for row in series)
        assert all(row["in_flight"] >= 0 and row["warm_pool"] >= 0 for row in series)
        assert sum(row["arrivals"] for row in series) == sum(
            1 for record in result.records if record.function_name == fname
        )


def test_timeseries_spec_validation():
    with pytest.raises(ConfigurationError):
        TimeSeriesSpec(window_s=0.0)
    with pytest.raises(ConfigurationError):
        TimeSeriesSpec(reservoir_capacity=0)


def test_merge_rejects_mismatched_specs():
    narrow = TimeSeriesSpec(window_s=5.0).build()
    wide = TimeSeriesSpec(window_s=10.0).build()
    with pytest.raises(ConfigurationError):
        narrow.merge(wide)


def test_engine_and_platform_observers_log_the_same_events():
    """The engines attach an observer to the platform exactly as the
    platform entry points do, so container lifecycle events are not lost."""
    trace = _trace(10.0)
    via_platform, via_engine = EventLog(), EventLog()
    _platform().run_workload(trace, observer=via_platform)
    WorkloadEngine(_platform()).run(trace, observer=via_engine)
    assert any(isinstance(event, ContainerEvent) for event in via_platform.events)
    assert via_engine.events == via_platform.events

    platform, arrivals = _workflow_setup(Provider.AWS)
    via_platform, via_engine = EventLog(), EventLog()
    platform.run_workflows(arrivals, observer=via_platform)
    platform, arrivals = _workflow_setup(Provider.AWS)
    WorkflowEngine(platform).run(arrivals, observer=via_engine)
    assert any(isinstance(event, ContainerEvent) for event in via_platform.events)
    assert via_engine.events == via_platform.events


def test_event_observer_requires_serial_replay():
    with pytest.raises(ConfigurationError):
        _platform().run_workload(_trace(10.0), workers=2, observer=EventLog())


def test_resuming_pre_observability_checkpoint_fails_loudly(tmp_path):
    trace = _trace(20.0)
    checkpoint_dir = tmp_path / "ckpt"
    _platform().run_workload(
        trace, workers=2, backend="sequential", checkpoint_dir=checkpoint_dir
    )
    with pytest.raises(CheckpointError):
        _platform().run_workload(
            trace,
            workers=2,
            backend="sequential",
            checkpoint_dir=checkpoint_dir,
            resume=True,
            timeseries=TimeSeriesSpec(window_s=5.0),
        )


# ---------------------------------------------------------------------------
# Profiling.
# ---------------------------------------------------------------------------


def test_serial_profile_covers_the_replay_phase():
    result = _platform().run_workload(_trace(15.0), profile=True)
    profile = result.profile
    assert set(profile.phases) == {"replay"}
    assert 0 < profile.accounted_s <= profile.wall_clock_s * 1.5 + 1e-6
    rows = profile.rows()
    assert rows and all(set(row) == {"phase", "seconds", "share"} for row in rows)


def _sharded_workload(**kwargs):
    return _platform().run_workload(_trace(20.0), **kwargs)


def _sharded_workflows(**kwargs):
    platform, arrivals = _workflow_setup(Provider.AWS)
    return platform.run_workflows(arrivals, **kwargs)


def _sharded_population(**kwargs):
    population = PopulationSpec(n_functions=30, duration_s=20.0, aggregate_rate_per_s=3.0)
    platform = create_platform(Provider.AWS, SimulationConfig(seed=21))
    return replay_population(platform, population, **kwargs).result


@pytest.mark.parametrize(
    "replay, supervision",
    [
        (_sharded_workload, None),
        (_sharded_workflows, None),
        (_sharded_population, SupervisorConfig()),
    ],
    ids=["run_workload", "run_workflows", "replay_population"],
)
def test_sharded_profile_has_plan_shards_merge_phases(replay, supervision):
    result = replay(workers=2, backend="sequential", supervision=supervision, profile=True)
    assert set(result.profile.phases) == {"plan", "shards", "merge"}
    # The profile mirrors whatever supervision the replay ran with.
    assert result.profile.supervision == result.supervision
    assert (result.supervision is not None) == (supervision is not None)
    document = result.profile.to_dict()
    assert set(document["phases"]) == {"plan", "shards", "merge"}


def test_profile_builder_nested_phases_accumulate():
    builder = ProfileBuilder()
    with builder.phase("outer"):
        with builder.phase("inner"):
            pass
    with builder.phase("outer"):
        pass
    profile = builder.build()
    assert set(profile.phases) == {"outer", "inner"}
    assert profile.phases["outer"] >= profile.phases["inner"]


# ---------------------------------------------------------------------------
# Exporters.
# ---------------------------------------------------------------------------


def test_chrome_trace_of_empty_stream(tmp_path):
    document = chrome_trace([])
    assert document == {"traceEvents": [], "displayTimeUnit": "ms"}
    target = tmp_path / "nested" / "dir" / "trace.json"
    write_chrome_trace([], target)
    assert json.loads(target.read_text()) == document


def test_chrome_trace_schema_sanity():
    trace = _trace(15.0)
    log = EventLog()
    _platform().run_workload(trace, observer=log)
    document = chrome_trace(log.events)
    events = document["traceEvents"]
    assert events
    phases = {event["ph"] for event in events}
    assert "X" in phases and "M" in phases
    for event in events:
        assert event["ph"] in {"X", "i", "M"}
        if event["ph"] == "X":
            assert event["dur"] >= 0 and event["ts"] >= 0
            assert event["pid"] in (1, 2)
            assert "outcome" in event["args"]
        if event["ph"] == "i":
            assert event["s"] == "g"
    names = [e["args"]["name"] for e in events if e["ph"] == "M"]
    assert set(names) >= {"web", "thumbs"}


def test_chrome_trace_single_invocation():
    trace = WorkloadTrace([InvocationRequest(function_name="web", submitted_at=0.0)])
    log = EventLog()
    _platform().run_workload(trace, observer=log)
    spans = list(iter_spans(log.events))
    assert len(spans) == 1
    document = chrome_trace(log.events)
    complete = [event for event in document["traceEvents"] if event["ph"] == "X"]
    assert len(complete) == 1
    assert complete[0]["name"] == "web"


def test_event_jsonl_round_trips(tmp_path):
    log = EventLog()
    _platform().run_workload(_trace(10.0), observer=log)
    target = tmp_path / "events.jsonl"
    write_event_jsonl(log.events, target)
    lines = target.read_text().splitlines()
    assert len(lines) == len(log.events)
    parsed = [json.loads(line) for line in lines]
    assert parsed == [event.to_dict() for event in log.events]
    empty = tmp_path / "empty.jsonl"
    write_event_jsonl([], empty)
    assert empty.read_text() == ""


def test_timeseries_csv_header_only_when_empty(tmp_path):
    builder = TimeSeriesSpec().build()
    text = timeseries_csv(builder)
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("function,window,start_s,arrivals,")
    assert lines[0].endswith("p50_client_s,p95_client_s,p99_client_s")
    target = tmp_path / "sub" / "series.csv"
    write_timeseries_csv(builder, target)
    assert target.read_text() == text


def test_timeseries_csv_rows_match_builder(tmp_path):
    result = _platform().run_workload(_trace(), timeseries=TimeSeriesSpec(window_s=5.0))
    text = timeseries_csv(result.timeseries)
    lines = text.splitlines()
    assert len(lines) == len(result.timeseries.rows()) + 1
    # Empty cells are exactly the None percentiles; numbers round-trip via repr.
    first = lines[1].split(",")
    assert first[0] in {"web", "thumbs"}


def test_prometheus_snapshot_format(tmp_path):
    result = _platform().run_workload(_trace(10.0))
    text = prometheus_snapshot(result, labels={"provider": "aws", "trace": "t"})
    assert text.endswith("\n")
    assert '# TYPE repro_replay_invocations_total counter' in text
    assert 'repro_replay_invocations_total{provider="aws",trace="t"}' in text
    assert "repro_replay_wall_clock_seconds" in text
    target = tmp_path / "metrics" / "snapshot.prom"
    write_prometheus_snapshot(result, target, labels={"provider": "aws"})
    assert target.read_text().startswith("# HELP ")


def test_iter_spans_unwraps_workflow_stages():
    platform, arrivals = _workflow_setup(Provider.AWS)
    log = EventLog()
    platform.run_workflows(arrivals, observer=log)
    spans = list(iter_spans(log.events))
    assert spans and all(isinstance(span, InvocationSpan) for span in spans)
    assert len(spans) == sum(
        1 for event in log.events if isinstance(event, WorkflowStageSpan)
    )
