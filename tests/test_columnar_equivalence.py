"""Batch replay must equal the generator loop — bit for bit.

The differential tier behind the columnar hot path (see
``docs/performance.md``, "Columnar hot path"): every scenario is replayed
twice on identically-seeded platforms — once through the batch entry point
(``WorkloadEngine.run``, which runs the columnar engine whenever
``WorkloadEngine.replay`` allows), once through the generator loop
(``WorkloadEngine._run`` folded by ``generator_loop.generator_run``) —
and every observable output is compared with ``==`` (which for floats is
bit equality, no tolerances):

* the full record list, field for field, including cost breakdowns,
  container ids, submission/start/finish timestamps and request indices;
* streaming summaries (counts, sums, reservoir percentile state);
* provider logs, final clock, peak in-flight, simulated span;
* observer event streams (container create/evict, per-record hooks);
* sharded replay (``workers=2``) on both backends, where record-mode
  shards ship columnar blocks across the process boundary, with and
  without a simulated-time series.

Scenarios are hypothesis-generated over providers × arrival patterns ×
trigger types × the overload/fault/resilience stack, plus explicit pinned
cases for every provider, IaaS (both storage modes) and the controlled
stack — the paths the columnar engine either inlines or must compose with
through the draw-block shims.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import InputSize
from repro.concurrency import OverloadConfig
from repro.config import DYNAMIC_MEMORY, Provider, SimulationConfig, TriggerType
from repro.experiments.base import deploy_benchmark
from repro.faults import FaultPlaneConfig, LatencyStorm, OutageWindow
from repro.parallel import run_workload_sharded
from repro.resilience import CircuitBreakerConfig, ResilienceConfig
from repro.simulator.iaas import IaaSPlatform
from repro.simulator.providers import create_platform
from repro.workload import (
    BurstyArrivals,
    ConstantRateArrivals,
    PoissonArrivals,
    WorkloadTrace,
)
from repro.workload.engine import WorkloadEngine, _record_builder

from generator_loop import generator_run

PROVIDERS = (Provider.AWS, Provider.GCP, Provider.AZURE)


# ----------------------------------------------------------------- helpers


def _record_key(record):
    """Every field of an InvocationRecord, as a comparable tuple."""
    return (
        record.function_name,
        record.benchmark,
        record.provider,
        record.start_type,
        record.success,
        record.benchmark_time_s,
        record.provider_time_s,
        record.client_time_s,
        record.invocation_overhead_s,
        record.cold_init_s,
        record.memory_declared_mb,
        record.memory_used_mb,
        record.billed_duration_s,
        record.cost.request_cost,
        record.cost.compute_cost,
        record.cost.storage_cost,
        record.cost.egress_cost,
        record.output_bytes,
        record.container_id,
        record.submitted_at,
        record.started_at,
        record.finished_at,
        record.error,
        record.outcome,
        record.admitted_at,
        record.request_index,
    )


def _stream_key(result):
    """Streaming-mode result signature: counters + summary state."""
    rows = {
        name: json.dumps(summary.__dict__, default=repr, sort_keys=True)
        for name, summary in sorted(result.streaming_summaries.items())
    }
    return (
        result.invocation_count,
        result.cold_start_total,
        result.failure_total,
        result.executed_total,
        result.throttled_total,
        result.dropped_total,
        result.faulted_total,
        result.short_circuited_total,
        result.retry_total,
        result.cost_usd_total,
        result.simulated_span_s,
        rows,
    )


def _logs_key(platform, fnames):
    out = []
    for fname in fnames:
        out.append(
            [
                (
                    entry.provider_time_s,
                    entry.memory_used_mb,
                    entry.cost_usd,
                    entry.start_type,
                    entry.success,
                    entry.timestamp,
                )
                for entry in platform._state[fname].history
            ]
        )
    return out


def _build_platform(provider, seed, **simkw):
    simulation = SimulationConfig(seed=seed, **simkw)
    platform = create_platform(provider, simulation=simulation)
    memory = DYNAMIC_MEMORY if provider is Provider.AZURE else 512
    f1 = deploy_benchmark(platform, "dynamic-html", memory_mb=memory, function_name="fn-a")
    f2 = deploy_benchmark(platform, "thumbnailer", memory_mb=memory, function_name="fn-b")
    return platform, (f1, f2)


def _trace(fnames, process_a, process_b, duration_s, trigger_b):
    t1 = WorkloadTrace.synthesize(
        fnames[0], process_a, duration_s, rng=11, trigger=TriggerType.HTTP
    )
    t2 = WorkloadTrace.synthesize(fnames[1], process_b, duration_s, rng=12, trigger=trigger_b)
    return WorkloadTrace.merge(t1, t2)


def _replay_both(provider, trace_of, keep_records, seed=2026, observer_factory=None, **simkw):
    """Replay one scenario through the generator loop and the batch entry
    point; return both outputs (reference first)."""
    outputs = []
    for batch in (False, True):
        platform, fnames = _build_platform(provider, seed, **simkw)
        observer = observer_factory() if observer_factory is not None else None
        if batch:
            result = WorkloadEngine(platform).run(
                trace_of(fnames), keep_records=keep_records, observer=observer
            )
        else:
            result = generator_run(platform, trace_of(fnames), keep_records, observer)
        outputs.append((result, platform, fnames, observer))
    return outputs


def _assert_identical(outputs, keep_records):
    (res_s, plat_s, fnames, _), (res_c, plat_c, _, _) = outputs
    if keep_records:
        assert len(res_s.records) == len(res_c.records)
        for scalar, columnar in zip(res_s.records, res_c.records):
            assert _record_key(scalar) == _record_key(columnar)
    else:
        assert _stream_key(res_s) == _stream_key(res_c)
    assert res_s.simulated_span_s == res_c.simulated_span_s
    assert res_s.peak_in_flight == res_c.peak_in_flight
    assert plat_s.clock.now() == plat_c.clock.now()
    assert _logs_key(plat_s, fnames) == _logs_key(plat_c, fnames)


# ------------------------------------------------------ hypothesis scenarios

_ARRIVALS = {
    "poisson": lambda rate: PoissonArrivals(rate),
    "bursty": lambda rate: BurstyArrivals(
        on_rate_per_s=rate * 3, mean_on_s=3.0, mean_off_s=6.0
    ),
    "constant": lambda rate: ConstantRateArrivals(rate),
}


def _stack_kwargs(overload, faults, resilience):
    simkw = {}
    if overload:
        simkw["overload"] = OverloadConfig(per_function_reserved={"fn-a": 8})
    if faults:
        simkw["faults"] = FaultPlaneConfig(
            outages=(OutageWindow(start_s=3.0, duration_s=2.5),),
            storms=(LatencyStorm(start_s=8.0, duration_s=3.0),),
        )
    if resilience:
        simkw["resilience"] = ResilienceConfig(
            breaker=CircuitBreakerConfig(), retry_policy="exponential"
        )
    return simkw


scenario = st.fixed_dictionaries(
    {
        "provider": st.sampled_from(PROVIDERS),
        "pattern": st.sampled_from(sorted(_ARRIVALS)),
        "rate": st.floats(min_value=2.0, max_value=25.0),
        "duration_s": st.floats(min_value=4.0, max_value=15.0),
        "trigger_b": st.sampled_from((TriggerType.SDK, TriggerType.HTTP)),
        "overload": st.booleans(),
        "faults": st.booleans(),
        "resilience": st.booleans(),
        "keep_records": st.booleans(),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)


class TestHypothesisScenarios:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=scenario)
    def test_scalar_and_columnar_replays_are_bit_identical(self, case):
        arrivals = _ARRIVALS[case["pattern"]]

        def trace_of(fnames):
            return _trace(
                fnames,
                arrivals(case["rate"]),
                arrivals(max(1.0, case["rate"] / 2)),
                case["duration_s"],
                case["trigger_b"],
            )

        simkw = _stack_kwargs(case["overload"], case["faults"], case["resilience"])
        outputs = _replay_both(
            case["provider"], trace_of, case["keep_records"], seed=case["seed"], **simkw
        )
        _assert_identical(outputs, case["keep_records"])


# ------------------------------------------------------------ pinned cases


def _mixed_trace(fnames):
    return _trace(fnames, PoissonArrivals(20.0), PoissonArrivals(15.0), 20.0, TriggerType.SDK)


class TestPinnedProviders:
    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize("keep_records", (True, False))
    def test_fast_path(self, provider, keep_records):
        outputs = _replay_both(provider, _mixed_trace, keep_records)
        _assert_identical(outputs, keep_records)

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_full_stack_records(self, provider):
        simkw = _stack_kwargs(True, True, True)
        outputs = _replay_both(provider, _mixed_trace, True, **simkw)
        _assert_identical(outputs, True)

    @pytest.mark.parametrize("use_cloud_storage", (False, True))
    def test_iaas(self, use_cloud_storage):
        outputs = []
        for batch in (False, True):
            simulation = SimulationConfig(seed=2026)
            platform = IaaSPlatform(simulation=simulation, use_cloud_storage=use_cloud_storage)
            f1 = deploy_benchmark(platform, "dynamic-html", memory_mb=1024, function_name="fn-a")
            f2 = deploy_benchmark(platform, "thumbnailer", memory_mb=1024, function_name="fn-b")
            trace = _mixed_trace((f1, f2))
            if batch:
                result = WorkloadEngine(platform).run(trace, keep_records=True)
            else:
                result = generator_run(platform, trace, keep_records=True)
            outputs.append((result, platform, (f1, f2), None))
        _assert_identical(outputs, True)


class _RecordingObserver:
    """Captures every hook call the engine makes, in order."""

    def __init__(self):
        self.events = []

    def on_container_create(self, fname, container_id, timestamp):
        self.events.append(("create", fname, container_id, timestamp))

    def on_container_evict(self, fname, count, timestamp, reason):
        self.events.append(("evict", fname, count, timestamp, reason))

    def on_invocation(self, record):
        self.events.append(("invocation", _record_key(record)))


class TestObserverStream:
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_observer_events_identical(self, provider):
        outputs = _replay_both(
            provider, _mixed_trace, True, observer_factory=_RecordingObserver
        )
        (res_s, _, _, obs_s), (res_c, _, _, obs_c) = outputs
        assert obs_s.events == obs_c.events
        for scalar, columnar in zip(res_s.records, res_c.records):
            assert _record_key(scalar) == _record_key(columnar)


class TestSharded:
    """workers=2: columnar shards ship blocks; merged output equals the
    serial generator loop."""

    @pytest.mark.parametrize("backend", ("sequential", "process"))
    @pytest.mark.parametrize("keep_records", (True, False))
    def test_sharded_columnar_equals_serial_scalar(self, backend, keep_records):
        serial_platform, fnames = _build_platform(Provider.AWS, 2026)
        serial = generator_run(serial_platform, _mixed_trace(fnames), keep_records)
        platform, fnames = _build_platform(Provider.AWS, 2026)
        sharded = run_workload_sharded(
            platform,
            _mixed_trace(fnames),
            workers=2,
            backend=backend,
            keep_records=keep_records,
        )
        if keep_records:
            assert [_record_key(r) for r in sharded.records] == [
                _record_key(r) for r in serial.records
            ]
        else:
            assert _stream_key(sharded) == _stream_key(serial)

    def test_sharded_timeseries_matches_serial_generator_loop(self):
        """Time-series shards run the columnar emit hook; the merged series
        equals one built by the serial generator loop."""
        from repro.observe import TimeSeriesSpec

        serial_platform, fnames = _build_platform(Provider.AWS, 2026)
        builder = TimeSeriesSpec(window_s=5.0).build()
        serial = generator_run(serial_platform, _mixed_trace(fnames), False, builder)
        platform, fnames = _build_platform(Provider.AWS, 2026)
        sharded = run_workload_sharded(
            platform,
            _mixed_trace(fnames),
            workers=2,
            keep_records=False,
            timeseries=5.0,
        )
        assert _stream_key(sharded) == _stream_key(serial)
        assert json.dumps(sharded.timeseries.to_dict(), sort_keys=True) == json.dumps(
            builder.to_dict(), sort_keys=True
        )


class TestSingleFastPath:
    """Uncontrolled replays never enter the generator loop: batch, streamed,
    observed and workflow replays alike."""

    @staticmethod
    def _forbidden(engine, *args):
        raise AssertionError("uncontrolled replay entered the generator loop")

    @pytest.fixture(autouse=True)
    def _forbid_generator_loop(self, monkeypatch):
        # The loop itself: stream() picks it for controlled replays, and a
        # streaming controlled replay runs it directly.
        monkeypatch.setattr(WorkloadEngine, "_run", self._forbidden)

    @pytest.mark.parametrize("keep_records", (True, False))
    def test_serial_run_workload(self, keep_records):
        platform, fnames = _build_platform(Provider.AWS, 2026)
        result = platform.run_workload(_mixed_trace(fnames), keep_records=keep_records)
        assert result.invocations > 0

    @pytest.mark.parametrize("timeseries", (None, 5.0))
    def test_sharded_run_workload(self, timeseries):
        platform, fnames = _build_platform(Provider.AWS, 2026)
        result = run_workload_sharded(
            platform,
            _mixed_trace(fnames),
            workers=2,
            backend="sequential",
            keep_records=False,
            timeseries=timeseries,
        )
        assert result.invocations > 0

    def test_replay_population(self):
        from repro.population import PopulationSpec, replay_population

        population = PopulationSpec(
            n_functions=40, duration_s=60.0, aggregate_rate_per_s=5.0, name="guard"
        )
        platform = create_platform(Provider.AWS, SimulationConfig(seed=2026))
        replay = replay_population(platform, population, workers=2, backend="sequential")
        assert replay.invocations > 0

    def test_invoke_stream(self):
        platform, fnames = _build_platform(Provider.AWS, 2026)
        trace = _mixed_trace(fnames)
        assert len(list(platform.invoke_stream(trace))) == len(trace)

    def test_observed_run_workload(self):
        platform, fnames = _build_platform(Provider.AWS, 2026)
        observer = _RecordingObserver()
        result = platform.run_workload(_mixed_trace(fnames), observer=observer)
        assert len(result.records) == result.invocations > 0
        assert sum(event[0] == "invocation" for event in observer.events) == result.invocations

    def test_serial_run_workflows(self):
        from repro.workflows import standard_workflow, synthesize_workflow_arrivals

        spec, functions = standard_workflow("fanout", fan_out=3)
        platform = create_platform(Provider.AWS, SimulationConfig(seed=2026))
        for function in functions:
            deploy_benchmark(
                platform, function.benchmark, memory_mb=function.memory_mb,
                function_name=function.function_name,
            )
        arrivals = synthesize_workflow_arrivals(spec, PoissonArrivals(1.0), duration_s=20.0, rng=3)
        result = platform.run_workflows(arrivals)
        assert len(result.executions) == len(arrivals) > 0


@pytest.mark.parametrize("provider", PROVIDERS)
def test_closed_invoke_stream_matches_generator_loop(provider, monkeypatch):
    """Closing an uncontrolled ``invoke_stream`` after ``k`` records (on the
    columnar loop) leaves no sandbox reserved, and the provider log, the
    clock and the records equal the generator loop's after the same ``k``
    requests."""
    from repro.faas.platform import LogQueryType

    k = 57
    observed = []
    for reference in (True, False):
        platform, fnames = _build_platform(provider, 2026)
        trace = _mixed_trace(fnames)
        if reference:
            out = []
            stream = WorkloadEngine(platform)._run(
                trace, None, _record_builder(platform, out.append), out
            )
        else:
            monkeypatch.setattr(WorkloadEngine, "_run", TestSingleFastPath._forbidden)
            stream = platform.invoke_stream(trace)
        records = [_record_key(next(stream)) for _ in range(k)]
        stream.close()
        for fname in fnames:
            pool = platform._state[fname].pool
            assert [pool.in_use_count(c.container_id) for c in pool] == [0] * len(pool)
        logs = [
            platform.query_logs(fname, query) for fname in fnames for query in LogQueryType
        ]
        observed.append((records, logs, _logs_key(platform, fnames), platform.clock.now()))
    assert observed[0] == observed[1]
    assert sum(map(len, observed[0][2])) == k


@pytest.mark.parametrize("provider", PROVIDERS)
def test_stream_sees_function_updates_between_records(provider):
    """Updating a function's configuration or input size between two
    records of an uncontrolled stream takes effect from its next request,
    as on the generator loop: records, provider log and clock agree."""
    k = 40
    observed = []
    for reference in (True, False):
        platform, fnames = _build_platform(provider, 2026)
        trace = _mixed_trace(fnames)
        if reference:
            out = []
            stream = WorkloadEngine(platform)._run(trace, None, _record_builder(platform, out.append), out)
        else:
            stream = platform.invoke_stream(trace)
        records = [_record_key(next(stream)) for _ in range(k)]
        config = platform.get_function(fnames[0]).config
        platform.update_function(fnames[0], config=dataclasses.replace(config, timeout_s=0.05))
        records += [_record_key(next(stream)) for _ in range(k)]
        platform.set_input_size(fnames[1], InputSize.LARGE)
        records += [_record_key(record) for record in stream]
        observed.append((records, _logs_key(platform, fnames), platform.clock.now()))
    assert observed[0] == observed[1]


def test_interleaved_streams_match_generator_loop():
    """Two uncontrolled streams of one function consumed in turn each count
    only their own executions in flight, as the generator loop does.  The clock and the provider log's entries agree
    too; the columnar loop logs each stream's entries when it ends."""
    from repro.faas.platform import LogQueryType
    from repro.faas.invocation import InvocationRequest

    observed = []
    for reference in (True, False):
        platform, (fname, _) = _build_platform(Provider.AWS, 2026)
        requests = [InvocationRequest(fname, submitted_at=1.0 * i) for i in range(40)]
        if reference:
            engine = WorkloadEngine(platform)
            streams = []
            for _ in range(2):
                out = []
                streams.append(engine._run(requests, None, _record_builder(platform, out.append), out))
        else:
            streams = [platform.invoke_stream(requests) for _ in range(2)]
        records = [_record_key(next(stream)) for _ in requests for stream in streams]
        for stream in streams:
            assert next(stream, None) is None
        logs = [sorted(platform.query_logs(fname, query)) for query in LogQueryType]
        observed.append((records, logs, platform.clock.now()))
    assert observed[0] == observed[1]


@pytest.mark.parametrize("loop", ("columnar", "generator"))
def test_invoke_between_stream_records_cannot_rewind_the_clock(loop):
    """A direct ``invoke`` between two records of a lazy stream that moves
    the clock past the next arrival fails that arrival, on both loops, and
    leaves no sandbox reserved."""
    from repro.exceptions import ConfigurationError
    from repro.faas.invocation import InvocationRequest

    platform = create_platform(Provider.AWS, SimulationConfig(seed=1))
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
    requests = [InvocationRequest(fname, submitted_at=0.001 * i) for i in range(3)]
    if loop == "columnar":
        stream = platform.invoke_stream(requests)
    else:
        out = []
        stream = WorkloadEngine(platform)._run(requests, None, _record_builder(platform, out.append), out)
    next(stream)
    platform.invoke(fname, payload={})
    with pytest.raises(ConfigurationError, match="backwards"):
        next(stream)
    pool = platform._state[fname].pool
    assert [pool.in_use_count(c.container_id) for c in pool] == [0] * len(pool)
