"""Simulator throughput: invocations simulated per wall-clock second.

Not a paper figure — this target measures the *reproduction itself*: how
fast the event-queue engine (:mod:`repro.workload.engine`) pushes a
100 000-invocation Poisson trace through a simulated provider.  The rate is
the number a capacity plan needs ("a day of production traffic replays in
N seconds") and guards against accidental O(n^2) regressions in the
container-pool bookkeeping.

Besides the printed report, the 100k target writes
``benchmarks/BENCH_workload_throughput.json`` — machine-readable throughput,
peak RSS and client-latency percentiles, with the previous run's figures
carried along as ``previous`` so the perf trajectory is tracked across PRs.

A second target replays a lazily generated 1M-invocation trace in
streaming-aggregation mode (``keep_records=False``) and asserts the
replay's memory footprint stays O(functions), not O(invocations).
"""

from __future__ import annotations

import resource
import tracemalloc
from pathlib import Path

import numpy as np

from conftest import emit_bench_json, generator_loop, run_once

from repro.config import Provider, SimulationConfig, TriggerType
from repro.faas.invocation import InvocationRequest
from repro.simulator.providers import create_platform
from repro.experiments.base import deploy_benchmark
from repro.workload import PoissonArrivals, WorkloadTrace

TRACE_INVOCATIONS = 100_000
ARRIVAL_RATE_PER_S = 50.0
STREAMING_INVOCATIONS = 1_000_000

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_workload_throughput.json"


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: ru_maxrss is kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit_bench_json(result) -> None:
    """Write the machine-readable perf record, keeping the previous run."""
    client_times_ms = np.asarray([r.client_time_s for r in result.records]) * 1000.0
    emit_bench_json(
        BENCH_JSON,
        {
            "benchmark": "workload_throughput_100k",
            "invocations": result.invocations,
            "wall_clock_s": round(result.wall_clock_s, 4),
            "throughput_per_s": round(result.throughput_per_s, 1),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "client_p50_ms": round(float(np.percentile(client_times_ms, 50.0)), 3),
            "client_p95_ms": round(float(np.percentile(client_times_ms, 95.0)), 3),
            "cold_start_rate": round(result.cold_start_rate, 5),
            "peak_in_flight": result.peak_in_flight,
        },
    )


def test_workload_engine_throughput_100k(benchmark, simulation_config):
    platform = create_platform(Provider.AWS, simulation_config)
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
    # Size the window so the Poisson process lands close to 100k arrivals,
    # then trim to exactly 100k for a stable denominator.
    duration_s = 1.02 * TRACE_INVOCATIONS / ARRIVAL_RATE_PER_S
    trace = WorkloadTrace.synthesize(
        fname, PoissonArrivals(ARRIVAL_RATE_PER_S), duration_s=duration_s, rng=simulation_config.seed
    )
    assert len(trace) >= TRACE_INVOCATIONS
    trace = WorkloadTrace(list(trace)[:TRACE_INVOCATIONS])

    result = run_once(benchmark, lambda: platform.run_workload(trace))

    print(
        f"\nsimulated {result.invocations} invocations "
        f"({result.simulated_span_s:.0f}s of virtual time) in {result.wall_clock_s:.2f}s wall clock "
        f"=> {result.throughput_per_s:,.0f} invocations/s, peak in-flight {result.peak_in_flight}"
    )
    _emit_bench_json(result)

    assert result.invocations == TRACE_INVOCATIONS
    # Under steady 50/s Poisson traffic almost every request hits a warm
    # sandbox; cold starts stay a small fraction of the stream.
    assert result.cold_start_rate < 0.05
    assert result.failure_count < result.invocations * 0.01
    # Throughput floor: the engine must stay orders of magnitude faster than
    # real time (50/s); a pool-scan regression would fail this immediately.
    # The indexed scheduler clears 20k/s with margin; the pre-index baseline
    # sat around 8k/s.
    assert result.throughput_per_s > 10_000.0


#: Replays per side in the columnar throughput target; each side's figure is
#: its fastest replay.
COLUMNAR_BEST_OF = 3


def test_workload_columnar_throughput_100k(benchmark):
    """Columnar streaming replay of the 100k trace: >= 3x scalar, >= 90k/s.

    The same trace is replayed through the generator loop
    (``WorkloadEngine._run`` folded into a streaming accumulator) as the
    in-process reference — the speedup ratio is container-noise-robust in a
    way absolute figures are not — and the two streaming aggregates are
    asserted identical before any throughput claim.  Each side is timed as
    the best of ``COLUMNAR_BEST_OF`` replays on fresh platforms, the two
    sides interleaved, so one noisy moment on a shared host cannot decide
    either figure.  The measured figures
    land in ``BENCH_workload_throughput.json`` as a ``columnar`` block
    (plus a flat ``columnar_throughput_per_s`` for the regression gate).
    """
    import json

    from repro.utils.io import atomic_write_json

    def build():
        simulation = SimulationConfig(seed=42, log_retention=10_000)
        platform = create_platform(Provider.AWS, simulation)
        fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
        return platform, fname

    _, fname = build()
    duration_s = 1.02 * TRACE_INVOCATIONS / ARRIVAL_RATE_PER_S
    trace = WorkloadTrace.synthesize(
        fname, PoissonArrivals(ARRIVAL_RATE_PER_S), duration_s=duration_s, rng=42
    )
    trace = WorkloadTrace(list(trace)[:TRACE_INVOCATIONS])

    def fastest(best, run):
        return run if best is None or run.wall_clock_s < best.wall_clock_s else best

    def interleaved():
        scalar = columnar = None
        for _ in range(COLUMNAR_BEST_OF):
            scalar = fastest(scalar, generator_loop(build()[0], trace, keep_records=False))
            columnar = fastest(columnar, build()[0].run_workload(trace, keep_records=False))
        return scalar, columnar

    scalar, result = run_once(benchmark, interleaved)

    # Bit-identity of the streaming aggregates (counters, sums, reservoir
    # percentile state) before any throughput claim.
    assert result.invocations == scalar.invocations == TRACE_INVOCATIONS
    assert result.cold_start_count == scalar.cold_start_count
    assert result.failure_count == scalar.failure_count
    assert result.total_cost_usd == scalar.total_cost_usd
    assert result.simulated_span_s == scalar.simulated_span_s
    assert result.peak_in_flight == scalar.peak_in_flight
    scalar_rows = {
        name: json.dumps(summary.__dict__, default=repr, sort_keys=True)
        for name, summary in scalar.streaming_summaries.items()
    }
    columnar_rows = {
        name: json.dumps(summary.__dict__, default=repr, sort_keys=True)
        for name, summary in result.streaming_summaries.items()
    }
    assert columnar_rows == scalar_rows

    speedup = result.throughput_per_s / scalar.throughput_per_s
    print(
        f"\ncolumnar streamed {result.invocations} invocations in {result.wall_clock_s:.2f}s "
        f"=> {result.throughput_per_s:,.0f}/s ({speedup:.1f}x the scalar streaming "
        f"{scalar.throughput_per_s:,.0f}/s)"
    )

    document = (
        json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        if BENCH_JSON.exists()
        else {"benchmark": "workload_throughput_100k"}
    )
    document["columnar"] = {
        "invocations": result.invocations,
        "wall_clock_s": round(result.wall_clock_s, 4),
        "throughput_per_s": round(result.throughput_per_s, 1),
        "scalar_streaming_throughput_per_s": round(scalar.throughput_per_s, 1),
        "speedup_vs_scalar_streaming": round(speedup, 2),
    }
    document["columnar_throughput_per_s"] = round(result.throughput_per_s, 1)
    atomic_write_json(BENCH_JSON, document)

    # Acceptance floors: the vectorized hot path must hold a 3x advantage
    # over the scalar streaming replay and clear 90k invocations/s outright
    # (measured 112-124k/s on the reference container).
    assert speedup >= 3.0
    assert result.throughput_per_s > 90_000.0


def _lazy_requests(fname: str, count: int, rate_per_s: float, seed: int):
    """Generate a Poisson request stream lazily — no trace materialisation."""
    rng = np.random.default_rng(seed)
    timestamp = 0.0
    for _ in range(count):
        timestamp += float(rng.exponential(1.0 / rate_per_s))
        yield InvocationRequest(
            function_name=fname,
            payload={},
            trigger=TriggerType.HTTP,
            submitted_at=timestamp,
        )


def test_workload_streaming_aggregation_1m(benchmark):
    """A 1M-invocation replay completes in streaming mode (keep_records=False).

    This target guards completion, throughput and the bounded provider log
    at full scale; the precise O(functions) memory bound is asserted by
    ``test_streaming_memory_is_o_functions`` below under tracemalloc, which
    is exact but ~10x slower per invocation, so it runs on a shorter stream.
    """
    simulation = SimulationConfig(seed=42, log_retention=10_000)
    platform = create_platform(Provider.AWS, simulation)
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
    requests = _lazy_requests(fname, STREAMING_INVOCATIONS, rate_per_s=200.0, seed=42)

    result = run_once(benchmark, lambda: platform.run_workload(requests, keep_records=False))

    print(
        f"\nstreamed {result.invocations} invocations in {result.wall_clock_s:.2f}s wall clock "
        f"=> {result.throughput_per_s:,.0f} invocations/s, peak RSS {_peak_rss_mb():.0f} MB"
    )

    assert result.invocations == STREAMING_INVOCATIONS
    assert result.records == []
    summary = result.per_function()[fname]
    assert summary.invocations == STREAMING_INVOCATIONS
    assert summary.client_time is not None and summary.client_time.count == STREAMING_INVOCATIONS
    # log_retention bounds the provider-side log despite the 1M invocations.
    assert len(platform._state[fname].history) == 10_000
    # Sanity floor: streaming mode must not be dramatically slower than the
    # record-keeping path.
    assert result.throughput_per_s > 5_000.0


def test_streaming_memory_is_o_functions(benchmark):
    """tracemalloc audit: the streaming replay's python-heap peak is a few
    MB regardless of stream length, where the materialising path holds one
    ~0.5 kB record per invocation.  (tracemalloc is immune to the
    peak-RSS-already-raised-by-earlier-tests problem.)"""
    count = 100_000
    simulation = SimulationConfig(seed=7, log_retention=1_000)
    platform = create_platform(Provider.AWS, simulation)
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
    requests = _lazy_requests(fname, count, rate_per_s=200.0, seed=7)

    tracemalloc.start()
    result = run_once(benchmark, lambda: platform.run_workload(requests, keep_records=False))
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    peak_mb = peak_bytes / (1024.0 * 1024.0)
    print(f"\nstreamed {result.invocations} invocations, python heap peak {peak_mb:.1f} MB")
    assert result.invocations == count
    assert result.records == []
    # One hundred thousand materialised records would be tens of MB; the
    # streaming accumulators stay in single digits.
    assert peak_mb < 16.0
