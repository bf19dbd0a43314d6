"""Shared machinery of the golden-trace regression fixtures.

Canned traces live next to this file; their exact replay summaries
(every provider, streaming mode, full float precision) are checked in as
``expected_*.json``, together with a fan-out workflow replay synthesized
from its recipe.  ``tests/test_golden_traces.py`` fails on *any* drift
— a changed RNG derivation, a reordered float reduction, a scheduler tweak
— so intentional changes must regenerate the fixtures with
``make regen-golden`` (which runs :func:`regenerate`) and commit the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.concurrency import OverloadConfig
from repro.config import Provider, SimulationConfig
from repro.experiments.base import deploy_benchmark
from repro.faults import FaultPlaneConfig, OutageWindow
from repro.resilience import ResilienceConfig
from repro.simulator.providers import create_platform
from repro.utils.io import atomic_write_text
from repro.workflows import standard_workflow, synthesize_workflow_arrivals
from repro.workload import (
    BurstyArrivals,
    ConstantRateArrivals,
    PoissonArrivals,
    WorkloadTrace,
)

GOLDEN_DIR = Path(__file__).resolve().parent
if str(GOLDEN_DIR.parent) not in sys.path:  # run as a script: make tests/ importable
    sys.path.insert(0, str(GOLDEN_DIR.parent))

from generator_loop import generator_run  # noqa: E402
GOLDEN_SEED = 1234
PROVIDERS = (Provider.AWS, Provider.GCP, Provider.AZURE)

#: function name -> (benchmark, memory_mb) for every golden deployment.
DEPLOYMENTS = {
    "gold-web": ("dynamic-html", 256),
    "gold-thumb": ("thumbnailer", 1024),
    "gold-zip": ("compression", 1024),
}

#: trace name -> builder of the canned trace.
TRACES = {
    # Mixed short-horizon traffic: three arrival shapes over 60 s.
    "mixed": lambda: WorkloadTrace.merge(
        WorkloadTrace.synthesize("gold-web", PoissonArrivals(5.0), duration_s=60.0, rng=71),
        WorkloadTrace.synthesize(
            "gold-thumb",
            BurstyArrivals(on_rate_per_s=15.0, mean_on_s=5.0, mean_off_s=12.0),
            duration_s=60.0,
            rng=72,
        ),
        WorkloadTrace.synthesize("gold-zip", ConstantRateArrivals(3.0), duration_s=60.0, rng=73),
    ),
    # Sparse long-horizon traffic: low rate over 20 min, so idle-timeout and
    # half-life eviction fire between arrivals (cold-start heavy).
    "sparse": lambda: WorkloadTrace.merge(
        WorkloadTrace.synthesize("gold-web", PoissonArrivals(0.05), duration_s=1200.0, rng=74),
        WorkloadTrace.synthesize("gold-thumb", PoissonArrivals(0.04), duration_s=1200.0, rng=75),
    ),
}


#: The metastable-failure golden scenario: a naive client (unjittered
#: tight-capped retry ladder, staleness resubmission, no breaker) replayed
#: through a capacity-limited platform with a mid-trace outage.  Pins the
#: whole fault/resilience stack — outage handling, 429 retries, stale
#: resubmission sagas, cost folding — at full float precision.
STORM_NAME = "storm"
STORM_FUNCTION = "gold-web"
STORM_BUCKET_S = 5.0


def storm_trace() -> WorkloadTrace:
    return WorkloadTrace.synthesize(
        STORM_FUNCTION, PoissonArrivals(10.0), duration_s=60.0, rng=76
    )


def _batch_run(platform, trace, keep_records):
    return platform.run_workload(trace, keep_records=keep_records)


def _storm_platform(provider: Provider):
    ladder = dict(
        retry_policy="no-jitter",
        max_retries=40,
        retry_base_delay_s=0.25,
        retry_max_delay_s=0.5,
    )
    simulation = SimulationConfig(
        seed=GOLDEN_SEED,
        overload=OverloadConfig(reserved_concurrency=4, **ladder),
        resilience=ResilienceConfig(stale_after_s=1.5, **ladder),
        faults=FaultPlaneConfig(outages=(OutageWindow(start_s=20.0, duration_s=10.0),)),
    )
    platform = create_platform(provider, simulation)
    benchmark, memory_mb = DEPLOYMENTS[STORM_FUNCTION]
    deploy_benchmark(
        platform,
        benchmark,
        memory_mb=memory_mb if platform.limits.memory_static else 0,
        function_name=STORM_FUNCTION,
    )
    return platform


def summarize_storm(trace: WorkloadTrace, run=_batch_run) -> dict:
    """Replay the storm trace per provider; exact counters + goodput curve.

    ``run(platform, trace, keep_records)`` replays the trace: the batch
    entry point by default, or ``generator_run`` — the golden generator
    loop tests pin both against the *same* expected fixture.
    """
    document: dict = {"seed": GOLDEN_SEED, "requests": len(trace), "providers": {}}
    for provider in PROVIDERS:
        platform = _storm_platform(provider)
        result = run(platform, trace, True)
        buckets = [[0, 0] for _ in range(int(60.0 / STORM_BUCKET_S) + 1)]
        for record in result.records:
            index = min(len(buckets) - 1, int(record.submitted_at / STORM_BUCKET_S))
            buckets[index][0] += 1
            if record.success:
                buckets[index][1] += 1
        document["providers"][provider.value] = {
            "invocations": result.invocations,
            "executed": result.executed_count,
            "failures": result.failure_count,
            "throttled": result.throttled_count,
            "dropped": result.dropped_count,
            "faulted": result.faulted_count,
            "short_circuited": result.short_circuited_count,
            "hedges": result.hedge_count,
            "retries": result.retry_count,
            "cost_usd": result.total_cost_usd,
            "simulated_span_s": result.simulated_span_s,
            "goodput_curve": [list(bucket) for bucket in buckets],
        }
    return document


#: Fixture name of the storm scenario's windowed time series (the
#: observability layer's golden: window fold order, reservoir percentile
#: state and prefix-summed levels are pinned at full float precision).
STORM_TIMESERIES_NAME = "storm_timeseries"


def summarize_storm_timeseries(trace: WorkloadTrace) -> dict:
    """The storm replay's exact simulated-time series, per provider."""
    from repro.observe import TimeSeriesSpec

    spec = TimeSeriesSpec(window_s=STORM_BUCKET_S)
    document: dict = {"seed": GOLDEN_SEED, "requests": len(trace), "providers": {}}
    for provider in PROVIDERS:
        platform = _storm_platform(provider)
        result = platform.run_workload(trace, keep_records=True, timeseries=spec)
        document["providers"][provider.value] = result.timeseries.to_dict()
    return document


#: Fixture name of the uncontrolled fan-out/fan-in workflow golden.  The
#: feedback request source pulls its records from ``WorkloadEngine.stream``,
#: which runs an uncontrolled replay on the columnar loop, so this pins that
#: loop's per-execution timing, critical-path decomposition and per-workflow
#: aggregates at full float precision; ``tests/test_golden_traces.py``
#: replays it on the generator loop against the same fixture.
WORKFLOW_NAME = "workflow"
WORKFLOW_FAN_OUT = 8


def workflow_arrivals() -> list:
    spec, _ = standard_workflow("fanout", fan_out=WORKFLOW_FAN_OUT)
    return synthesize_workflow_arrivals(spec, PoissonArrivals(2.0), duration_s=60.0, rng=77)


def _summary_hex(distribution) -> dict:
    return {
        "count": distribution.count,
        "mean": distribution.mean.hex(),
        "std": distribution.std.hex(),
        "min": distribution.minimum.hex(),
        "max": distribution.maximum.hex(),
        "median": distribution.median.hex(),
        "p95": distribution.percentiles[95.0].hex(),
    }


def summarize_workflow(arrivals: list) -> dict:
    """Replay the workflow arrivals per provider with every execution kept."""
    _, functions = standard_workflow("fanout", fan_out=WORKFLOW_FAN_OUT)
    document: dict = {"seed": GOLDEN_SEED, "executions": len(arrivals), "providers": {}}
    for provider in PROVIDERS:
        platform = create_platform(provider, SimulationConfig(seed=GOLDEN_SEED))
        for function in functions:
            deploy_benchmark(
                platform,
                function.benchmark,
                memory_mb=function.memory_mb if platform.limits.memory_static else 0,
                function_name=function.function_name,
            )
        result = platform.run_workflows(arrivals, keep_records=True)
        executions = [
            {
                "execution": execution.execution_index,
                "end_to_end_s": execution.end_to_end_s.hex(),
                "compute_s": execution.compute_s.hex(),
                "cold_start_s": execution.cold_start_s.hex(),
                "trigger_propagation_s": execution.trigger_propagation_s.hex(),
                "critical_path": list(execution.critical_path),
                "invocations": execution.invocations,
                "cold_starts": execution.cold_starts,
                "failures": execution.failures,
                "cost_usd": execution.cost_usd.hex(),
            }
            for execution in result.executions
        ]
        summaries = {
            name: {
                "executions": summary.executions,
                "invocations": summary.invocations,
                "cold_starts": summary.cold_starts,
                "failures": summary.failures,
                "skipped_stages": summary.skipped_stages,
                "cost_usd": summary.cost_usd.hex(),
                "compute_s_total": summary.compute_s_total.hex(),
                "cold_start_s_total": summary.cold_start_s_total.hex(),
                "trigger_propagation_s_total": summary.trigger_propagation_s_total.hex(),
                "end_to_end": _summary_hex(summary.end_to_end),
            }
            for name, summary in sorted(result.per_workflow().items())
        }
        document["providers"][provider.value] = {
            "peak_in_flight": result.peak_in_flight,
            "simulated_span_s": result.simulated_span_s.hex(),
            "executions": executions,
            "summaries": summaries,
        }
    return document


def trace_path(name: str) -> Path:
    return GOLDEN_DIR / f"trace_{name}.json"


def expected_path(name: str) -> Path:
    return GOLDEN_DIR / f"expected_{name}.json"


def _deployed_platform(provider: Provider, functions: list[str]):
    platform = create_platform(provider, SimulationConfig(seed=GOLDEN_SEED))
    for fname in functions:
        benchmark, memory_mb = DEPLOYMENTS[fname]
        deploy_benchmark(
            platform,
            benchmark,
            memory_mb=memory_mb if platform.limits.memory_static else 0,
            function_name=fname,
        )
    return platform


def summarize_trace(trace: WorkloadTrace, run=_batch_run) -> dict:
    """Replay ``trace`` on every provider and collect the exact summary doc.

    Floats are kept at full ``repr`` precision (JSON round-trips them
    exactly), so the comparison in the golden test is bitwise.  ``run`` is
    as for :func:`summarize_storm`; the batch entry point and the generator
    loop must produce the identical document (pinned against the same
    fixture).
    """
    document: dict = {"seed": GOLDEN_SEED, "requests": len(trace), "providers": {}}
    for provider in PROVIDERS:
        platform = _deployed_platform(provider, trace.functions())
        result = run(platform, trace, False)
        per_function = {}
        for fname, summary in result.per_function().items():
            distribution = summary.client_time
            per_function[fname] = {
                "invocations": summary.invocations,
                "cold_starts": summary.cold_starts,
                "failures": summary.failures,
                "total_cost_usd": summary.total_cost_usd,
                "client_time": {
                    "count": distribution.count,
                    "mean": distribution.mean,
                    "std": distribution.std,
                    "min": distribution.minimum,
                    "max": distribution.maximum,
                    "median": distribution.median,
                    "p95": distribution.percentiles[95.0],
                },
            }
        document["providers"][provider.value] = {
            "invocations": result.invocations,
            "cold_starts": result.cold_start_count,
            "failures": result.failure_count,
            "peak_in_flight": result.peak_in_flight,
            "simulated_span_s": result.simulated_span_s,
            "cost_usd": result.total_cost_usd,
            "per_function": per_function,
        }
    return document


def regenerate() -> list[Path]:
    """(Re)write every golden trace and its expected summary.

    All writes are atomic (``repro.utils.io``): an interrupted
    ``make regen-golden`` leaves the previous intact fixtures, never a
    truncated one for the golden-drift gate to choke on.
    """
    written = []
    for name, build in TRACES.items():
        trace = build().materialize()
        trace.to_json(trace_path(name), indent=2)
        expected = summarize_trace(trace)
        # The generator loop pins against the *same* fixture — refuse to
        # write a golden it cannot reproduce bit-exactly.
        if summarize_trace(trace, run=generator_run) != expected:
            raise AssertionError(
                f"generator-loop replay of golden trace {name!r} diverged from batch replay"
            )
        atomic_write_text(expected_path(name), json.dumps(expected, indent=2) + "\n")
        written.extend([trace_path(name), expected_path(name)])
    trace = storm_trace()
    trace.to_json(trace_path(STORM_NAME), indent=2)
    storm_expected = summarize_storm(trace)
    if summarize_storm(trace, run=generator_run) != storm_expected:
        raise AssertionError(
            "generator-loop replay of the golden storm diverged from batch replay"
        )
    atomic_write_text(
        expected_path(STORM_NAME), json.dumps(storm_expected, indent=2) + "\n"
    )
    written.extend([trace_path(STORM_NAME), expected_path(STORM_NAME)])
    atomic_write_text(
        expected_path(STORM_TIMESERIES_NAME),
        json.dumps(summarize_storm_timeseries(trace), indent=2) + "\n",
    )
    written.append(expected_path(STORM_TIMESERIES_NAME))
    atomic_write_text(
        expected_path(WORKFLOW_NAME),
        json.dumps(summarize_workflow(workflow_arrivals()), indent=2) + "\n",
    )
    written.append(expected_path(WORKFLOW_NAME))
    return written


if __name__ == "__main__":
    for path in regenerate():
        print(f"regenerated {path}")
