"""CI smoke gate: trace and workflow replays with wall-clock budgets.

Run as a plain script (``make bench-smoke``); no pytest-benchmark needed.
Four checks:

* a 10k-invocation flat trace replay (catches catastrophic scheduler
  regressions — an accidental O(pool x in-flight) hot path pushes the
  replay from well under a second to tens of seconds);
* a fan-out/fan-in workflow replay (catches regressions in the workflow
  subsystem: the feedback request source, trigger-edge scheduling and the
  critical-path accounting identity);
* a sharded-replay equivalence gate (``--workers``, default 2): the same
  multi-function trace replayed serially and through the parallel path
  (:mod:`repro.parallel`) must agree *exactly* on every merged statistic;
* an overloaded-replay equivalence gate: the same trace replayed under a
  tight concurrency cap (:mod:`repro.concurrency`) must shed work
  (throttles, drops, queue delay) *and* still merge exactly under
  sharding;
* a fault-storm gate (:mod:`repro.faults` + :mod:`repro.resilience`): the
  retry-storm experiment must keep demonstrating metastable failure — the
  naive client's post-recovery goodput stays collapsed (<= 50% of
  pre-outage) while the breaker-equipped client recovers (>= 90%) — and
  the whole scenario must stay bit-identical under sharded replay;
* a crash-recovery gate (:mod:`repro.parallel.supervisor`): a worker
  killed mid-replay must be detected, the pool rebuilt and the shard
  retried, with the merged result bit-identical to serial replay, inside
  a 60 s budget;
* a columnar-equivalence gate (:mod:`repro.columnar`): the 10k trace
  replayed through the batch entry point (the vectorized hot path) must
  produce record lists and streaming aggregates bit-identical to the
  generator loop (``WorkloadEngine._run``) — serially and sharded —
  while streaming clearly faster than it.

The thresholds are deliberately loose — the point is to catch order-of-
magnitude breakage, not to flake on slow CI runners.  The measured
throughputs are additionally written to ``benchmarks/BENCH_smoke.json``,
which the perf-regression gate (``benchmarks/check_regression.py``)
compares against the committed baselines.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.concurrency import OverloadConfig
from repro.config import ExperimentConfig, Provider, SimulationConfig, TriggerType
from repro.experiments.resilience import ResilienceExperiment
from repro.experiments.base import deploy_benchmark
from repro.simulator.providers import create_platform
from repro.workload import PoissonArrivals, WorkloadTrace
from repro.workflows import standard_workflow, synthesize_workflow_arrivals

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_smoke.json"

#: Throughput figures collected by the smoke checks for BENCH_smoke.json.
METRICS: dict[str, float] = {}

SMOKE_INVOCATIONS = 10_000
ARRIVAL_RATE_PER_S = 50.0
#: Generous wall-clock budget (the indexed scheduler needs < 1 s).
WALL_CLOCK_BUDGET_S = 30.0

#: Workflow smoke: fanout DAG, 500 executions x (2 + 4) = 3000 invocations.
WORKFLOW_EXECUTIONS = 500
WORKFLOW_FAN_OUT = 4
WORKFLOW_BUDGET_S = 30.0


def _smoke_trace() -> list[str]:
    platform = create_platform(Provider.AWS, SimulationConfig(seed=42))
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
    duration_s = 1.05 * SMOKE_INVOCATIONS / ARRIVAL_RATE_PER_S
    trace = WorkloadTrace.synthesize(
        fname, PoissonArrivals(ARRIVAL_RATE_PER_S), duration_s=duration_s, rng=42
    )
    if len(trace) < SMOKE_INVOCATIONS:
        return [f"synthesized only {len(trace)} requests"]
    trace = WorkloadTrace(list(trace)[:SMOKE_INVOCATIONS])

    result = platform.run_workload(trace)
    METRICS["trace_throughput_per_s"] = round(result.throughput_per_s, 1)
    print(
        f"bench-smoke: {result.invocations} invocations in {result.wall_clock_s:.2f}s "
        f"({result.throughput_per_s:,.0f}/s), cold rate {100 * result.cold_start_rate:.2f}%, "
        f"cost ${result.total_cost_usd:.4f}"
    )

    failures = []
    if result.invocations != SMOKE_INVOCATIONS:
        failures.append(f"expected {SMOKE_INVOCATIONS} records, got {result.invocations}")
    if result.wall_clock_s > WALL_CLOCK_BUDGET_S:
        failures.append(f"replay took {result.wall_clock_s:.2f}s > {WALL_CLOCK_BUDGET_S:.0f}s budget")
    if result.cold_start_rate > 0.10:
        failures.append(f"cold-start rate {result.cold_start_rate:.3f} > 0.10")
    return failures


def _smoke_workflow() -> list[str]:
    platform = create_platform(Provider.AWS, SimulationConfig(seed=42))
    spec, functions = standard_workflow("fanout", fan_out=WORKFLOW_FAN_OUT)
    for function in functions:
        deploy_benchmark(
            platform,
            function.benchmark,
            memory_mb=function.memory_mb,
            function_name=function.function_name,
        )
    rate_per_s = 10.0
    arrivals = synthesize_workflow_arrivals(
        spec,
        PoissonArrivals(rate_per_s),
        duration_s=1.1 * WORKFLOW_EXECUTIONS / rate_per_s,
        rng=42,
    )
    if len(arrivals) < WORKFLOW_EXECUTIONS:
        return [f"synthesized only {len(arrivals)} workflow arrivals"]
    arrivals = arrivals[:WORKFLOW_EXECUTIONS]

    result = platform.run_workflows(arrivals, keep_records=False)
    METRICS["workflow_throughput_per_s"] = round(result.throughput_per_s, 1)
    print(
        f"bench-smoke: {result.execution_count} workflow executions "
        f"({result.invocation_total} constituent invocations) in "
        f"{result.wall_clock_s:.2f}s ({result.throughput_per_s:,.0f}/s), "
        f"mean e2e {result.mean_end_to_end_s * 1000:.0f} ms"
    )

    expected_invocations = WORKFLOW_EXECUTIONS * (WORKFLOW_FAN_OUT + 2)
    failures = []
    if result.execution_count != WORKFLOW_EXECUTIONS:
        failures.append(
            f"expected {WORKFLOW_EXECUTIONS} executions, got {result.execution_count}"
        )
    if result.invocation_total != expected_invocations:
        failures.append(
            f"expected {expected_invocations} constituent invocations, "
            f"got {result.invocation_total}"
        )
    if result.wall_clock_s > WORKFLOW_BUDGET_S:
        failures.append(
            f"workflow replay took {result.wall_clock_s:.2f}s > {WORKFLOW_BUDGET_S:.0f}s budget"
        )
    # Critical-path identity: components tile the end-to-end interval.
    components = (
        result.compute_s_total + result.cold_start_s_total + result.trigger_propagation_s_total
    )
    if abs(components - result.end_to_end_s_total) > 1e-6 * max(1.0, result.end_to_end_s_total):
        failures.append(
            f"critical-path components {components:.6f}s != end-to-end {result.end_to_end_s_total:.6f}s"
        )
    return failures


#: Parallel smoke: 3 functions x 4k invocations, serial vs sharded replay.
PARALLEL_FUNCTIONS = 3
PARALLEL_INVOCATIONS_PER_FN = 4_000
PARALLEL_BUDGET_S = 60.0


def _parallel_fixture():
    platform = create_platform(Provider.GCP, SimulationConfig(seed=42))
    traces = []
    for index in range(PARALLEL_FUNCTIONS):
        fname = deploy_benchmark(
            platform, "dynamic-html", memory_mb=256, function_name=f"smoke-{index}"
        )
        duration_s = 1.1 * PARALLEL_INVOCATIONS_PER_FN / ARRIVAL_RATE_PER_S
        trace = WorkloadTrace.synthesize(
            fname, PoissonArrivals(ARRIVAL_RATE_PER_S), duration_s=duration_s, rng=100 + index
        )
        traces.append(WorkloadTrace(list(trace)[:PARALLEL_INVOCATIONS_PER_FN]))
    return platform, WorkloadTrace.merge(*traces)


def _smoke_parallel(workers: int) -> list[str]:
    serial_platform, trace = _parallel_fixture()
    serial = serial_platform.run_workload(trace, keep_records=False)
    parallel_platform, _ = _parallel_fixture()
    parallel = parallel_platform.run_workload(trace, keep_records=False, workers=workers)
    METRICS["sharded_throughput_per_s"] = round(parallel.throughput_per_s, 1)
    print(
        f"bench-smoke: sharded replay x{workers}: {parallel.invocations} invocations in "
        f"{parallel.wall_clock_s:.2f}s ({parallel.throughput_per_s:,.0f}/s), serial "
        f"{serial.wall_clock_s:.2f}s"
    )

    failures = []
    if parallel.invocations != serial.invocations:
        failures.append(
            f"parallel replayed {parallel.invocations} invocations, serial {serial.invocations}"
        )
    if parallel.cold_start_total != serial.cold_start_total:
        failures.append(
            f"parallel cold starts {parallel.cold_start_total} != serial {serial.cold_start_total}"
        )
    if parallel.total_cost_usd != serial.total_cost_usd:
        failures.append(
            f"parallel cost {parallel.total_cost_usd!r} != serial {serial.total_cost_usd!r}"
        )
    if parallel.simulated_span_s != serial.simulated_span_s:
        failures.append(
            f"parallel span {parallel.simulated_span_s!r} != serial {serial.simulated_span_s!r}"
        )
    for fname, serial_summary in serial.per_function().items():
        parallel_summary = parallel.per_function()[fname]
        if (
            parallel_summary.invocations != serial_summary.invocations
            or parallel_summary.total_cost_usd != serial_summary.total_cost_usd
            or parallel_summary.client_time.percentiles != serial_summary.client_time.percentiles
        ):
            failures.append(f"per-function summary of {fname!r} diverged under sharding")
    if parallel.wall_clock_s > PARALLEL_BUDGET_S:
        failures.append(
            f"sharded replay took {parallel.wall_clock_s:.2f}s > {PARALLEL_BUDGET_S:.0f}s budget"
        )
    return failures


#: Overload smoke: tight cap, sync + async traffic, serial vs sharded.
OVERLOAD_RESERVED = 3
OVERLOAD_INVOCATIONS_PER_FN = 1_500
OVERLOAD_BUDGET_S = 30.0


def _overload_fixture():
    overload = OverloadConfig(
        reserved_concurrency=OVERLOAD_RESERVED,
        max_retries=2,
        admission_queue_depth=100,
        admission_max_age_s=5.0,
    )
    platform = create_platform(Provider.AWS, SimulationConfig(seed=42, overload=overload))
    traces = []
    for index, trigger in enumerate((TriggerType.HTTP, TriggerType.QUEUE)):
        fname = deploy_benchmark(
            platform, "dynamic-html", memory_mb=256, function_name=f"hot-{index}"
        )
        duration_s = 1.1 * OVERLOAD_INVOCATIONS_PER_FN / ARRIVAL_RATE_PER_S
        trace = WorkloadTrace.synthesize(
            fname,
            PoissonArrivals(ARRIVAL_RATE_PER_S),
            duration_s=duration_s,
            rng=200 + index,
            trigger=trigger,
        )
        traces.append(WorkloadTrace(list(trace)[:OVERLOAD_INVOCATIONS_PER_FN]))
    return platform, WorkloadTrace.merge(*traces)


def _smoke_overload(workers: int) -> list[str]:
    serial_platform, trace = _overload_fixture()
    serial = serial_platform.run_workload(trace, keep_records=False)
    parallel_platform, _ = _overload_fixture()
    parallel = parallel_platform.run_workload(trace, keep_records=False, workers=workers)
    METRICS["overload_throughput_per_s"] = round(serial.throughput_per_s, 1)
    print(
        f"bench-smoke: overloaded replay (cap {OVERLOAD_RESERVED}): "
        f"{serial.invocations} requests in {serial.wall_clock_s:.2f}s "
        f"({serial.throughput_per_s:,.0f}/s), {serial.throttled_count} throttled, "
        f"{serial.dropped_count} dropped, {serial.retry_count} retries"
    )

    failures = []
    if serial.throttled_count == 0:
        failures.append("overloaded replay throttled nothing (cap not enforced?)")
    # Conservation: executed is counted independently of the shed counters,
    # so a lost or double-counted request genuinely fails this.
    outcome_sum = serial.executed_count + serial.throttled_count + serial.dropped_count
    if outcome_sum != serial.invocations:
        failures.append(
            f"overload outcomes do not partition the requests "
            f"({outcome_sum} != {serial.invocations})"
        )
    for attribute in (
        "invocations",
        "executed_count",
        "throttled_count",
        "dropped_count",
        "retry_count",
        "queue_delay_s",
        "total_cost_usd",
        "simulated_span_s",
    ):
        serial_value = getattr(serial, attribute)
        parallel_value = getattr(parallel, attribute)
        if serial_value != parallel_value:
            failures.append(
                f"overloaded sharded {attribute} {parallel_value!r} != serial {serial_value!r}"
            )
    if serial.wall_clock_s > OVERLOAD_BUDGET_S:
        failures.append(
            f"overloaded replay took {serial.wall_clock_s:.2f}s > {OVERLOAD_BUDGET_S:.0f}s budget"
        )
    return failures


#: Fault-storm smoke: the canned retry-storm scenario, serial vs sharded.
FAULT_STORM_BUDGET_S = 60.0
NAIVE_RECOVERY_CEILING = 0.5
RESILIENT_RECOVERY_FLOOR = 0.9


def _smoke_fault_storm(workers: int) -> list[str]:
    experiment = ResilienceExperiment(
        config=ExperimentConfig(seed=42), simulation=SimulationConfig(seed=42)
    )
    wall_start = time.perf_counter()
    serial = experiment.run()
    wall_clock_s = time.perf_counter() - wall_start
    invocations = sum(v.invocations for v in serial.variants)
    METRICS["fault_storm_throughput_per_s"] = (
        round(invocations / wall_clock_s, 1) if wall_clock_s > 0 else 0.0
    )
    naive = serial.variant("naive")
    resilient = serial.variant("resilient")
    print(
        f"bench-smoke: fault storm: {invocations} requests in {wall_clock_s:.2f}s, "
        f"recovery naive {naive.recovery_ratio:.2f} "
        f"(retries {naive.retries}), resilient {resilient.recovery_ratio:.2f} "
        f"(short-circuited {resilient.short_circuited})"
    )

    failures = []
    if naive.recovery_ratio > NAIVE_RECOVERY_CEILING:
        failures.append(
            f"naive client recovered to {naive.recovery_ratio:.2f} > "
            f"{NAIVE_RECOVERY_CEILING} of pre-outage goodput (metastability lost?)"
        )
    if resilient.recovery_ratio < RESILIENT_RECOVERY_FLOOR:
        failures.append(
            f"breaker client recovered only to {resilient.recovery_ratio:.2f} < "
            f"{RESILIENT_RECOVERY_FLOOR} of pre-outage goodput"
        )
    if resilient.short_circuited == 0:
        failures.append("breaker never short-circuited during the outage")
    sharded = experiment.run(workers=workers)
    # Simulation outputs only: the host-side replay block (wall clock,
    # throughput) legitimately differs between the two runs.
    if sharded.to_dict(include_replay=False) != serial.to_dict(include_replay=False):
        failures.append(f"fault-storm replay diverged under sharding (x{workers})")
    if wall_clock_s > FAULT_STORM_BUDGET_S:
        failures.append(
            f"fault-storm replay took {wall_clock_s:.2f}s > {FAULT_STORM_BUDGET_S:.0f}s budget"
        )
    return failures


#: Chaos smoke: one injected worker kill mid-replay; the supervisor must
#: recover (pool rebuild + retry) to a bit-identical result inside budget.
CHAOS_BUDGET_S = 60.0


def _smoke_chaos_recovery(workers: int) -> list[str]:
    from repro.parallel import ShardFault, SupervisorConfig, WorkerFaultInjection

    serial_platform, trace = _parallel_fixture()
    serial = serial_platform.run_workload(trace, keep_records=False)
    supervision = SupervisorConfig(
        shard_timeout_s=30.0,
        fault_injection=WorkerFaultInjection({0: ShardFault("crash")}),
    )
    chaos_platform, _ = _parallel_fixture()
    # Crash injection breaks the pool, so it needs the process backend —
    # at least 2 workers regardless of the smoke worker count.
    recovered = chaos_platform.run_workload(
        trace, keep_records=False, workers=max(2, workers), supervision=supervision
    )
    METRICS["chaos_recovery_throughput_per_s"] = round(recovered.throughput_per_s, 1)
    report = recovered.supervision or {}
    print(
        f"bench-smoke: chaos recovery: worker killed mid-replay, "
        f"{recovered.invocations} invocations in {recovered.wall_clock_s:.2f}s "
        f"({recovered.throughput_per_s:,.0f}/s), {report.get('pool_breaks', 0)} "
        f"pool break(s), {report.get('retries', 0)} retr(ies)"
    )

    failures = []
    if report.get("pool_breaks", 0) < 1:
        failures.append("chaos recovery: injected worker kill broke no pool (injection inert?)")
    if report.get("retries", 0) < 1:
        failures.append("chaos recovery: killed shard was never retried")
    for attribute in (
        "invocations",
        "cold_start_total",
        "total_cost_usd",
        "simulated_span_s",
    ):
        serial_value = getattr(serial, attribute)
        recovered_value = getattr(recovered, attribute)
        if recovered_value != serial_value:
            failures.append(
                f"chaos recovery {attribute} {recovered_value!r} != serial {serial_value!r}"
            )
    if recovered.wall_clock_s > CHAOS_BUDGET_S:
        failures.append(
            f"chaos recovery took {recovered.wall_clock_s:.2f}s > {CHAOS_BUDGET_S:.0f}s budget"
        )
    return failures


#: Columnar smoke: the 10k flat trace replayed through the generator loop
#: ("scalar") and the batch entry point ("columnar") — the record lists
#: (frozen dataclasses, so ``==`` is bit equality including cost
#: breakdowns and timestamps) and the streaming aggregates must agree
#: exactly, serially and under sharding, and the columnar streaming replay
#: must hold a clear throughput advantage.
COLUMNAR_BUDGET_S = 30.0
COLUMNAR_MIN_SPEEDUP = 1.5


def _columnar_fixture():
    platform = create_platform(Provider.AWS, SimulationConfig(seed=42))
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
    return platform, fname


def _smoke_columnar(workers: int) -> list[str]:
    platform, fname = _columnar_fixture()
    duration_s = 1.05 * SMOKE_INVOCATIONS / ARRIVAL_RATE_PER_S
    trace = WorkloadTrace.synthesize(
        fname, PoissonArrivals(ARRIVAL_RATE_PER_S), duration_s=duration_s, rng=42
    )
    if len(trace) < SMOKE_INVOCATIONS:
        return [f"synthesized only {len(trace)} requests"]
    trace = WorkloadTrace(list(trace)[:SMOKE_INVOCATIONS])

    from conftest import generator_loop

    scalar = generator_loop(platform, trace)
    scalar_stream = generator_loop(_columnar_fixture()[0], trace, keep_records=False)
    columnar = _columnar_fixture()[0].run_workload(trace)
    columnar_stream = _columnar_fixture()[0].run_workload(trace, keep_records=False)
    METRICS["columnar_throughput_per_s"] = round(columnar_stream.throughput_per_s, 1)
    speedup = (
        columnar_stream.throughput_per_s / scalar_stream.throughput_per_s
        if scalar_stream.throughput_per_s > 0
        else 0.0
    )
    print(
        f"bench-smoke: columnar replay: {columnar_stream.invocations} invocations in "
        f"{columnar_stream.wall_clock_s:.2f}s ({columnar_stream.throughput_per_s:,.0f}/s "
        f"streaming, {speedup:.1f}x scalar), records bit-checked against scalar"
    )

    failures = []
    if columnar.records != scalar.records:
        diverged = sum(
            1 for a, b in zip(scalar.records, columnar.records) if a != b
        ) + abs(len(scalar.records) - len(columnar.records))
        failures.append(
            f"columnar records are not bit-identical to scalar ({diverged} diverged)"
        )
    for attribute in (
        "invocations",
        "cold_start_total",
        "failure_total",
        "total_cost_usd",
        "simulated_span_s",
        "peak_in_flight",
    ):
        scalar_value = getattr(scalar_stream, attribute)
        columnar_value = getattr(columnar_stream, attribute)
        if columnar_value != scalar_value:
            failures.append(
                f"columnar streaming {attribute} {columnar_value!r} != scalar {scalar_value!r}"
            )
    for fname_, scalar_summary in scalar_stream.per_function().items():
        columnar_summary = columnar_stream.per_function()[fname_]
        if (
            columnar_summary.invocations != scalar_summary.invocations
            or columnar_summary.total_cost_usd != scalar_summary.total_cost_usd
            or columnar_summary.client_time.percentiles != scalar_summary.client_time.percentiles
        ):
            failures.append(f"columnar summary of {fname_!r} diverged from scalar")
    sharded = _columnar_fixture()[0].run_workload(trace, workers=workers)
    if sharded.records != scalar.records:
        failures.append(
            f"sharded columnar records (x{workers}) are not bit-identical to serial scalar"
        )
    if speedup < COLUMNAR_MIN_SPEEDUP:
        failures.append(
            f"columnar streaming speedup {speedup:.2f}x < {COLUMNAR_MIN_SPEEDUP}x scalar"
        )
    if columnar_stream.wall_clock_s > COLUMNAR_BUDGET_S:
        failures.append(
            f"columnar replay took {columnar_stream.wall_clock_s:.2f}s > "
            f"{COLUMNAR_BUDGET_S:.0f}s budget"
        )
    return failures


def _emit_bench_json() -> None:
    """Write the smoke throughputs for the perf-regression gate."""
    from conftest import emit_bench_json

    emit_bench_json(BENCH_JSON, {"benchmark": "smoke_replay", **METRICS})


def main() -> int:
    parser = argparse.ArgumentParser(description="CI smoke gate for replay regressions")
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker count for the sharded-replay equivalence gate",
    )
    args = parser.parse_args()
    failures = _smoke_trace()
    failures += _smoke_workflow()
    failures += _smoke_parallel(args.workers)
    failures += _smoke_overload(args.workers)
    failures += _smoke_fault_storm(args.workers)
    failures += _smoke_chaos_recovery(args.workers)
    failures += _smoke_columnar(args.workers)
    _emit_bench_json()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("bench-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
