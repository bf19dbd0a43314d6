"""Command-line interface of the SeBS reproduction.

The original toolkit ships a ``sebs.py`` driver; this reproduction provides a
similar entry point::

    sebs-repro list                      # list benchmarks
    sebs-repro table2                    # provider policy comparison
    sebs-repro characterize              # local characterization (Table 4)
    sebs-repro perf-cost thumbnailer     # Perf-Cost experiment (Figure 3/4)
    sebs-repro invoc-overhead            # payload/latency experiment (Figure 6)
    sebs-repro eviction                  # container-eviction experiment (Figure 7)
    sebs-repro faas-vs-iaas              # Table 5 comparison
    sebs-repro workload                  # trace-driven workload replay
    sebs-repro workflow                  # DAG workflow replay (composed invocations)
    sebs-repro population                # multi-tenant population replay (Zipf/diurnal/burst)
    sebs-repro fault-storm               # retry-storm / metastable-failure experiment

All experiments run against the simulated providers; ``--samples`` and
``--batch`` trade accuracy for speed.  ``workload`` and ``workflow`` accept
``--output <path>`` to write the machine-readable summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from .benchmarks.registry import list_benchmarks
from .concurrency import RETRY_POLICY_NAMES, OverloadConfig
from .config import ExperimentConfig, Provider, SimulationConfig
from .exceptions import CheckpointError, ConfigurationError, ShardReplayError
from .utils.io import atomic_write_json
from .faults import ContainerCrash, FaultPlaneConfig, LatencyStorm, OutageWindow
from .resilience import CircuitBreakerConfig, HedgeConfig, ResilienceConfig
from .experiments.characterization import CharacterizationExperiment
from .experiments.eviction_model import EvictionModelExperiment
from .experiments.faas_vs_iaas import FaasVsIaasExperiment
from .experiments.invocation_overhead import InvocationOverheadExperiment
from .experiments.perf_cost import PerfCostExperiment
from .experiments.workload_replay import WorkloadReplayExperiment
from .experiments.workflow_replay import WorkflowReplayExperiment
from .workflows.catalog import STANDARD_WORKFLOWS
from .workload.scenario import STANDARD_PATTERNS
from .workload.trace import WorkloadTrace
from .reporting import figures
from .reporting.summaries import replay_summary
from .reporting.tables import format_table, table2_platform_limits, table3_applications, table9_insights


def _replay_args(parser: argparse.ArgumentParser, unit: str) -> None:
    """Options shared by the ``workload`` and ``workflow`` replay commands."""
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="streaming-aggregation mode: fold results into accumulators "
        f"as they are produced (O({unit}s) memory) — for very large replays",
    )
    parser.add_argument(
        "--log-retention",
        type=int,
        default=None,
        metavar="N",
        help="keep only the last N provider-log entries per function "
        "(default: unlimited; long replays should set a bound)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="sharded parallel replay across N processes (per-function "
        "shards, deterministically merged — identical results to serial "
        "replay; 1 = in-process sequential sharding)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="S",
        help="supervise the sharded replay: SIGKILL and retry any shard "
        "whose worker heartbeat goes stale for S seconds (requires "
        "--workers; implies supervision with default retries)",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=None,
        metavar="N",
        help="supervise the sharded replay: retry a failed shard up to N "
        "times with exponential backoff before quarantining it in-process "
        "(requires --workers; implies supervision)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist each completed shard outcome atomically under DIR "
        "(keyed by a plan fingerprint), so an interrupted replay can be "
        "resumed with --resume (requires --workers)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reload intact shard checkpoints from --checkpoint-dir and "
        "replay only the missing shards — byte-identical to an "
        "uninterrupted run",
    )
    parser.add_argument(
        "--reserved-concurrency",
        type=int,
        default=None,
        metavar="N",
        help="enable the overload model with a per-function concurrency cap "
        "of N: over-limit sync invocations are throttled (429 + client "
        "retries), async ones spill into a bounded admission queue",
    )
    parser.add_argument(
        "--retry-policy",
        default=None,
        choices=list(RETRY_POLICY_NAMES),
        help="client backoff policy for throttled sync invocations "
        "(default: exponential with full jitter; implies the overload "
        "model when given without --reserved-concurrency)",
    )
    parser.add_argument(
        "--outage",
        nargs=2,
        type=float,
        action="append",
        default=None,
        metavar=("START", "DURATION"),
        help="inject a region outage window (seconds into the replay; "
        "repeatable) — see also --outage-mode",
    )
    parser.add_argument(
        "--outage-mode",
        default="fail-fast",
        choices=["fail-fast", "hang"],
        help="how outage-window requests fail: immediate fault responses "
        "or hangs until the client timeout (default: fail-fast)",
    )
    parser.add_argument(
        "--crash",
        nargs=2,
        type=float,
        action="append",
        default=None,
        metavar=("AT", "SURVIVE_FRACTION"),
        help="inject a correlated container crash at AT seconds, evicting "
        "warm containers so only SURVIVE_FRACTION survive (repeatable)",
    )
    parser.add_argument(
        "--latency-storm",
        nargs=3,
        type=float,
        action="append",
        default=None,
        metavar=("START", "DURATION", "MULTIPLIER"),
        help="inject a latency storm: compute and network draws are scaled "
        "by MULTIPLIER inside the window (repeatable)",
    )
    parser.add_argument(
        "--breaker",
        action="store_true",
        help="give the simulated clients a per-function circuit breaker "
        "(trips on outage/failure storms, sheds load, probes recovery)",
    )
    parser.add_argument(
        "--breaker-cooldown-s",
        type=float,
        default=30.0,
        metavar="S",
        help="breaker OPEN cooldown before recovery probes (default: 30)",
    )
    parser.add_argument(
        "--hedge-delay-s",
        type=float,
        default=None,
        metavar="S",
        help="hedge synchronous requests whose primary attempt is still "
        "running after S seconds (first completion wins, both billed)",
    )
    parser.add_argument(
        "--client-retry-policy",
        default=None,
        choices=list(RETRY_POLICY_NAMES),
        help="client backoff policy for fault responses and stale "
        "resubmissions (default: none — fail fast)",
    )
    parser.add_argument(
        "--stale-after-s",
        type=float,
        default=None,
        metavar="S",
        help="client staleness deadline: executions admitted later than S "
        "seconds after submission are wasted work (billed, recorded as "
        "stale failures; resubmitted when --client-retry-policy is set)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the machine-readable summary (per-provider and "
        f"per-{unit} rows) as JSON instead of only printing tables",
    )
    parser.add_argument(
        "--observe",
        action="store_true",
        help="attach the lifecycle-event observer (typed invocation spans, "
        "container churn, breaker transitions, fault windows) — purely "
        "observational, replay output stays bit-identical; serial replay "
        "only (incompatible with --workers)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the observed event stream as Chrome trace-event JSON "
        "(load in Perfetto / chrome://tracing; implies --observe; with "
        "multiple providers, PATH gets a -<provider> suffix)",
    )
    parser.add_argument(
        "--timeseries-out",
        default=None,
        metavar="PATH",
        help="write windowed simulated-time metrics (goodput, in-flight, "
        "throttle/drop/fault rates, warm pool, latency percentiles) as "
        "CSV — works with --workers and --streaming (exact sharded merge)",
    )
    parser.add_argument(
        "--timeseries-window",
        type=float,
        default=5.0,
        metavar="S",
        help="simulated-time bucket width for --timeseries-out (default: 5)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the replay machinery itself (host wall clock per "
        "phase: planning, shard execution, merge) and print the breakdown",
    )
    parser.add_argument(
        "--providers",
        nargs="+",
        default=["aws", "gcp", "azure"],
        choices=[p.value for p in (Provider.AWS, Provider.GCP, Provider.AZURE)],
        help="providers to evaluate",
    )


def _experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=50, help="measurements per configuration")
    parser.add_argument("--batch", type=int, default=20, help="concurrent invocations per batch")
    parser.add_argument("--seed", type=int, default=42, help="simulation seed")
    parser.add_argument(
        "--providers",
        nargs="+",
        default=["aws", "gcp", "azure"],
        choices=[p.value for p in (Provider.AWS, Provider.GCP, Provider.AZURE)],
        help="providers to evaluate",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sebs-repro", description=__doc__)
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
        help="logging verbosity (before the subcommand, e.g. "
        "'sebs-repro --log-level info workload ...'); supervisor recovery "
        "actions log at INFO/WARNING (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmarks")
    sub.add_parser("table2", help="provider policy comparison (Table 2)")
    sub.add_parser("table3", help="application suite (Table 3)")
    sub.add_parser("table9", help="insight summary (Table 9)")

    characterize = sub.add_parser("characterize", help="local characterization (Table 4)")
    characterize.add_argument("--repetitions", type=int, default=5)
    characterize.add_argument("--seed", type=int, default=42)

    perf = sub.add_parser("perf-cost", help="Perf-Cost experiment (Figures 3-5)")
    perf.add_argument("benchmark", help="benchmark name, e.g. thumbnailer")
    _experiment_args(perf)

    invoc = sub.add_parser("invoc-overhead", help="invocation overhead experiment (Figure 6)")
    _experiment_args(invoc)

    evict = sub.add_parser("eviction", help="container eviction experiment (Figure 7)")
    evict.add_argument("--seed", type=int, default=42)

    iaas = sub.add_parser("faas-vs-iaas", help="FaaS vs IaaS comparison (Table 5)")
    iaas.add_argument("--samples", type=int, default=50)
    iaas.add_argument("--seed", type=int, default=42)

    workload = sub.add_parser("workload", help="trace-driven workload replay")
    workload.add_argument(
        "--pattern",
        default="mixed",
        choices=list(STANDARD_PATTERNS),
        help="arrival pattern applied to the deployed functions",
    )
    workload.add_argument("--duration", type=float, default=600.0, help="trace duration in simulated seconds")
    workload.add_argument("--rate", type=float, default=2.0, help="mean arrival rate per function (1/s)")
    workload.add_argument("--trace", default=None, help="replay a JSON trace file instead of synthesizing")
    workload.add_argument("--save-trace", default=None, help="write the synthesized trace to a JSON file")
    _replay_args(workload, unit="function")

    workflow = sub.add_parser(
        "workflow", help="DAG workflow replay (composed invocations via async triggers)"
    )
    workflow.add_argument(
        "--workflow",
        default="pipeline",
        choices=list(STANDARD_WORKFLOWS),
        help="canned workflow DAG to replay (chain / fan-out+fan-in map / "
        "conditional branch)",
    )
    workflow.add_argument(
        "--duration", type=float, default=300.0, help="arrival window in simulated seconds"
    )
    workflow.add_argument(
        "--rate", type=float, default=1.0, help="mean workflow arrival rate (1/s)"
    )
    workflow.add_argument(
        "--fan-out", type=int, default=8, help="map cardinality of the fanout workflow"
    )
    _replay_args(workflow, unit="workflow")

    population = sub.add_parser(
        "population",
        help="multi-tenant population replay (synthetic Zipf/diurnal/burst "
        "population, or an ingested Azure invocation-per-minute trace)",
    )
    population.add_argument(
        "--functions",
        type=int,
        default=10_000,
        metavar="N",
        help="synthetic population size (default: 10000)",
    )
    population.add_argument(
        "--duration", type=float, default=600.0, help="replay horizon in simulated seconds"
    )
    population.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="R",
        help="aggregate population arrival rate (1/s), split across "
        "functions by Zipf popularity (default: 200)",
    )
    population.add_argument(
        "--tenants",
        type=int,
        default=None,
        metavar="N",
        help="tenant count (default: one tenant per 8 functions)",
    )
    population.add_argument(
        "--zipf-alpha",
        type=float,
        default=1.1,
        metavar="A",
        help="Zipf popularity exponent; larger = heavier head (default: 1.1)",
    )
    population.add_argument(
        "--ingest",
        default=None,
        metavar="CSV",
        help="replay an Azure Functions invocation-per-minute CSV instead "
        "of synthesizing (overrides the synthetic-population options)",
    )
    population.add_argument(
        "--ingest-limit",
        type=int,
        default=None,
        metavar="N",
        help="ingest only the first N trace rows (slice huge traces)",
    )
    population.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="sharded replay across N processes (bit-identical to serial)",
    )
    population.add_argument(
        "--top-tenants",
        type=int,
        default=10,
        metavar="K",
        help="report the top K tenants by spend (default: 10)",
    )
    population.add_argument(
        "--log-retention",
        type=int,
        default=None,
        metavar="N",
        help="keep only the last N provider-log entries per function "
        "(large populations should set a small bound)",
    )
    population.add_argument("--seed", type=int, default=42)
    population.add_argument(
        "--provider",
        default="aws",
        choices=[p.value for p in (Provider.AWS, Provider.GCP, Provider.AZURE)],
        help="provider to replay against (single provider: population "
        "deployment happens inside every worker)",
    )
    population.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the machine-readable summary (aggregates + top-tenant "
        "attribution) as JSON",
    )

    storm = sub.add_parser(
        "fault-storm",
        help="retry-storm experiment: metastable failure vs breaker recovery",
    )
    storm.add_argument(
        "--duration", type=float, default=120.0, help="trace duration in simulated seconds"
    )
    storm.add_argument("--rate", type=float, default=14.0, help="arrival rate (1/s)")
    storm.add_argument(
        "--outage-start", type=float, default=40.0, help="outage begin (seconds into the trace)"
    )
    storm.add_argument(
        "--outage-duration", type=float, default=15.0, help="outage length in seconds"
    )
    storm.add_argument("--seed", type=int, default=42)
    storm.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="sharded parallel replay across N processes (bit-identical)",
    )
    storm.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the full result (variants, goodput curves) as JSON",
    )
    return parser


def _overload_config(args: argparse.Namespace) -> OverloadConfig | None:
    """Overload model selected by the replay flags (None = disabled)."""
    if args.reserved_concurrency is None and args.retry_policy is None:
        return None
    return OverloadConfig(
        reserved_concurrency=args.reserved_concurrency,
        retry_policy=args.retry_policy or "exponential",
    )


def _fault_config(args: argparse.Namespace) -> FaultPlaneConfig | None:
    """Fault plane selected by the replay flags (None = disabled)."""
    if not (args.outage or args.crash or args.latency_storm):
        return None
    return FaultPlaneConfig(
        outages=tuple(
            OutageWindow(start_s=start, duration_s=duration, mode=args.outage_mode)
            for start, duration in (args.outage or ())
        ),
        crashes=tuple(
            ContainerCrash(at_s=at, survive_fraction=survive)
            for at, survive in (args.crash or ())
        ),
        storms=tuple(
            LatencyStorm(
                start_s=start,
                duration_s=duration,
                compute_multiplier=multiplier,
                network_multiplier=multiplier,
            )
            for start, duration, multiplier in (args.latency_storm or ())
        ),
    )


def _resilience_config(args: argparse.Namespace) -> ResilienceConfig | None:
    """Client resilience stack selected by the replay flags (None = disabled)."""
    if not (
        args.breaker
        or args.hedge_delay_s is not None
        or args.client_retry_policy is not None
        or args.stale_after_s is not None
    ):
        return None
    return ResilienceConfig(
        breaker=CircuitBreakerConfig(cooldown_s=args.breaker_cooldown_s)
        if args.breaker
        else None,
        hedge=HedgeConfig(delay_s=args.hedge_delay_s)
        if args.hedge_delay_s is not None
        else None,
        retry_policy=args.client_retry_policy or "none",
        stale_after_s=args.stale_after_s,
    )


def _supervision_config(args: argparse.Namespace):
    """Supervisor policy selected by the replay flags (None = unsupervised)."""
    if args.shard_timeout is None and args.shard_retries is None:
        return None
    from .parallel import SupervisorConfig

    overrides: dict = {}
    if args.shard_timeout is not None:
        overrides["shard_timeout_s"] = args.shard_timeout
    if args.shard_retries is not None:
        overrides["max_retries"] = args.shard_retries
    return SupervisorConfig(**overrides)


def _write_output(path: str, payload: dict) -> None:
    """Write one machine-readable summary document as JSON (atomically)."""
    atomic_write_json(Path(path), payload)
    print(f"summary written to {path}")


def _observability(args: argparse.Namespace):
    """Resolve the --observe/--trace-out/--timeseries-* flags.

    Returns ``(observer_factory, event_logs, timeseries_spec)``: the
    factory hands each provider its own :class:`~repro.observe.EventLog`
    (collected in ``event_logs``), the spec requests the windowed series.
    """
    event_logs: dict = {}
    observer_factory = None
    if args.observe or args.trace_out is not None:
        from .observe import EventLog

        def observer_factory(provider):
            log = EventLog()
            event_logs[provider] = log
            return log

    timeseries = None
    if args.timeseries_out is not None:
        from .observe import TimeSeriesSpec

        timeseries = TimeSeriesSpec(window_s=args.timeseries_window)
    return observer_factory, event_logs, timeseries


def _provider_path(path: str, provider: Provider, multi: bool) -> Path:
    """Suffix ``path`` with the provider when several providers replay."""
    resolved = Path(path)
    if not multi:
        return resolved
    return resolved.with_name(f"{resolved.stem}-{provider.value}{resolved.suffix}")


def _emit_observability(args: argparse.Namespace, providers, per_provider, event_logs) -> None:
    """Write trace/series files and print profiles for each provider."""
    multi = len(providers) > 1
    for provider in providers:
        replay = per_provider[provider]
        log = event_logs.get(provider)
        if log is not None:
            print(f"{len(log)} lifecycle events observed ({provider.value})")
        if args.trace_out is not None and log is not None:
            from .observe import write_chrome_trace

            path = _provider_path(args.trace_out, provider, multi)
            write_chrome_trace(log.events, path)
            print(f"trace written to {path}")
        if args.timeseries_out is not None and replay.timeseries is not None:
            from .observe import write_timeseries_csv

            path = _provider_path(args.timeseries_out, provider, multi)
            write_timeseries_csv(replay.timeseries, path)
            print(f"time series written to {path}")
        if args.profile and replay.profile is not None:
            print(f"\n# Replay profile ({provider.value})")
            print(format_table(replay.profile.rows()))


def _configs(args: argparse.Namespace) -> tuple[ExperimentConfig, SimulationConfig]:
    samples = getattr(args, "samples", 50)
    batch = getattr(args, "batch", 20)
    seed = getattr(args, "seed", 42)
    return (
        ExperimentConfig(samples=samples, batch_size=batch, seed=seed),
        SimulationConfig(seed=seed),
    )


#: Structured exit codes, one per failure class, for scripted callers.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_SHARD_FAILURE = 3
EXIT_CHECKPOINT = 4


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``sebs-repro`` command.

    Returns a structured exit code per failure class: 0 success, 2 invalid
    configuration, 3 sharded replay failed after exhausting supervision
    (the offending shard is reported), 4 checkpoint-store misuse, 1 any
    other library error.
    """
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _run(args)
    except ShardReplayError as error:
        print(f"shard replay failed: {error}", file=sys.stderr)
        print(
            f"  shard {error.shard_index} (functions: "
            f"{', '.join(error.functions) or '?'}) after {error.attempts} attempt(s); "
            f"{len(error.partial_outcomes)} completed shard(s) salvaged",
            file=sys.stderr,
        )
        return EXIT_SHARD_FAILURE
    except CheckpointError as error:
        print(f"checkpoint error: {error}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ConfigurationError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG


def _run(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name in list_benchmarks():
            print(name)
        return 0
    if args.command == "table2":
        print(format_table(table2_platform_limits()))
        return 0
    if args.command == "table3":
        print(format_table(table3_applications()))
        return 0
    if args.command == "table9":
        print(format_table(table9_insights()))
        return 0

    if args.command == "characterize":
        config = ExperimentConfig(samples=max(2, args.repetitions), seed=args.seed)
        experiment = CharacterizationExperiment(
            config=config, simulation=SimulationConfig(seed=args.seed), repetitions=args.repetitions
        )
        print(format_table(experiment.run().to_rows()))
        return 0

    if args.command == "perf-cost":
        config, simulation = _configs(args)
        providers = tuple(Provider(p) for p in args.providers)
        experiment = PerfCostExperiment(config=config, simulation=simulation)
        result = experiment.run(args.benchmark, providers=providers)
        print("# Figure 3: warm performance")
        print(format_table(figures.figure3_performance_series(result)))
        print("\n# Figure 4: cold start overheads")
        print(format_table(figures.figure4_cold_overhead_series(result)))
        print("\n# Figure 5a: cost of 1M invocations")
        print(format_table(figures.figure5a_cost_series(result)))
        print("\n# Figure 5b: used vs billed resources")
        print(format_table(figures.figure5b_resource_usage_series(result)))
        return 0

    if args.command == "invoc-overhead":
        config, simulation = _configs(args)
        providers = tuple(Provider(p) for p in args.providers)
        experiment = InvocationOverheadExperiment(config=config, simulation=simulation)
        result = experiment.run(providers=providers)
        print(format_table(figures.figure6_invocation_overhead_series(result)))
        return 0

    if args.command == "eviction":
        config = ExperimentConfig(samples=10, seed=args.seed)
        experiment = EvictionModelExperiment(config=config, simulation=SimulationConfig(seed=args.seed))
        result = experiment.run()
        print(format_table(figures.figure7_eviction_series(result)))
        model = result.model
        if model is not None:
            print(f"\nFitted eviction period: {model.period_s:.0f} s (R^2 = {model.r_squared:.4f})")
        return 0

    if args.command == "workload":
        config = ExperimentConfig(samples=1, seed=args.seed)
        simulation = SimulationConfig(
            seed=args.seed,
            log_retention=args.log_retention,
            overload=_overload_config(args),
            faults=_fault_config(args),
            resilience=_resilience_config(args),
        )
        experiment = WorkloadReplayExperiment(config=config, simulation=simulation)
        providers = tuple(Provider(p) for p in args.providers)
        trace = WorkloadTrace.from_json(args.trace) if args.trace else None
        observer_factory, event_logs, timeseries = _observability(args)
        result = experiment.run(
            providers=providers,
            pattern=args.pattern,
            duration_s=args.duration,
            rate_per_s=args.rate,
            trace=trace,
            keep_records=not args.streaming,
            workers=args.workers,
            supervision=_supervision_config(args),
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            observer_factory=observer_factory,
            timeseries=timeseries,
            profile=args.profile,
        )
        if args.save_trace:
            result.trace.to_json(args.save_trace, indent=2)
            print(f"trace written to {args.save_trace}")
        print(f"# Workload replay: {result.scenario_name} "
              f"({result.trace_invocations} invocations over {result.trace_duration_s:.0f}s)")
        print(format_table(result.to_rows()))
        print("\n# Provider summary")
        print(format_table(result.summary_rows()))
        _emit_observability(args, providers, result.per_provider, event_logs)
        if args.output:
            _write_output(
                args.output,
                {
                    "command": "workload",
                    "scenario": result.scenario_name,
                    "invocations": result.trace_invocations,
                    "duration_s": result.trace_duration_s,
                    "seed": args.seed,
                    "providers": result.summary_rows(),
                    "per_function": result.to_rows(),
                    "replay": {
                        provider.value: replay_summary(result.per_provider[provider])
                        for provider in providers
                    },
                },
            )
        return 0

    if args.command == "workflow":
        config = ExperimentConfig(samples=1, seed=args.seed)
        simulation = SimulationConfig(
            seed=args.seed,
            log_retention=args.log_retention,
            overload=_overload_config(args),
            faults=_fault_config(args),
            resilience=_resilience_config(args),
        )
        experiment = WorkflowReplayExperiment(config=config, simulation=simulation)
        providers = tuple(Provider(p) for p in args.providers)
        # The branch workflow routes on the payload; give it a route.
        payload = {"size": "small"} if args.workflow == "branch" else None
        observer_factory, event_logs, timeseries = _observability(args)
        result = experiment.run(
            providers=providers,
            workflow=args.workflow,
            duration_s=args.duration,
            rate_per_s=args.rate,
            fan_out=args.fan_out,
            payload=payload,
            keep_records=not args.streaming,
            workers=args.workers,
            supervision=_supervision_config(args),
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            observer_factory=observer_factory,
            timeseries=timeseries,
            profile=args.profile,
        )
        print(f"# Workflow replay: {result.workflow_name} "
              f"({result.executions} executions over {args.duration:.0f}s)")
        print(format_table(result.to_rows()))
        print("\n# Provider summary")
        print(format_table(result.summary_rows()))
        _emit_observability(args, providers, result.per_provider, event_logs)
        if args.output:
            _write_output(
                args.output,
                {
                    "command": "workflow",
                    "workflow": result.workflow_name,
                    "executions": result.executions,
                    "duration_s": args.duration,
                    "seed": args.seed,
                    "providers": result.summary_rows(),
                    "per_workflow": result.to_rows(),
                    "replay": {
                        provider.value: replay_summary(result.per_provider[provider])
                        for provider in providers
                    },
                },
            )
        return 0

    if args.command == "population":
        from .population import PopulationSpec, TraceIngest, replay_population
        from .simulator.providers import create_platform

        simulation = SimulationConfig(seed=args.seed, log_retention=args.log_retention)
        if args.ingest:
            population = TraceIngest.load(args.ingest, limit=args.ingest_limit)
        else:
            population = PopulationSpec(
                n_functions=args.functions,
                duration_s=args.duration,
                aggregate_rate_per_s=args.rate,
                n_tenants=args.tenants,
                zipf_alpha=args.zipf_alpha,
            )
        platform = create_platform(Provider(args.provider), simulation)
        result = replay_population(
            platform,
            population,
            seed=args.seed,
            workers=args.workers,
            top_tenants=args.top_tenants,
        )
        print(
            f"# Population replay: {result.population_name} "
            f"({result.functions_active}/{result.functions_total} functions active, "
            f"{result.invocations} invocations over {population.duration_s:.0f}s)"
        )
        print(format_table([result.result.summary_row() | {"top_tenants": len(result.top_tenants)}]))
        if result.top_tenants:
            print("\n# Top tenants by spend")
            print(format_table([spend.to_row() for spend in result.top_tenants]))
        if args.output:
            _write_output(
                args.output,
                {
                    "command": "population",
                    "seed": args.seed,
                    "provider": args.provider,
                    "workers": args.workers,
                    "population": result.population_name,
                    "functions_total": result.functions_total,
                    "functions_active": result.functions_active,
                    "summary": result.result.summary_row(),
                    "top_tenants": [spend.to_row() for spend in result.top_tenants],
                },
            )
        return 0

    if args.command == "fault-storm":
        from .experiments.resilience import ResilienceExperiment

        config = ExperimentConfig(samples=1, seed=args.seed)
        experiment = ResilienceExperiment(config=config, simulation=SimulationConfig(seed=args.seed))
        result = experiment.run(
            duration_s=args.duration,
            rate_per_s=args.rate,
            outage_start_s=args.outage_start,
            outage_duration_s=args.outage_duration,
            workers=args.workers,
        )
        print(
            f"# Fault storm: outage [{result.outage_start_s:.0f}s, "
            f"{result.outage_end_s:.0f}s) in a {result.duration_s:.0f}s trace"
        )
        rows = []
        for variant in result.variants:
            rows.append(
                {
                    "variant": variant.name,
                    "retry policy": variant.retry_policy,
                    "breaker": "yes" if variant.breaker_enabled else "no",
                    "requests": variant.invocations,
                    "retries": variant.retries,
                    "short-circuited": variant.short_circuited,
                    "pre goodput/s": f"{variant.pre.goodput_per_s:.2f}",
                    "post goodput/s": f"{variant.post.goodput_per_s:.2f}",
                    "recovery": f"{variant.recovery_ratio:.2f}",
                }
            )
        print(format_table(rows))
        if args.output:
            _write_output(args.output, {"command": "fault-storm", "seed": args.seed, **result.to_dict()})
        return 0

    if args.command == "faas-vs-iaas":
        config = ExperimentConfig(samples=args.samples, seed=args.seed)
        experiment = FaasVsIaasExperiment(config=config, simulation=SimulationConfig(seed=args.seed))
        result = experiment.run()
        print(format_table(result.to_rows()))
        return 0

    return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
