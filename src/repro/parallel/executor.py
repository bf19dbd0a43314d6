"""Shard execution backends and the sharded-replay driver.

Every sharded replay — :func:`run_workload_sharded`,
:func:`run_workflows_sharded` and
:func:`repro.population.replay_population` — is a planning closure plus
one call to :func:`_run_sharded`, the driver that snapshots the platform,
runs the shards and merges them.  Two backends run the shards produced by
:mod:`repro.parallel.plan`:

* **sequential** — every shard replays in-process, one after another, each
  on its own freshly rebuilt platform.  This is the *reference backend*:
  zero concurrency, zero pickling, and the backend ``workers=1`` resolves
  to.  The equivalence suite pins its output bit-identical to a plain
  serial :meth:`~repro.simulator.platform_sim.SimulatedPlatform.run_workload`.
* **process** — shards run on a ``multiprocessing`` pool (``fork`` start
  method where available, ``spawn`` otherwise), at most ``workers``
  concurrently.  Because a shard's result is a pure function of the
  snapshot and the shard — no shared state, no cross-shard draws — the
  process backend produces byte-identical merged results to the sequential
  one, just faster.

Merged-result semantics (see :mod:`repro.parallel.merge` for the details):
record-mode merges are bit-identical to serial replay; streaming-mode
merges are exact for counts, sums, min and max, and carry each function's
reservoir percentile state over unchanged (a function lives in exactly one
shard, so its merged percentiles are byte-identical to serial).  Only
``wall_clock_s`` (a measurement, not a simulation output) and
``peak_in_flight`` (max over shards wherever the merged records' intervals
are unavailable — streaming mode, and workflow merges in both modes — a
lower bound on the cross-shard global peak) differ from serial replay.

Robustness is layered on without touching the merge contract: the
unsupervised process backend **fails fast** (first shard failure cancels
every still-pending shard), an optional
:class:`~repro.parallel.supervisor.SupervisorConfig` adds heartbeat
timeouts / bounded retries / pool rebuild / quarantine, and an optional
``checkpoint_dir`` + ``resume`` pair persists completed shard outcomes so
an interrupted replay re-runs only what is missing
(:mod:`repro.parallel.checkpoint`) — all of which reproduce the
uninterrupted result byte for byte, because each shard outcome is a pure
function of ``(snapshot, shard)``.
"""

from __future__ import annotations

import functools
import multiprocessing
import operator
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..exceptions import CheckpointError, ConfigurationError
from ..faas.invocation import InvocationRequest
from ..observe.profile import ProfileBuilder
from ..observe.timeseries import TimeSeriesSpec
from ..utils.rng import RandomStreams
from ..workload.engine import WorkloadEngine, WorkloadResult
from ..workload.scenario import Scenario
from ..workload.trace import WorkloadTrace
from ..workflows.engine import WorkflowEngine, fold_workflow_results
from ..workflows.spec import WorkflowArrival
from .checkpoint import CheckpointStore
from .merge import (
    TraceShardOutcome,
    WorkflowShardOutcome,
    merge_trace_outcomes,
    merge_workflow_outcomes,
)
from .plan import ScenarioShard, ShardPlanner, TraceShard, WorkflowShard
from .snapshot import PlatformSnapshot
from .supervisor import ShardSupervisor, SupervisorConfig

#: Backend names accepted by the ``backend`` parameters.
BACKENDS = ("sequential", "process")


def _resolve_backend(backend: str | None, workers: int) -> str:
    if backend is None:
        return "sequential" if workers == 1 else "process"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown shard backend {backend!r}; choose from {', '.join(BACKENDS)}"
        )
    return backend


def _shard_requests(shard: TraceShard | ScenarioShard) -> Iterable[InvocationRequest]:
    """The time-sorted request stream of one shard, synthesizing if needed."""
    if isinstance(shard, TraceShard):
        return (request for _, request in shard.requests)
    streams = RandomStreams(shard.seed).fork("workload", shard.scenario_name)
    traces = [
        WorkloadTrace.synthesize(
            traffic.function_name,
            traffic.process,
            shard.duration_s,
            rng=streams.stream("arrivals", f"{source_index}:{traffic.function_name}"),
            payload=traffic.payload,
            payload_bytes=traffic.payload_bytes,
            trigger=traffic.trigger,
        )
        for source_index, traffic in shard.sources
    ]
    return WorkloadTrace.merge(*traces)


def _replay_trace_shard(
    snapshot: PlatformSnapshot,
    shard: TraceShard | ScenarioShard,
    keep_records: bool,
    timeseries=None,
) -> TraceShardOutcome:
    """Worker entry point: rebuild the platform, replay one shard.

    A requested time series gets a shard-local builder that observes the
    shard exactly as a serial attached builder would: container
    create/evict and crash evictions via the platform attachment, records
    folded in stream order.  Shards are function-disjoint and one
    function's records keep their serial relative order within the shard
    stream, so each per-``(function, window)`` reservoir ingests the same
    values at the same indices as serially — the merged union is then
    byte-identical (see :mod:`repro.observe.timeseries`).
    """
    platform = snapshot.build(shard.functions)
    engine = WorkloadEngine(platform)
    series = timeseries.build() if timeseries is not None else None
    platform._observer = series
    requests = _shard_requests(shard)
    if keep_records and not isinstance(shard, TraceShard):
        raise ConfigurationError("record-mode shards must carry materialised requests")
    # Thread the *global* stream indices through the replay: each record
    # reports the index of the request that produced it, which stays
    # correct even when the overload model resolves requests out of
    # arrival order (retries, admission queueing).
    positions = (
        (index for index, _ in shard.requests) if isinstance(shard, TraceShard) else None
    )
    emit = series.observe_record if series is not None else None
    # Columnar record shards ship the block's rows, not record objects;
    # the parent materialises after the merge.
    sink = engine.replay(requests, keep_records, positions=positions, emit=emit)
    return TraceShardOutcome(
        shard_index=shard.index,
        sink=sink,
        peak_in_flight=engine.last_peak_in_flight,
        timeseries=series,
    )


def _replay_workflow_shard(
    snapshot: PlatformSnapshot,
    shard: WorkflowShard,
    keep_records: bool,
    timeseries=None,
) -> WorkflowShardOutcome:
    """Worker entry point: rebuild the platform, replay one workflow shard."""
    platform = snapshot.build(shard.functions)
    engine = WorkflowEngine(platform)
    series = timeseries.build() if timeseries is not None else None
    accumulators, executions, first_submitted, last_finished = fold_workflow_results(
        engine.stream(
            (arrival for _, arrival in shard.arrivals),
            execution_indices=(index for index, _ in shard.arrivals),
            observer=series,
        ),
        keep_records=keep_records,
    )
    return WorkflowShardOutcome(
        shard_index=shard.index,
        accumulators=accumulators,
        executions=executions,
        first_submitted=first_submitted,
        last_finished=last_finished,
        peak_in_flight=engine.last_peak_in_flight,
        timeseries=series,
    )


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _execute(
    worker,
    snapshot: PlatformSnapshot,
    shards,
    keep_records: bool,
    workers: int,
    backend: str,
    supervision: SupervisorConfig | None = None,
    on_complete: Callable[[object], None] | None = None,
):
    """Run ``worker(snapshot, shard, keep_records)`` for every shard.

    Returns ``(outcomes, supervision_report_dict_or_None)`` with outcomes
    in shard order.  ``on_complete`` fires once per completed outcome, as
    it lands (checkpoint persistence hook).  With ``supervision`` set the
    shards route through :class:`~repro.parallel.supervisor.ShardSupervisor`
    (timeouts, retries, pool rebuild, quarantine); without it, failures
    **fail fast**: the first shard exception cancels every still-pending
    shard instead of letting doomed work run to completion.
    """
    if supervision is not None:
        supervisor = ShardSupervisor(
            worker, snapshot, keep_records, workers, supervision, on_complete=on_complete
        )
        if backend == "sequential" or len(shards) <= 1:
            outcomes = supervisor.execute_sequential(shards)
        else:
            outcomes = supervisor.execute(shards, _mp_context())
        return outcomes, supervisor.report.to_dict()
    if backend == "sequential" or len(shards) <= 1:
        outcomes = []
        for shard in shards:
            outcome = worker(snapshot, shard, keep_records)
            if on_complete is not None:
                on_complete(outcome)
            outcomes.append(outcome)
        return outcomes, None
    max_workers = min(workers, len(shards))
    with ProcessPoolExecutor(max_workers=max_workers, mp_context=_mp_context()) as pool:
        # Shards are handed to the pool as earlier ones complete, never more
        # than one beyond the worker count: the pool moves whatever it holds
        # into its call queue on its own schedule, where a shard can no
        # longer be cancelled, so only shards never submitted are certain
        # not to start after a failure.
        pending = iter(shards)
        running: dict = {}

        def submit_next() -> None:
            shard = next(pending, None)
            if shard is not None:
                running[pool.submit(worker, snapshot, shard, keep_records)] = shard

        for _ in range(max_workers + 1):
            submit_next()
        completed: dict[int, object] = {}
        try:
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    shard = running.pop(future)
                    outcome = future.result()
                    if on_complete is not None:
                        on_complete(outcome)
                    completed[shard.index] = outcome
                    submit_next()
        except BaseException:
            # Fail fast: a doomed merge cannot use the remaining shards, so
            # don't let them burn wall-clock.  Running shards finish their
            # current task; the rest never start.
            for future in running:
                future.cancel()
            raise
        return [completed[shard.index] for shard in shards], None


def _merge_shard_series(spec, outcomes):
    """Fold shard-local builders into one, in shard-index order (exact)."""
    builder = spec.build()
    for outcome in sorted(outcomes, key=lambda outcome: outcome.shard_index):
        if outcome.timeseries is None:
            raise CheckpointError(
                f"shard {outcome.shard_index} outcome carries no time series — "
                "it was checkpointed by a replay that did not request one; "
                "re-run without resume=True (or without timeseries=) to rebuild it"
            )
        builder.merge(outcome.timeseries)
    return builder


def _run_sharded(
    platform,
    plan: Callable[[], Sequence],
    worker,
    merge: Callable[..., object],
    *,
    workers,
    keep_records: bool,
    backend: str | None,
    supervision: SupervisorConfig | None = None,
    checkpoint_dir: Path | str | None = None,
    resume: bool = False,
    timeseries=None,
    profile: bool = False,
):
    """The one sharded-replay driver: plan, run the shards, merge.

    ``plan()`` returns the shards (validating the workload against
    ``platform`` as it goes), ``worker(snapshot, shard, keep_records)``
    replays one shard, and ``merge(provider, outcomes, keep_records,
    wall_clock_s)`` folds the outcomes into a result.  The driver owns
    everything around them: the argument checks, the platform snapshot,
    checkpoint preloading and persistence, shard execution (supervised or
    fail-fast), the time-series fold, and the ``plan`` / ``shards`` /
    ``merge`` profile.
    """
    try:
        workers = operator.index(workers)
    except TypeError:
        raise ConfigurationError(f"workers must be an integer, got {workers!r}") from None
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    if resume and checkpoint_dir is None:
        raise CheckpointError("resume=True requires a checkpoint_dir")
    wall_start = time.perf_counter()
    spec = None if timeseries is None else TimeSeriesSpec.of(timeseries)
    profiler = ProfileBuilder()
    with profiler.phase("plan"):
        backend = _resolve_backend(backend, workers)
        snapshot = PlatformSnapshot.capture(platform)
        shards = plan()
        store, preloaded = None, {}
        if checkpoint_dir is not None:
            store = CheckpointStore.for_plan(checkpoint_dir, snapshot, shards, keep_records)
            preloaded = store.load() if resume else {}
        todo = [shard for shard in shards if shard.index not in preloaded]
    if spec is not None:
        worker = functools.partial(worker, timeseries=spec)
    with profiler.phase("shards"):
        outcomes, report = _execute(
            worker,
            snapshot,
            todo,
            keep_records,
            workers,
            backend,
            supervision=supervision,
            on_complete=store.store if store is not None else None,
        )
    outcomes = list(outcomes) + list(preloaded.values())
    with profiler.phase("merge"):
        result = merge(platform.provider, outcomes, keep_records, time.perf_counter() - wall_start)
        if spec is not None:
            result.timeseries = _merge_shard_series(spec, outcomes)
    result.supervision = report
    if profile:
        result.profile = profiler.build(supervision=report)
    return result


def _require_deployed(platform, shards, source: str) -> None:
    """Refuse a plan whose shards name functions ``platform`` lacks."""
    deployed = set(platform.functions())
    for shard in shards:
        missing = [fname for fname in shard.functions if fname not in deployed]
        if missing:
            raise ConfigurationError(f"{source} undeployed functions: {missing}")


def run_workload_sharded(
    platform,
    trace: WorkloadTrace | Scenario | Iterable[InvocationRequest],
    *,
    workers: int,
    keep_records: bool = True,
    backend: str | None = None,
    trace_seed: int | None = None,
    supervision: SupervisorConfig | None = None,
    checkpoint_dir: Path | str | None = None,
    resume: bool = False,
    timeseries=None,
    profile: bool = False,
) -> WorkloadResult:
    """Sharded trace replay: partition, replay per shard, merge.

    ``trace`` may be a trace / request iterable (partitioned exactly, with
    global indices) or a :class:`~repro.workload.scenario.Scenario`
    (streaming mode only: each worker synthesizes its own shard's arrivals,
    so nothing is materialised in the parent).  Note that partitioning a
    trace or iterable necessarily **materialises every request in the
    parent** (per-function shard lists, pickled to workers) — a lazy
    request generator loses its O(functions) memory property here, so ship
    million-invocation sharded replays as a ``Scenario`` recipe instead.
    The parent ``platform`` is only snapshotted — it is not mutated by the
    replay.  ``trace_seed`` is the seed the scenario's arrivals derive from
    (default: the platform's simulation seed, matching how the experiments
    build their traces); it is ignored for already-materialised traces.

    ``supervision`` routes the shards through the
    :class:`~repro.parallel.supervisor.ShardSupervisor` recovery ladder
    (heartbeat timeouts, bounded retries, pool rebuild, degradation,
    quarantine); the report lands on ``result.supervision``.
    ``checkpoint_dir`` persists each completed shard outcome atomically
    under the plan fingerprint; ``resume=True`` reloads intact checkpoints
    and replays only the missing shards — the merged result is byte
    identical to an uninterrupted run (``wall_clock_s`` aside, which is a
    measurement of *this* run).

    ``wall_clock_s`` covers everything from snapshot capture through
    planning, shard replay and the merge — both sharded entry points time
    the same phases, so workload and workflow throughput figures compare
    like for like.

    ``timeseries`` (a :class:`~repro.observe.timeseries.TimeSeriesSpec` or
    bare window width in seconds) has every shard build a local builder
    and folds them at merge time — exactly equal to a serial attached
    series.  ``profile=True`` decomposes the host wall clock into
    ``plan`` / ``shards`` / ``merge`` phases on ``result.profile``
    (carrying the supervision report when the replay ran supervised).
    """

    def plan() -> Sequence:
        planner = ShardPlanner()
        if not isinstance(trace, Scenario):
            shards = planner.plan_trace(iter(trace), workers)
            for shard in shards:
                for fname in shard.functions:
                    platform.get_function(fname)  # unknown names fail before any replay
            return shards
        if keep_records:
            raise ConfigurationError(
                "scenario sharding is streaming-only (keep_records=False): exact "
                "record ordering requires a materialised trace — build one with "
                "scenario.build_trace() first"
            )
        seed = platform.simulation.seed if trace_seed is None else trace_seed
        shards = planner.plan_scenario(trace, seed, workers)
        _require_deployed(platform, shards, "scenario references")
        return shards

    return _run_sharded(
        platform,
        plan,
        _replay_trace_shard,
        merge_trace_outcomes,
        workers=workers,
        keep_records=keep_records,
        backend=backend,
        supervision=supervision,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        timeseries=timeseries,
        profile=profile,
    )


def run_workflows_sharded(
    platform,
    arrivals: Sequence[WorkflowArrival],
    *,
    workers: int,
    keep_records: bool = True,
    backend: str | None = None,
    supervision: SupervisorConfig | None = None,
    checkpoint_dir: Path | str | None = None,
    resume: bool = False,
    timeseries=None,
    profile: bool = False,
):
    """Sharded workflow replay: component partition, replay, merge.

    Execution indices from the unsharded arrival order ride along with each
    shard, so trigger-edge delays (hash-seeded by execution key) are
    identical to serial replay.  In record mode the merged ``executions``
    list is in canonical execution-index order (serial replay yields them
    in completion order; sort by ``execution_index`` to compare).

    ``supervision`` / ``checkpoint_dir`` / ``resume`` / ``timeseries`` /
    ``profile`` behave exactly as in :func:`run_workload_sharded`.
    ``wall_clock_s`` starts before arrival materialisation and shard
    planning — the same phases the workload entry point times.
    """

    def plan() -> Sequence:
        shards = ShardPlanner().plan_workflows(list(arrivals), workers)
        _require_deployed(platform, shards, "workflow arrivals reference")
        return shards

    return _run_sharded(
        platform,
        plan,
        _replay_workflow_shard,
        merge_workflow_outcomes,
        workers=workers,
        keep_records=keep_records,
        backend=backend,
        supervision=supervision,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        timeseries=timeseries,
        profile=profile,
    )
