"""The workflow replay engine: DAG executions on the event-queue scheduler.

A workflow execution is *compiled into event-queue entries*: every stage
task becomes an arrival event on the same min-heap schedule that
:class:`~repro.workload.engine.WorkloadEngine` replays flat traces with.
The engine feeds the inner event queue through a **feedback request
source** — when a stage's invocation record is produced, the completion
time plus the trigger-edge propagation delay
(:class:`~repro.workflows.edges.TriggerEdgeModel`) is pushed as the arrival
time of its downstream stages.  Because the inner engine yields each record
before pulling the next request, every downstream arrival is in the heap
before the scheduler could possibly need it, and all pushed times are at or
after the current virtual instant — the stream stays time-sorted without
any barrier or re-sort, preserving the O(1) invocation fast path and the
streaming ``keep_records=False`` replay mode.

Event ordering is canonical: simultaneous events are ordered by
``(execution index, stage name, map index)``, and edge delays are pure
functions of the edge identity (see :mod:`repro.workflows.edges`), so two
topologically equivalent specs — stage tuples permuted — replay
bit-identically.

Every execution produces a :class:`WorkflowResult` carrying end-to-end
latency, the critical path through the DAG, and that path's exact
decomposition into **compute** (time inside and around the invocations),
**cold starts** (sandbox initialisation) and **trigger propagation** (edge
delays).  Invocation *failures* do not halt an execution — the async
trigger edges fire on completion regardless of outcome, mirroring
fire-and-forget queue/storage chaining rather than an orchestrator with
abort-on-error semantics — but every result counts them, so callers can
filter executions a stricter orchestrator would have aborted.  The three components sum to the end-to-end latency by
construction: the critical path is recovered by following, from the
last-finishing stage, the upstream whose completion actually determined
each stage's start time.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from ..config import Provider, StartType, TriggerType
from ..exceptions import ConfigurationError
from ..faas.invocation import InvocationRecord, InvocationRequest, payload_wire_bytes
from ..stats.streaming import StreamingSummary
from ..stats.summary import DistributionSummary
from ..workload.engine import REPLENISH, WorkloadEngine
from .edges import TriggerEdgeModel
from .spec import WorkflowArrival, WorkflowSpec, WorkflowStage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulator.platform_sim import SimulatedPlatform

#: Pending-event tuples: (time, execution index, stage name, map index).
#: The trailing fields are the canonical tie-break for simultaneous events.
_Event = tuple[float, int, str, int]


class _ExecutionState:
    """Mutable bookkeeping of one in-flight workflow execution."""

    __slots__ = (
        "spec", "index", "key", "payload", "payload_bytes", "submitted_at",
        "remaining", "ready", "critical_upstream", "edge_delay_in",
        "finish", "crit", "skipped", "map_outstanding", "map_finish", "map_crit",
        "unresolved", "invocations", "cold_starts", "failures", "cost_usd",
        "stage_bytes",
    )

    def __init__(self, spec: WorkflowSpec, index: int, arrival: WorkflowArrival):
        self.spec = spec
        self.index = index
        self.key = f"{spec.name}#{index}"
        self.payload: Mapping[str, Any] = arrival.payload
        self.payload_bytes = arrival.payload_bytes
        self.submitted_at = arrival.submitted_at
        self.remaining = {stage.name: len(stage.after) for stage in spec.stages}
        #: Running max over resolved upstream contributions (start time).
        self.ready: dict[str, float] = {}
        #: Upstream whose completion determined ``ready`` (None for roots).
        self.critical_upstream: dict[str, str | None] = {}
        #: Edge delay on the critical inbound edge (timer jitter for roots).
        self.edge_delay_in: dict[str, float] = {}
        self.finish: dict[str, float] = {}
        #: (cold_init_s, client_time_s) of the stage's last-finishing task.
        self.crit: dict[str, tuple[float, float]] = {}
        self.skipped: set[str] = set()
        self.map_outstanding: dict[str, int] = {}
        self.map_finish: dict[str, float] = {}
        self.map_crit: dict[str, tuple[float, float]] = {}
        self.unresolved = len(spec.stages)
        self.invocations = 0
        self.cold_starts = 0
        self.failures = 0
        self.cost_usd = 0.0
        #: Per-stage message size cache (edge delays reuse it).
        self.stage_bytes: dict[str, int] = {}


@dataclass(frozen=True)
class WorkflowResult:
    """Outcome of one end-to-end workflow execution.

    ``compute_s + cold_start_s + trigger_propagation_s == end_to_end_s``
    exactly (up to float associativity): the components are read off the
    critical path, whose segments tile the interval between submission and
    the final completion.
    """

    workflow: str
    execution_index: int
    submitted_at: float
    finished_at: float
    invocations: int
    cold_starts: int
    #: Failed constituent invocations.  A failure does not halt the DAG —
    #: async triggers fire on completion regardless of outcome — so a
    #: non-zero count marks an execution whose end-to-end figures a real
    #: orchestrator with abort-on-error semantics would not have produced;
    #: filter on it when that distinction matters.
    failures: int
    skipped_stages: int
    cost_usd: float
    critical_path: tuple[str, ...]
    #: Client time spent in critical-path invocations, minus cold starts.
    compute_s: float
    #: Sandbox initialisation time on the critical path.
    cold_start_s: float
    #: Trigger-edge propagation (queue/storage/timer) on the critical path.
    trigger_propagation_s: float

    @property
    def end_to_end_s(self) -> float:
        return self.finished_at - self.submitted_at

    def to_row(self) -> dict:
        return {
            "workflow": self.workflow,
            "execution": self.execution_index,
            "end_to_end_ms": round(self.end_to_end_s * 1000.0, 2),
            "compute_ms": round(self.compute_s * 1000.0, 2),
            "cold_start_ms": round(self.cold_start_s * 1000.0, 2),
            "trigger_ms": round(self.trigger_propagation_s * 1000.0, 2),
            "critical_path": " > ".join(self.critical_path),
            "invocations": self.invocations,
            "cold_starts": self.cold_starts,
            "failures": self.failures,
            "cost_usd": round(self.cost_usd, 8),
        }


@dataclass(frozen=True)
class WorkflowSummary:
    """Aggregate outcome of all executions of one workflow spec."""

    workflow: str
    executions: int
    invocations: int
    cold_starts: int
    failures: int
    skipped_stages: int
    cost_usd: float
    compute_s_total: float
    cold_start_s_total: float
    trigger_propagation_s_total: float
    end_to_end: DistributionSummary | None = None

    def to_row(self) -> dict:
        row = {
            "workflow": self.workflow,
            "executions": self.executions,
            "invocations": self.invocations,
            "cold_starts": self.cold_starts,
            "failures": self.failures,
            "cost_usd": round(self.cost_usd, 8),
        }
        if self.end_to_end is not None:
            row["e2e_p50_ms"] = round(self.end_to_end.median * 1000.0, 2)
            row["e2e_p95_ms"] = round(
                self.end_to_end.percentiles.get(95.0, float("nan")) * 1000.0, 2
            )
        total = self.compute_s_total + self.cold_start_s_total + self.trigger_propagation_s_total
        if total > 0:
            row["compute_pct"] = round(100.0 * self.compute_s_total / total, 1)
            row["cold_pct"] = round(100.0 * self.cold_start_s_total / total, 1)
            row["trigger_pct"] = round(100.0 * self.trigger_propagation_s_total / total, 1)
        return row


class _WorkflowAccumulator:
    """Streaming per-workflow aggregates (O(1) state per workflow spec)."""

    __slots__ = (
        "workflow", "executions", "invocations", "cold_starts", "failures",
        "skipped_stages", "cost_usd", "compute_s", "cold_start_s", "trigger_s",
        "end_to_end", "end_to_end_s_sum",
    )

    def __init__(self, workflow: str):
        self.workflow = workflow
        self.executions = 0
        self.invocations = 0
        self.cold_starts = 0
        self.failures = 0
        self.skipped_stages = 0
        self.cost_usd = 0.0
        self.compute_s = 0.0
        self.cold_start_s = 0.0
        self.trigger_s = 0.0
        self.end_to_end = StreamingSummary(key=f"workflow:{workflow}")
        self.end_to_end_s_sum = 0.0

    def merge(self, other: "_WorkflowAccumulator") -> None:
        """Fold a shard's accumulator into this one (sharded replay merge)."""
        self.executions += other.executions
        self.invocations += other.invocations
        self.cold_starts += other.cold_starts
        self.failures += other.failures
        self.skipped_stages += other.skipped_stages
        self.cost_usd += other.cost_usd
        self.compute_s += other.compute_s
        self.cold_start_s += other.cold_start_s
        self.trigger_s += other.trigger_s
        self.end_to_end.merge(other.end_to_end)
        self.end_to_end_s_sum += other.end_to_end_s_sum

    def add(self, result: WorkflowResult) -> None:
        self.executions += 1
        self.invocations += result.invocations
        self.cold_starts += result.cold_starts
        self.failures += result.failures
        self.skipped_stages += result.skipped_stages
        self.cost_usd += result.cost_usd
        self.compute_s += result.compute_s
        self.cold_start_s += result.cold_start_s
        self.trigger_s += result.trigger_propagation_s
        self.end_to_end.add(result.end_to_end_s)
        self.end_to_end_s_sum += result.end_to_end_s

    def summary(self) -> WorkflowSummary:
        return WorkflowSummary(
            workflow=self.workflow,
            executions=self.executions,
            invocations=self.invocations,
            cold_starts=self.cold_starts,
            failures=self.failures,
            skipped_stages=self.skipped_stages,
            cost_usd=self.cost_usd,
            compute_s_total=self.compute_s,
            cold_start_s_total=self.cold_start_s,
            trigger_propagation_s_total=self.trigger_s,
            end_to_end=self.end_to_end.to_summary() if self.executions else None,
        )


@dataclass
class WorkflowReplayResult:
    """Everything a workflow replay produced.

    ``executions`` holds the per-execution results when ``keep_records=True``;
    in streaming mode it is empty and the aggregate counters/summaries (fed
    online, O(workflows) memory) are the only state that survives the
    replay.
    """

    provider: Provider
    executions: list[WorkflowResult] = field(default_factory=list)
    simulated_span_s: float = 0.0
    wall_clock_s: float = 0.0
    peak_in_flight: int = 0
    execution_count: int = 0
    invocation_total: int = 0
    cold_start_total: int = 0
    failure_total: int = 0
    cost_usd_total: float = 0.0
    compute_s_total: float = 0.0
    cold_start_s_total: float = 0.0
    trigger_propagation_s_total: float = 0.0
    end_to_end_s_total: float = 0.0
    summaries: dict[str, WorkflowSummary] = field(default_factory=dict)
    #: Supervision diagnostics from a supervised sharded replay (see
    #: ``WorkloadResult.supervision``); ``None`` otherwise and excluded
    #: from ``to_dict()``.
    supervision: dict | None = None
    #: :class:`~repro.observe.timeseries.TimeSeriesBuilder` when a
    #: simulated-time series was requested; ``None`` otherwise and (like
    #: ``supervision``) excluded from byte-compared payloads.
    timeseries: object | None = None
    #: :class:`~repro.observe.profile.ReplayProfile` when host-side
    #: profiling was requested; ``None`` otherwise.
    profile: object | None = None

    @property
    def throughput_per_s(self) -> float:
        """Constituent invocations simulated per wall-clock second."""
        if self.wall_clock_s <= 0:
            return 0.0
        return self.invocation_total / self.wall_clock_s

    @property
    def cold_start_rate(self) -> float:
        if not self.invocation_total:
            return 0.0
        return self.cold_start_total / self.invocation_total

    @property
    def mean_end_to_end_s(self) -> float:
        if not self.execution_count:
            return 0.0
        return self.end_to_end_s_total / self.execution_count

    def per_workflow(self) -> dict[str, WorkflowSummary]:
        return dict(self.summaries)

    def to_rows(self) -> list[dict]:
        """Per-workflow table rows."""
        return [self.summaries[name].to_row() for name in sorted(self.summaries)]

    def summary_row(self) -> dict:
        """One aggregate row describing the whole replay."""
        total_components = (
            self.compute_s_total + self.cold_start_s_total + self.trigger_propagation_s_total
        )
        row = {
            "provider": self.provider.value,
            "executions": self.execution_count,
            "invocations": self.invocation_total,
            "cold_starts": self.cold_start_total,
            "failures": self.failure_total,
            "peak_in_flight": self.peak_in_flight,
            "cost_usd": round(self.cost_usd_total, 8),
            "mean_e2e_ms": round(self.mean_end_to_end_s * 1000.0, 2),
            "simulated_span_s": round(self.simulated_span_s, 3),
            "throughput_inv_per_s": round(self.throughput_per_s, 1),
        }
        if total_components > 0:
            row["compute_pct"] = round(100.0 * self.compute_s_total / total_components, 1)
            row["cold_pct"] = round(100.0 * self.cold_start_s_total / total_components, 1)
            row["trigger_pct"] = round(100.0 * self.trigger_propagation_s_total / total_components, 1)
        return row


def fold_workflow_results(
    results: Iterable[WorkflowResult], keep_records: bool
) -> tuple[dict[str, _WorkflowAccumulator], list[WorkflowResult], float | None, float | None]:
    """Fold per-execution results into per-workflow accumulators.

    Returns ``(accumulators, kept_executions, first_submitted,
    last_finished)``.  Shared by the serial engine and the shard workers
    (:mod:`repro.parallel`), so both paths accumulate — and therefore
    float-sum — identically; any change here changes them in lockstep.
    """
    accumulators: dict[str, _WorkflowAccumulator] = {}
    executions: list[WorkflowResult] = []
    first_submitted: float | None = None
    last_finished: float | None = None
    for result in results:
        accumulator = accumulators.get(result.workflow)
        if accumulator is None:
            accumulator = accumulators[result.workflow] = _WorkflowAccumulator(result.workflow)
        accumulator.add(result)
        if first_submitted is None or result.submitted_at < first_submitted:
            first_submitted = result.submitted_at
        if last_finished is None or result.finished_at > last_finished:
            last_finished = result.finished_at
        if keep_records:
            executions.append(result)
    return accumulators, executions, first_submitted, last_finished


def build_replay_result(
    provider: Provider,
    accumulators: Mapping[str, _WorkflowAccumulator],
    executions: list[WorkflowResult],
    simulated_span_s: float,
    wall_clock_s: float,
    peak_in_flight: int,
) -> WorkflowReplayResult:
    """Reduce per-workflow accumulators into a :class:`WorkflowReplayResult`.

    Shared by the serial engine and the sharded-replay merge
    (:mod:`repro.parallel`): float totals reduce in sorted workflow-name
    order, so serial and merged replays produce byte-identical totals.
    """
    ordered = [accumulators[name] for name in sorted(accumulators)]
    return WorkflowReplayResult(
        provider=provider,
        executions=executions,
        simulated_span_s=simulated_span_s,
        wall_clock_s=wall_clock_s,
        peak_in_flight=peak_in_flight,
        execution_count=sum(a.executions for a in ordered),
        invocation_total=sum(a.invocations for a in ordered),
        cold_start_total=sum(a.cold_starts for a in ordered),
        failure_total=sum(a.failures for a in ordered),
        cost_usd_total=sum(a.cost_usd for a in ordered),
        compute_s_total=sum(a.compute_s for a in ordered),
        cold_start_s_total=sum(a.cold_start_s for a in ordered),
        trigger_propagation_s_total=sum(a.trigger_s for a in ordered),
        end_to_end_s_total=sum(a.end_to_end_s_sum for a in ordered),
        summaries={name: accumulators[name].summary() for name in sorted(accumulators)},
    )


class WorkflowEngine:
    """Replays workflow arrival streams against one simulated platform."""

    def __init__(self, platform: "SimulatedPlatform"):
        self.platform = platform
        self.edges = TriggerEdgeModel(platform)
        self.last_peak_in_flight = 0
        # Keyed by id() with the spec held as value: the strong reference
        # pins the object so a recycled id can never skip validation.
        self._validated_specs: dict[int, WorkflowSpec] = {}

    # ---------------------------------------------------------------- public
    def stream(
        self,
        arrivals: Iterable[WorkflowArrival],
        record_sink: Callable[[InvocationRecord], None] | None = None,
        execution_indices: Iterable[int] | None = None,
        observer=None,
    ) -> Iterator[WorkflowResult]:
        """Replay ``arrivals`` lazily, yielding one result per execution.

        Arrivals must be sorted by ``submitted_at``.  ``record_sink``
        optionally receives every constituent
        :class:`~repro.faas.invocation.InvocationRecord` as it is produced
        (drill-down without the engine retaining them).  ``observer`` is a
        :class:`~repro.observe.events.ReplayObserver`: it receives every
        stage record with its workflow/stage attribution
        (``on_workflow_stage``) and is attached to the platform for the
        replay, for container/breaker/fault events.  Observation is pure —
        no draws, no reordering — so the yielded results are bit-identical
        with or without it.

        ``execution_indices`` overrides the default ``0, 1, 2, ...``
        numbering of executions (one index per arrival, in order).  Sharded
        replay passes each arrival's index from the *unsharded* stream so
        the execution keys — which seed the per-edge trigger-delay
        generators — are identical to a serial replay.
        """
        platform = self.platform
        base = platform.clock.now()
        pending: list[_Event] = []
        active: dict[int, _ExecutionState] = {}
        finished: deque[WorkflowResult] = deque()
        # Stage-task metadata keyed by the inner engine's request position
        # (the record's ``request_index``).  With the overload model enabled
        # records can resolve out of submission order (retries, admission
        # queueing), so a FIFO correspondence would mis-attribute records;
        # the position key is order-independent.
        meta: dict[int, _Event] = {}
        task_positions = itertools.count()
        exec_counter = iter(execution_indices) if execution_indices is not None else itertools.count()

        # A controlled inner engine buffers work (admission queues, retry
        # backoff) whose eventual records schedule *new* source events —
        # possibly earlier than this source's current next event.  Before
        # committing to an event, the source therefore compares the
        # engine's feedback horizon (earliest instant buffered work could
        # emit a record) against it and yields the REPLENISH sentinel
        # instead whenever the buffered work comes first: the engine
        # resolves it, the records land here, and the heap re-sorts.  The
        # horizon is None whenever nothing is buffered.
        def source() -> Iterator[InvocationRequest]:
            arrival_iter = iter(arrivals)
            nxt = next(arrival_iter, None)
            last_submitted = 0.0
            while True:
                # Admit every workflow arrival at or before the next event,
                # so its root events take part in canonical heap ordering.
                while nxt is not None and (not pending or nxt.submitted_at <= pending[0][0]):
                    # Negated so a NaN timestamp fails the check too.
                    if not nxt.submitted_at >= last_submitted:
                        raise ConfigurationError(
                            "workflow arrivals must be sorted by submission time "
                            f"({nxt.submitted_at:.6f} after {last_submitted:.6f})"
                        )
                    last_submitted = nxt.submitted_at
                    self._admit(nxt, next(exec_counter), active, pending, finished)
                    nxt = next(arrival_iter, None)
                horizon = inner.feedback_horizon()
                if horizon is not None and (not pending or horizon <= pending[0][0]):
                    yield REPLENISH  # type: ignore[misc]
                    continue
                if not pending:
                    if active and nxt is None:
                        # No event ready but executions are still in flight:
                        # their tasks live in the engine's buffers.
                        yield REPLENISH  # type: ignore[misc]
                        continue
                    break
                event = heapq.heappop(pending)
                event_time, exec_index, stage_name, map_index = event
                state = active[exec_index]
                stage = state.spec.stage(stage_name)
                meta[next(task_positions)] = event
                yield InvocationRequest(
                    function_name=stage.function_name,
                    payload=self._task_payload(state, stage, map_index),
                    payload_bytes=self._task_payload_bytes(state, stage),
                    trigger=stage.resolved_trigger(),
                    submitted_at=event_time,
                )

        inner = WorkloadEngine(platform)
        platform._observer = observer
        try:
            for record in inner.stream(source()):
                if record_sink is not None:
                    record_sink(record)
                _, exec_index, stage_name, map_index = meta.pop(record.request_index)
                state = active[exec_index]
                if observer is not None:
                    observer.on_workflow_stage(
                        state.spec.name, exec_index, stage_name, map_index, record
                    )
                self._on_record(state, stage_name, record, base, active, pending, finished)
                while finished:
                    yield finished.popleft()
        finally:
            platform._observer = None
            self.last_peak_in_flight = inner.last_peak_in_flight
        # Executions resolved without any invocation after the last record
        # (e.g. trailing arrivals whose every stage was skipped).
        while finished:
            yield finished.popleft()

    def run(
        self,
        arrivals: Iterable[WorkflowArrival],
        keep_records: bool = True,
        record_sink: Callable[[InvocationRecord], None] | None = None,
        execution_indices: Iterable[int] | None = None,
        observer=None,
    ) -> WorkflowReplayResult:
        """Replay a whole arrival stream and aggregate the outcome.

        With ``keep_records=False`` the per-execution
        :class:`WorkflowResult` objects are folded into per-workflow
        accumulators as they complete, so memory stays
        O(workflows + in-flight executions) regardless of how many
        executions the stream contains.
        """
        wall_start = time.perf_counter()
        accumulators, executions, first_submitted, last_finished = fold_workflow_results(
            self.stream(
                arrivals,
                record_sink=record_sink,
                execution_indices=execution_indices,
                observer=observer,
            ),
            keep_records=keep_records,
        )
        wall_clock_s = time.perf_counter() - wall_start
        span = 0.0
        if first_submitted is not None and last_finished is not None:
            span = last_finished - first_submitted
        return build_replay_result(
            self.platform.provider,
            accumulators,
            executions=executions,
            simulated_span_s=span,
            wall_clock_s=wall_clock_s,
            peak_in_flight=self.last_peak_in_flight,
        )

    # -------------------------------------------------------------- plumbing
    def _validate_spec(self, spec: WorkflowSpec) -> None:
        if self._validated_specs.get(id(spec)) is spec:
            return
        for fname in spec.functions():
            self.platform.get_function(fname)
        self._validated_specs[id(spec)] = spec

    def _stage_payload(self, state: _ExecutionState, stage: WorkflowStage) -> Mapping[str, Any]:
        return stage.payload if stage.payload is not None else state.payload

    def _task_payload(
        self, state: _ExecutionState, stage: WorkflowStage, map_index: int
    ) -> Mapping[str, Any]:
        payload = self._stage_payload(state, stage)
        if stage.map_items is None:
            return payload
        # Map tasks carry their item index, like a real fan-out message.
        return {**payload, "map_index": map_index}

    def _task_payload_bytes(self, state: _ExecutionState, stage: WorkflowStage) -> int | None:
        if stage.payload_bytes is not None:
            return stage.payload_bytes
        if stage.payload is None and stage.map_items is None:
            return state.payload_bytes
        return None

    def _edge_bytes(self, state: _ExecutionState, stage: WorkflowStage) -> int:
        """Size of the trigger message/object carrying the stage input."""
        cached = state.stage_bytes.get(stage.name)
        if cached is None:
            explicit = self._task_payload_bytes(state, stage)
            if explicit is not None:
                cached = explicit
            else:
                cached = payload_wire_bytes(self._stage_payload(state, stage))
            state.stage_bytes[stage.name] = cached
        return cached

    def _admit(
        self,
        arrival: WorkflowArrival,
        index: int,
        active: dict[int, _ExecutionState],
        pending: list[_Event],
        finished: deque[WorkflowResult],
    ) -> None:
        spec = arrival.workflow
        self._validate_spec(spec)
        state = _ExecutionState(spec, index, arrival)
        active[index] = state
        for root in spec.roots():
            stage = spec.stage(root)
            delay = 0.0
            if stage.resolved_trigger() is TriggerType.TIMER:
                # The schedule fires with jitter; charged as trigger time.
                delay = self.edges.delay(
                    TriggerType.TIMER, state.key, root, "@schedule", 0, 0
                )
            state.ready[root] = arrival.submitted_at + delay
            state.critical_upstream[root] = None
            state.edge_delay_in[root] = delay
            self._schedule_stage(state, root, active, pending, finished)

    def _schedule_stage(
        self,
        state: _ExecutionState,
        name: str,
        active: dict[int, _ExecutionState],
        pending: list[_Event],
        finished: deque[WorkflowResult],
    ) -> None:
        """All upstreams of ``name`` are resolved: spawn its tasks (or skip)."""
        stage = state.spec.stage(name)
        payload = self._stage_payload(state, stage)
        cardinality = stage.cardinality(payload)
        if not stage.should_run(payload) or cardinality == 0:
            state.skipped.add(name)
            # Zero-duration no-op: readiness propagates, nothing executes.
            self._complete_stage(state, name, state.ready[name], 0.0, 0.0, active, pending, finished)
            return
        state.map_outstanding[name] = cardinality
        state.map_finish[name] = float("-inf")
        for map_index in range(cardinality):
            heapq.heappush(pending, (state.ready[name], state.index, name, map_index))

    def _on_record(
        self,
        state: _ExecutionState,
        stage_name: str,
        record: InvocationRecord,
        base: float,
        active: dict[int, _ExecutionState],
        pending: list[_Event],
        finished: deque[WorkflowResult],
    ) -> None:
        state.invocations += 1
        if record.start_type is StartType.COLD:
            state.cold_starts += 1
        if not record.success:
            state.failures += 1
        state.cost_usd += record.cost.total
        # The inner engine runs on the platform clock; workflow bookkeeping
        # stays in trace-relative time.
        finished_at = record.finished_at - base
        if finished_at > state.map_finish[stage_name]:
            state.map_finish[stage_name] = finished_at
            state.map_crit[stage_name] = (record.cold_init_s, record.client_time_s)
        state.map_outstanding[stage_name] -= 1
        if state.map_outstanding[stage_name] == 0:
            cold_init_s, client_time_s = state.map_crit[stage_name]
            self._complete_stage(
                state, stage_name, state.map_finish[stage_name],
                cold_init_s, client_time_s, active, pending, finished,
            )

    def _complete_stage(
        self,
        state: _ExecutionState,
        name: str,
        finish_time: float,
        cold_init_s: float,
        client_time_s: float,
        active: dict[int, _ExecutionState],
        pending: list[_Event],
        finished: deque[WorkflowResult],
    ) -> None:
        state.finish[name] = finish_time
        state.crit[name] = (cold_init_s, client_time_s)
        state.unresolved -= 1
        skipped_upstream = name in state.skipped
        upstream_memory = 0
        if not skipped_upstream:
            upstream_memory = self.platform.get_function(
                state.spec.stage(name).function_name
            ).config.memory_mb
        for downstream_name in state.spec.downstream(name):
            downstream = state.spec.stage(downstream_name)
            if skipped_upstream:
                # A skipped stage emits no message; readiness propagation is
                # control-plane only.
                delay = 0.0
            else:
                delay = self.edges.delay(
                    downstream.resolved_trigger(),
                    state.key,
                    downstream_name,
                    name,
                    self._edge_bytes(state, downstream),
                    upstream_memory,
                )
            contribution = finish_time + delay
            previous = state.ready.get(downstream_name)
            if previous is None or contribution > previous:
                state.ready[downstream_name] = contribution
                state.critical_upstream[downstream_name] = name
                state.edge_delay_in[downstream_name] = delay
            state.remaining[downstream_name] -= 1
            if state.remaining[downstream_name] == 0:
                self._schedule_stage(state, downstream_name, active, pending, finished)
        if state.unresolved == 0:
            finished.append(self._finalize(state))
            del active[state.index]

    def _finalize(self, state: _ExecutionState) -> WorkflowResult:
        # The execution ends at the latest stage completion (a terminal
        # stage by construction); ties break on the stage name.
        end_stage = max(state.finish.items(), key=lambda item: (item[1], item[0]))[0]
        path: list[str] = []
        node: str | None = end_stage
        while node is not None:
            path.append(node)
            node = state.critical_upstream[node]
        path.reverse()
        trigger_s = sum(state.edge_delay_in[stage] for stage in path)
        cold_s = sum(state.crit[stage][0] for stage in path)
        compute_s = sum(state.crit[stage][1] - state.crit[stage][0] for stage in path)
        return WorkflowResult(
            workflow=state.spec.name,
            execution_index=state.index,
            submitted_at=state.submitted_at,
            finished_at=state.finish[end_stage],
            invocations=state.invocations,
            cold_starts=state.cold_starts,
            failures=state.failures,
            skipped_stages=len(state.skipped),
            cost_usd=state.cost_usd,
            critical_path=tuple(path),
            compute_s=compute_s,
            cold_start_s=cold_s,
            trigger_propagation_s=trigger_s,
        )
