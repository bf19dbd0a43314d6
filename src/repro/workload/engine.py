"""The event-queue workload engine.

This is the scheduling layer that turns the single-request simulator into a
trace-driven system.  ``invoke`` and ``invoke_batch`` advance the virtual
clock once per call, so a container is either free or reserved for a whole
batch.  The engine instead replays a :class:`~repro.workload.trace.WorkloadTrace`
through a **min-heap event queue** over the virtual clock:

* every request is an *arrival* event at its trace timestamp;
* simulating an invocation determines its finish time, which is pushed as a
  *completion* event onto the heap;
* before an arrival is scheduled, all completions up to that instant are
  popped, releasing their sandboxes.

A sandbox is therefore occupied exactly between its invocation's start and
finish, and warm reuse, cold starts, eviction and concurrency all *emerge
from the overlap structure* of the trace: two requests 50 ms apart hitting a
200 ms function need two sandboxes, while the same two requests 5 s apart
share one.  Occupancy is the pool's multiset
(:meth:`~repro.simulator.containers.ContainerPool.reserve` /
:meth:`~repro.simulator.containers.ContainerPool.release`): dispatching an
invocation takes a slot, popping its completion returns it, which carries
exactly the per-execution multiplicity Azure's shared function-app
instances need.

Two aggregation modes, one aggregation path:

* ``run(trace)`` (default) also keeps every
  :class:`~repro.faas.invocation.InvocationRecord` in arrival order —
  exact per-function client-time percentiles with confidence intervals,
  full drill-down, O(invocations) memory;
* ``run(trace, keep_records=False)`` keeps no records — O(functions)
  memory, the mode for million-invocation traces, with per-function
  client-time percentiles estimated by mergeable reservoir sketches
  (:mod:`repro.stats.streaming`).  ``trace`` may then be a lazy iterable
  of requests.

Either way every count, cost and queue-delay total is folded by one
:class:`_ReplayAccumulator` (:func:`record_result` folds the kept records
in arrival order; a streaming controlled replay folds each terminal
outcome from its field values and builds no record at all).  The engine
is deterministic: the same platform seed and the same trace produce
identical schedules, counters and simulated spans in either mode.  Cost and queue-delay totals are identical too, except in
controlled replays: there streaming mode folds each function's sums in
resolution order rather than arrival order, so they agree to float
associativity.

**Overload mode** (:mod:`repro.concurrency`, enabled through
:attr:`repro.config.SimulationConfig.overload`): before dispatching, the
engine consults the function's admission gate.  Over-limit *synchronous*
(HTTP/SDK) requests are throttled and fed to the client retry policy —
re-attempts ride a feedback heap merged with the arrival stream (the same
no-re-sort discipline the workflow engine uses), so the event queue stays
time-sorted.  Over-limit *asynchronous* (queue/storage/timer) requests
spill into a bounded per-function admission queue drained as completions
free capacity, with age-based drops.  Every request still yields exactly
one record carrying its terminal outcome, attempt count and
backoff/queueing delay; records in record mode are ordered by the
request's position in the trace (identical to production order when
throttling is off).

**Fault plane & client resilience** (:mod:`repro.faults`,
:mod:`repro.resilience`): the same controlled replay path also injects
scheduled faults and runs the client's defences, composing with the retry
feedback heap without ever re-sorting the event queue:

* an arrival first consults the function's **circuit breaker** — an open
  breaker rejects instantly (``SHORT_CIRCUITED``), with no platform
  contact and no breaker feedback;
* inside an **outage window** the attempt fails at the fault-response
  instant (one gateway round trip, or the full function timeout in
  ``hang`` mode); synchronous clients may re-attempt via the fault retry
  policy on the same feedback heap, asynchronous deliveries are lost
  (``FAULTED``);
* admitted executions apply due **container crashes** to the warm pool,
  scale their draws by active **latency storms**, may send a **hedge
  duplicate** (first completion wins, both billed), and flip to ``stale``
  failures when admitted past the client deadline;
* every attempt outcome the client observes — execution result, fault
  response, 429 — feeds the breaker at its response instant via
  container-less completion events, so breaker state is a pure function
  of the function's own timeline and sharded replay stays bit-identical.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from ..concurrency import AdmissionQueue, QueuedInvocation
from ..config import InvocationOutcome, Provider, StartType, TriggerType
from ..exceptions import ConfigurationError
from ..faas.billing import CostBreakdown
from ..faas.invocation import InvocationRecord, InvocationRequest
from ..stats.streaming import DEFAULT_RESERVOIR_CAPACITY, StreamingSummary, summarize_many
from ..stats.summary import DistributionSummary, summarize
from .trace import MergedWorkloadTrace, WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulator.platform_sim import SimulatedPlatform, _FunctionRuntimeState

#: Trigger channels whose invocations are fire-and-forget: over the
#: concurrency limit they spill into the admission queue instead of
#: receiving a synchronous 429.
ASYNC_TRIGGERS = frozenset((TriggerType.QUEUE, TriggerType.STORAGE, TriggerType.TIMER))

#: Breaker-signal codes carried on completion entries of the generator
#: loop (:meth:`WorkloadEngine.stream`).  Throttles are a
#: distinct code because the breaker treats them asymmetrically (ignored
#: while CLOSED, failed-probe while HALF_OPEN — see
#: :meth:`repro.resilience.CircuitBreaker.on_outcome`).
_SIG_FAILURE, _SIG_SUCCESS, _SIG_THROTTLE = 0, 1, 2

#: Sentinel a *feedback* request source (the workflow engine) may yield when
#: it has no request ready right now but more will appear once the engine
#: resolves work it is holding internally (admission-queued tasks, pending
#: retries).  The engine reacts by processing its earliest internal event
#: and pulling again; the source sees the resulting records before the next
#: pull, exactly like the ordinary feedback hand-off.  Never emitted by an
#: uncontrolled replay, where the engine buffers nothing.
REPLENISH = object()


@dataclass(frozen=True)
class FunctionWorkloadSummary:
    """Per-function outcome of a workload replay.

    ``invocations`` counts every request, throttled and dropped ones
    included; ``failures`` counts only *executed* requests that failed.
    ``client_time`` aggregates executed requests only (a 429 or a queue
    drop has no meaningful service latency).  The overload counters are 0
    when the model is disabled.
    """

    function_name: str
    invocations: int
    cold_starts: int
    failures: int
    total_cost_usd: float
    client_time: DistributionSummary | None = None
    #: Requests that resolved as THROTTLED (retry budget exhausted).
    throttled: int = 0
    #: Asynchronous requests dropped from the admission queue.
    dropped: int = 0
    #: Rejected-attempt responses the client saw from requests that ended
    #: throttled or executed: 429s, and fault responses once the fault
    #: plane is active (an executed request's earlier attempts may have
    #: been either).
    throttle_events: int = 0
    #: Retry attempts made by the client (admitted or not).
    retries: int = 0
    #: Admitted asynchronous requests that waited in the admission queue.
    queued: int = 0
    #: Total admission-queue wait of those requests, seconds.
    queue_delay_s: float = 0.0
    #: Requests whose every attempt fell in a fault-plane outage window.
    faulted: int = 0
    #: Requests rejected client-side by an open circuit breaker.
    short_circuited: int = 0
    #: Hedge duplicates sent (each billed alongside its primary).
    hedges: int = 0

    @property
    def cold_start_rate(self) -> float:
        return self.cold_starts / self.invocations if self.invocations else 0.0

    def to_row(self) -> dict:
        row = {
            "function": self.function_name,
            "invocations": self.invocations,
            "cold_starts": self.cold_starts,
            "cold_rate_pct": round(100.0 * self.cold_start_rate, 2),
            "failures": self.failures,
            "cost_usd": round(self.total_cost_usd, 8),
        }
        if self.throttled or self.dropped or self.throttle_events or self.queued:
            row["throttled"] = self.throttled
            row["dropped"] = self.dropped
            row["retries"] = self.retries
            if self.queued:
                row["queue_delay_ms_mean"] = round(
                    1000.0 * self.queue_delay_s / self.queued, 2
                )
        if self.faulted or self.short_circuited or self.hedges:
            row["faulted"] = self.faulted
            row["short_circuited"] = self.short_circuited
            row["hedges"] = self.hedges
        if self.client_time is not None:
            row["client_p50_ms"] = round(self.client_time.median * 1000.0, 2)
            row["client_p95_ms"] = round(self.client_time.percentiles.get(95.0, float("nan")) * 1000.0, 2)
        return row


#: Integer counters of an accumulator row, by position in the row.
_N_COUNTERS = 12
(
    _INVOCATIONS, _COLD_STARTS, _FAILURES, _EXECUTED, _THROTTLED, _DROPPED,
    _THROTTLE_EVENTS, _RETRIES, _QUEUED, _FAULTED, _SHORT_CIRCUITED, _HEDGES,
) = range(_N_COUNTERS)

_COMPLETED_OUTCOME = InvocationOutcome.COMPLETED
_FAILED_OUTCOME = InvocationOutcome.FAILED
_THROTTLED_OUTCOME = InvocationOutcome.THROTTLED
_DROPPED_OUTCOME = InvocationOutcome.DROPPED
_FAULTED_OUTCOME = InvocationOutcome.FAULTED
_SHORT_CIRCUITED_OUTCOME = InvocationOutcome.SHORT_CIRCUITED
_COLD_START = StartType.COLD
_NO_START = StartType.NONE
#: The cost components of an outcome that billed nothing.
_NO_COST = (0.0, 0.0, 0.0, 0.0)

#: Streaming-fold flush threshold: the values buffered for an accumulator
#: row (client times, and in the columnar loop costs) fold into it in
#: batches of this size.  Element order inside a batch is preserved and
#: ``StreamingSummary.add_many`` is bit-identical to per-value adds, so the
#: batching is invisible in the folded state.
_FOLD_BATCH = 8192


def _counter_total(position: int) -> property:
    """A replay total: one integer counter summed over every row."""
    return property(lambda self: sum(row[position] for row in self.counts))


class _ReplayAccumulator:
    """Whole-replay streaming aggregates, one row per function (O(1) per row).

    Rows live in columns indexed by the function's *slot* (first-appearance
    order): ``names``, ``counts`` (one list of the twelve integer counters
    per row, positions ``_INVOCATIONS`` … ``_HEDGES``), the ``cost`` and
    ``queue_delay`` float sums, and the client-time ``samples``.

    A sample is a plain list of client times in ingestion order while it
    holds at most ``DEFAULT_RESERVOIR_CAPACITY`` values; its moments and
    percentiles are computed when summarised
    (:func:`~repro.stats.streaming.summarize_many`).  A row that overflows,
    or whose function is present on both sides of a :meth:`merge`, is promoted
    to a :class:`~repro.stats.streaming.StreamingSummary` that ingests the
    list through ``add_many`` — the state that summary would have had if it
    had ingested every value on arrival.  Under function-disjoint sharding
    no row ever merges, so shards ship plain columns.  :meth:`add` buffers
    a promoted row's client times and folds them ``_FOLD_BATCH`` at a time;
    every reader of the samples flushes the buffers first.

    The replay totals are reduced from the rows once at the end — only the
    span needs whole-replay tracking per record.  Float totals reduce in
    sorted function-name order, so a merge of per-shard accumulators
    (:meth:`merge`) produces byte-identical totals to a serial replay.
    Pickled, the rows travel as flat arrays (see :meth:`__getstate__`).
    """

    def __init__(self) -> None:
        self.first_submitted: float | None = None
        self.last_finished: float | None = None
        self.names: list[str] = []
        self.slots: dict[str, int] = {}
        self.counts: list[list[int]] = []
        self.cost: list[float] = []
        self.queue_delay: list[float] = []
        self.samples: list[list[float] | StreamingSummary] = []
        #: Client times of promoted rows not yet folded, by slot.
        self._unfolded: dict[int, list[float]] = {}

    def slot(self, function_name: str) -> int:
        """``function_name``'s row, appended empty on first use."""
        slot = self.slots.get(function_name)
        if slot is None:
            slot = self.slots[function_name] = len(self.names)
            self.names.append(function_name)
            self.counts.append([0] * _N_COUNTERS)
            self.cost.append(0.0)
            self.queue_delay.append(0.0)
            self.samples.append([])
        return slot

    def _promote(self, slot: int) -> StreamingSummary:
        """Row ``slot``'s sample as a :class:`StreamingSummary`, promoted and flushed."""
        sample = self.samples[slot]
        if type(sample) is list:
            summary = StreamingSummary(key=self.names[slot])
            summary.add_many(sample)
            self.samples[slot] = sample = summary
        else:
            unfolded = self._unfolded.pop(slot, None)
            if unfolded is not None:
                sample.add_many(unfolded)
        return sample

    def _flush(self) -> None:
        """Fold every buffered client time into its promoted row."""
        for slot in list(self._unfolded):
            self._promote(slot)

    def _add_client_times(self, slot: int, values: list[float]) -> None:
        sample = self.samples[slot]
        if type(sample) is list and len(sample) + len(values) <= DEFAULT_RESERVOIR_CAPACITY:
            sample.extend(values)
            return
        self._promote(slot).add_many(values)

    def add(
        self, function_name: str, outcome: InvocationOutcome, success: bool,
        start_type: StartType, submitted_at: float, finished_at: float,
        client_time_s: float, cost_total: float, attempts: int,
        admission_delay_s: float, hedges: int, *_record_only,
    ) -> None:
        """Fold one terminal outcome, given as its record's field values.

        The generator loop's value fold (see :meth:`WorkloadEngine.replay`):
        it calls this with the arguments a record builder takes, whose
        trailing ones (request index, error, cost components, execution)
        only a record needs.  Record mode goes through :meth:`add_record`.
        """
        if self.first_submitted is None or submitted_at < self.first_submitted:
            self.first_submitted = submitted_at
        if self.last_finished is None or finished_at > self.last_finished:
            self.last_finished = finished_at
        slot = self.slots.get(function_name)
        if slot is None:
            slot = self.slot(function_name)
        row = self.counts[slot]
        row[_INVOCATIONS] += 1
        if outcome is not _COMPLETED_OUTCOME and outcome is not _FAILED_OUTCOME:
            # Non-executed terminal outcomes usually cost nothing, but a
            # stale-resubmission saga that exhausted its budget against a
            # 429/outage/breaker rejection still billed the executions the
            # client timed out on — the terminal outcome carries them.
            self.cost[slot] += cost_total
            row[_HEDGES] += hedges
            if outcome is _THROTTLED_OUTCOME:
                # Every attempt of a finally-throttled request got a 429.
                row[_THROTTLED] += 1
                row[_THROTTLE_EVENTS] += attempts
            elif outcome is _DROPPED_OUTCOME:
                row[_DROPPED] += 1
                return
            elif outcome is _FAULTED_OUTCOME:
                row[_FAULTED] += 1
            else:
                row[_SHORT_CIRCUITED] += 1
            row[_RETRIES] += attempts - 1
            return
        row[_EXECUTED] += 1
        row[_HEDGES] += hedges
        if attempts > 1:
            # Executed after backoff: all prior attempts were rejected
            # (429s, or fault responses once the fault plane is active).
            row[_THROTTLE_EVENTS] += attempts - 1
            row[_RETRIES] += attempts - 1
        elif admission_delay_s > 0.0:
            # Single-attempt admission delay = time in the async queue.
            row[_QUEUED] += 1
            self.queue_delay[slot] += admission_delay_s
        if start_type is _COLD_START:
            row[_COLD_STARTS] += 1
        if not success:
            row[_FAILURES] += 1
        self.cost[slot] += cost_total
        sample = self.samples[slot]
        if type(sample) is not list:
            unfolded = self._unfolded.get(slot)
            if unfolded is None:
                self._unfolded[slot] = [client_time_s]
            else:
                unfolded.append(client_time_s)
                if len(unfolded) >= _FOLD_BATCH:
                    del self._unfolded[slot]
                    sample.add_many(unfolded)
        elif len(sample) < DEFAULT_RESERVOIR_CAPACITY:
            sample.append(client_time_s)
        else:
            self._add_client_times(slot, [client_time_s])

    def add_record(self, record: InvocationRecord) -> None:
        """Fold one terminal record through :meth:`add`."""
        self.add(
            record.function_name, record.outcome, record.success, record.start_type,
            record.submitted_at, record.finished_at, record.client_time_s,
            record.cost.total, record.attempts, record.admission_delay_s, record.hedges,
        )

    def add_many(
        self,
        slot: int,
        cold_starts: int,
        failures: int,
        costs: list[float],
        client_times: list[float],
    ) -> None:
        """Fold a batch of executed invocations of row ``slot`` (the columnar loop's sink).

        ``costs`` and ``client_times`` hold one value per invocation in
        stream order; the cost sum runs through them in that order, as
        per-record :meth:`add` calls would.
        """
        row = self.counts[slot]
        row[_INVOCATIONS] += len(costs)
        row[_EXECUTED] += len(costs)
        row[_COLD_STARTS] += cold_starts
        row[_FAILURES] += failures
        total = self.cost[slot]
        for value in costs:
            total += value
        self.cost[slot] = total
        self._add_client_times(slot, client_times)

    def merge(self, other: "_ReplayAccumulator") -> None:
        """Fold a shard's accumulator into this one (sharded replay merge).

        Rows of functions new to this accumulator are appended as they are
        (function-disjoint shards only ever concatenate columns); a
        function present on both sides adds its counters and float sums and
        merges its promoted samples with :meth:`StreamingSummary.merge`.
        """
        self._flush()
        other._flush()
        if other.first_submitted is not None and (
            self.first_submitted is None or other.first_submitted < self.first_submitted
        ):
            self.first_submitted = other.first_submitted
        if other.last_finished is not None and (
            self.last_finished is None or other.last_finished > self.last_finished
        ):
            self.last_finished = other.last_finished
        slots = self.slots
        if slots.keys().isdisjoint(other.names):
            slots.update(zip(other.names, range(len(self.names), len(self.names) + len(other.names))))
            self.names.extend(other.names)
            self.counts.extend(other.counts)
            self.cost.extend(other.cost)
            self.queue_delay.extend(other.queue_delay)
            self.samples.extend(other.samples)
            return
        for theirs, name in enumerate(other.names):
            mine = slots.get(name)
            if mine is None:
                mine = self.slot(name)
                self.counts[mine] = other.counts[theirs]
                self.samples[mine] = other.samples[theirs]
                self.cost[mine] = other.cost[theirs]
                self.queue_delay[mine] = other.queue_delay[theirs]
                continue
            row = self.counts[mine]
            for position, value in enumerate(other.counts[theirs]):
                row[position] += value
            self.cost[mine] += other.cost[theirs]
            self._promote(mine).merge(other._promote(theirs))
            self.queue_delay[mine] += other.queue_delay[theirs]

    def __getstate__(self) -> dict:
        """Flat arrays: a counter matrix, float columns, samples as values plus offsets.

        The counter matrix leaves out the counters that are zero in every
        row (most of them outside controlled replays).  Promoted samples
        (rare: overflowing functions) travel as :class:`StreamingSummary`
        objects keyed by slot; their list entry is empty.  Floats and
        integers round-trip exactly through float64/int64.
        """
        self._flush()
        lists = [sample if type(sample) is list else () for sample in self.samples]
        offsets = np.cumsum([0, *map(len, lists)], dtype=np.int64)
        counts = np.array(self.counts, dtype=np.int64).reshape(-1, _N_COUNTERS)
        used = np.flatnonzero(counts.any(axis=0))
        return {
            "first_submitted": self.first_submitted,
            "last_finished": self.last_finished,
            "names": self.names,
            "counters": used,
            "counts": counts[:, used],
            "cost": np.array(self.cost, dtype=np.float64),
            "queue_delay": np.array(self.queue_delay, dtype=np.float64),
            "values": np.fromiter(
                itertools.chain.from_iterable(lists), np.float64, int(offsets[-1])
            ),
            "offsets": offsets,
            "promoted": {
                slot: sample
                for slot, sample in enumerate(self.samples)
                if type(sample) is not list
            },
        }

    def __setstate__(self, state: dict) -> None:
        self.first_submitted = state["first_submitted"]
        self.last_finished = state["last_finished"]
        self._unfolded = {}
        self.names = names = state["names"]
        self.slots = dict(zip(names, range(len(names))))
        counts = np.zeros((len(names), _N_COUNTERS), dtype=np.int64)
        counts[:, state["counters"]] = state["counts"]
        self.counts = counts.tolist()
        self.cost = state["cost"].tolist()
        self.queue_delay = state["queue_delay"].tolist()
        values = state["values"].tolist()
        offsets = state["offsets"].tolist()
        self.samples = [values[start:end] for start, end in zip(offsets, offsets[1:])]
        for slot, summary in state["promoted"].items():
            self.samples[slot] = summary

    @property
    def span_s(self) -> float:
        if self.first_submitted is None or self.last_finished is None:
            return 0.0
        return self.last_finished - self.first_submitted

    def _ordered(self) -> list[int]:
        """Slots in function-name order (the float reduction order)."""
        return sorted(range(len(self.names)), key=self.names.__getitem__)

    invocations = _counter_total(_INVOCATIONS)
    cold_starts = _counter_total(_COLD_STARTS)
    failures = _counter_total(_FAILURES)
    executed = _counter_total(_EXECUTED)
    throttled = _counter_total(_THROTTLED)
    dropped = _counter_total(_DROPPED)
    throttle_events = _counter_total(_THROTTLE_EVENTS)
    retries = _counter_total(_RETRIES)
    queued = _counter_total(_QUEUED)
    faulted = _counter_total(_FAULTED)
    short_circuited = _counter_total(_SHORT_CIRCUITED)
    hedges = _counter_total(_HEDGES)

    @property
    def total_cost_usd(self) -> float:
        # Sorted-name reduction: the float sum is independent of function
        # first-appearance order, hence identical for serial and merged
        # sharded replays.
        cost = self.cost
        return sum(cost[slot] for slot in self._ordered())

    @property
    def queue_delay_s(self) -> float:
        # Sorted-name reduction, as for costs: exact under sharded merge.
        queue_delay = self.queue_delay
        return sum(queue_delay[slot] for slot in self._ordered())

    def summaries(self) -> dict[str, FunctionWorkloadSummary]:
        """Per-function summaries, with every latency percentile query batched."""
        self._flush()
        ordered = self._ordered()
        counts = self.counts
        executed = [slot for slot in ordered if counts[slot][_EXECUTED]]
        client_times = dict(
            zip(executed, summarize_many([self.samples[slot] for slot in executed]))
        )
        summaries = {}
        for slot in ordered:
            row = counts[slot]
            name = self.names[slot]
            summaries[name] = FunctionWorkloadSummary(
                function_name=name,
                invocations=row[_INVOCATIONS],
                cold_starts=row[_COLD_STARTS],
                failures=row[_FAILURES],
                total_cost_usd=self.cost[slot],
                client_time=client_times.get(slot),
                throttled=row[_THROTTLED],
                dropped=row[_DROPPED],
                throttle_events=row[_THROTTLE_EVENTS],
                retries=row[_RETRIES],
                queued=row[_QUEUED],
                queue_delay_s=self.queue_delay[slot],
                faulted=row[_FAULTED],
                short_circuited=row[_SHORT_CIRCUITED],
                hedges=row[_HEDGES],
            )
        return summaries


def _total(name: str, doc: str) -> property:
    """A :class:`WorkloadResult` aggregate: a read of its accumulated ``name`` field."""
    return property(attrgetter(name), doc=doc)


@dataclass
class WorkloadResult:
    """Everything a workload replay produced.

    Every aggregate is read from the ``*_total`` fields and
    ``streaming_summaries``, which one :class:`_ReplayAccumulator` fills in
    either aggregation mode (:func:`streaming_result`,
    :func:`record_result`).  In record-keeping mode ``records`` also holds
    every record in arrival order, and :meth:`per_function` reports each
    function's exact client-time distribution instead of its reservoir
    estimate.
    """

    provider: Provider
    records: list[InvocationRecord] = field(default_factory=list)
    #: Span of simulated time between first submission and last completion.
    simulated_span_s: float = 0.0
    #: Wall-clock seconds the replay took (simulator throughput measure).
    wall_clock_s: float = 0.0
    #: Largest number of invocations in flight at any instant.
    peak_in_flight: int = 0
    #: Aggregate counters, reduced from the replay accumulator.
    invocation_count: int = 0
    cold_start_total: int = 0
    failure_total: int = 0
    cost_usd_total: float = 0.0
    #: Overload/fault/resilience counters (0 whenever those models are
    #: disabled).  ``executed_total`` is counted independently of the
    #: rejection counters, so ``executed + throttled + dropped + faulted +
    #: short_circuited == invocations`` is a real conservation check, not
    #: an identity.
    executed_total: int = 0
    throttled_total: int = 0
    dropped_total: int = 0
    throttle_event_total: int = 0
    retry_total: int = 0
    queued_total: int = 0
    queue_delay_s_total: float = 0.0
    faulted_total: int = 0
    short_circuited_total: int = 0
    hedge_total: int = 0
    #: Per-function summaries from the replay accumulator, in function-name
    #: order, with reservoir client-time estimates.
    streaming_summaries: dict[str, FunctionWorkloadSummary] | None = None
    #: Supervision diagnostics from a supervised sharded replay
    #: (:class:`repro.parallel.supervisor.SupervisionReport` as a dict):
    #: retries, pool breaks, timeouts, quarantined shards, degradation.
    #: ``None`` for serial and unsupervised runs; deliberately excluded
    #: from ``to_dict()`` so supervised results compare byte-identical.
    supervision: dict | None = None
    #: Windowed simulated-time series (:class:`repro.observe.timeseries
    #: .TimeSeriesBuilder`) when the replay was asked to build one;
    #: excluded from ``to_dict()`` like ``supervision``.
    timeseries: object | None = None
    #: Host-side wall-clock profile (:class:`repro.observe.profile
    #: .ReplayProfile`) when requested; excluded from ``to_dict()``.
    profile: object | None = None

    invocations = _total("invocation_count", "Terminal records: one per request.")
    cold_start_count = _total("cold_start_total", "Executed requests that cold-started.")
    failure_count = _total(
        "failure_total", "Executed requests that failed (throttles/drops counted separately)."
    )
    executed_count = _total(
        "executed_total", "Requests that actually ran (admitted first try, retried or queued)."
    )
    throttled_count = _total(
        "throttled_total", "Requests that resolved as THROTTLED (retry budget exhausted)."
    )
    dropped_count = _total("dropped_total", "Asynchronous requests dropped from the admission queue.")
    faulted_count = _total(
        "faulted_total", "Requests whose every attempt fell in a fault-plane outage window."
    )
    short_circuited_count = _total(
        "short_circuited_total", "Requests rejected client-side by an open circuit breaker."
    )
    hedge_count = _total("hedge_total", "Hedge duplicates sent (each billed alongside its primary).")
    retry_count = _total("retry_total", "Client retry attempts across all requests.")
    queued_count = _total(
        "queued_total", "Admitted requests that waited in the admission queue first."
    )
    queue_delay_s = _total(
        "queue_delay_s_total", "Total admission-queue wait of queued-then-admitted requests."
    )
    total_cost_usd = _total("cost_usd_total", "Total billed cost, USD.")

    @property
    def cold_start_rate(self) -> float:
        invocations = self.invocations
        return self.cold_start_count / invocations if invocations else 0.0

    @property
    def throughput_per_s(self) -> float:
        """Invocations simulated per wall-clock second."""
        if self.wall_clock_s <= 0:
            return 0.0
        return self.invocations / self.wall_clock_s

    def per_function(self) -> dict[str, FunctionWorkloadSummary]:
        """Per-function summaries, in function-name order.

        Counters and costs come from the replay accumulator.  With records
        kept, each client-time distribution is the exact
        :func:`~repro.stats.summary.summarize` of the function's executed
        records (with confidence intervals); otherwise it is the streaming
        reservoir estimate.
        """
        summaries = dict(self.streaming_summaries or {})
        client_times: dict[str, list[float]] = {}
        for record in self.records:
            if record.executed:
                client_times.setdefault(record.function_name, []).append(record.client_time_s)
        for fname, values in client_times.items():
            summaries[fname] = dataclasses.replace(summaries[fname], client_time=summarize(values))
        return summaries

    def to_rows(self) -> list[dict]:
        """Per-function table rows (for :func:`repro.reporting.tables.format_table`)."""
        return [summary.to_row() for summary in self.per_function().values()]

    def summary_row(self) -> dict:
        """One aggregate row describing the whole replay."""
        row = {
            "provider": self.provider.value,
            "invocations": self.invocations,
            "cold_starts": self.cold_start_count,
            "cold_rate_pct": round(100.0 * self.cold_start_rate, 2),
            "failures": self.failure_count,
            "peak_in_flight": self.peak_in_flight,
            "cost_usd": round(self.total_cost_usd, 8),
            "simulated_span_s": round(self.simulated_span_s, 3),
            "throughput_inv_per_s": round(self.throughput_per_s, 1),
        }
        throttled, dropped, retries = self.throttled_count, self.dropped_count, self.retry_count
        if throttled or dropped or retries:
            row["throttled"] = throttled
            row["dropped"] = dropped
            row["retries"] = retries
        faulted, short_circuited, hedges = (
            self.faulted_count, self.short_circuited_count, self.hedge_count,
        )
        if faulted or short_circuited or hedges:
            row["faulted"] = faulted
            row["short_circuited"] = short_circuited
            row["hedges"] = hedges
        return row


def streaming_result(
    provider: Provider,
    accumulator: _ReplayAccumulator,
    wall_clock_s: float,
    peak_in_flight: int,
) -> WorkloadResult:
    """Build a :class:`WorkloadResult` from an accumulator, without records.

    Shared by the serial engine, the sharded-replay merge
    (:mod:`repro.parallel`) and :func:`record_result`, so every path
    reduces the accumulator with the same code — and therefore the same
    float-summation order.
    """
    return WorkloadResult(
        provider=provider,
        records=[],
        simulated_span_s=accumulator.span_s,
        wall_clock_s=wall_clock_s,
        peak_in_flight=peak_in_flight,
        invocation_count=accumulator.invocations,
        cold_start_total=accumulator.cold_starts,
        failure_total=accumulator.failures,
        cost_usd_total=accumulator.total_cost_usd,
        executed_total=accumulator.executed,
        throttled_total=accumulator.throttled,
        dropped_total=accumulator.dropped,
        throttle_event_total=accumulator.throttle_events,
        retry_total=accumulator.retries,
        queued_total=accumulator.queued,
        queue_delay_s_total=accumulator.queue_delay_s,
        faulted_total=accumulator.faulted,
        short_circuited_total=accumulator.short_circuited,
        hedge_total=accumulator.hedges,
        streaming_summaries=accumulator.summaries(),
    )


def record_result(
    provider: Provider,
    records: list[InvocationRecord],
    wall_clock_s: float,
    peak_in_flight: int,
) -> WorkloadResult:
    """Build the record-keeping :class:`WorkloadResult` of ``records``.

    Sorts ``records`` in place by ``request_index`` — throttled and queued
    requests resolve out of arrival order, and serial and sharded record
    lists must agree — then folds them with :meth:`_ReplayAccumulator.add_record`
    in that order and attaches them to the :func:`streaming_result`.
    """
    records.sort(key=attrgetter("request_index"))
    accumulator = _ReplayAccumulator()
    for record in records:
        accumulator.add_record(record)
    result = streaming_result(provider, accumulator, wall_clock_s, peak_in_flight)
    result.records = records
    return result


def _add_costs(left: tuple, right) -> tuple:
    """Two invocations' cost components, summed component by component."""
    return (left[0] + right[0], left[1] + right[1], left[2] + right[2], left[3] + right[3])


def _record_builder(platform: "SimulatedPlatform", append: Callable) -> Callable:
    """The terminal-outcome callable that builds records (:meth:`WorkloadEngine.stream`).

    It takes the arguments of :meth:`_ReplayAccumulator.add` followed by
    ``request_index``, ``error``, the four cost components and ``run`` —
    ``(meta, values, container_id, dispatched_at, admitted_at, output,
    output_bytes)`` of an executed request, ``None`` for one that never
    ran — builds the request's one record from them and passes it to
    ``append``.
    """

    def build(
        function_name, outcome, success, start_type, submitted_at, finished_at,
        client_time_s, cost_total, attempts, admission_delay_s, hedges,
        request_index, error, cost, run,
    ) -> None:
        if run is None:
            # No sandbox, no execution: providers bill nothing, and only a
            # resubmission saga carries the cost of earlier executions.
            function = platform.get_function(function_name)
            benchmark, provider = function.benchmark, platform.provider
            memory_declared_mb = function.config.memory_mb
            container_id, output, output_bytes = "", {}, 0
            # Step values of a request that never ran: nothing measured or
            # billed, and the whole client time is overhead.
            values = (0.0, 0.0, None, client_time_s, 0.0, 0.0, 0.0)
            started_at = admitted_at = finished_at
        else:
            meta, values, container_id, dispatched_at, admitted_at, output, output_bytes = run
            benchmark, provider = meta.benchmark, meta.provider
            memory_declared_mb = meta.memory_declared_mb
            started_at = dispatched_at + values[3]
        append(InvocationRecord(
            function_name=function_name, benchmark=benchmark, provider=provider,
            start_type=start_type, success=success, benchmark_time_s=values[0],
            provider_time_s=values[1], client_time_s=client_time_s,
            invocation_overhead_s=values[3], cold_init_s=values[4],
            memory_declared_mb=memory_declared_mb, memory_used_mb=values[5],
            billed_duration_s=values[6], cost=CostBreakdown(*cost), output_bytes=output_bytes,
            container_id=container_id, submitted_at=submitted_at, started_at=started_at,
            finished_at=finished_at, error=error, output=output, outcome=outcome,
            attempts=attempts, admitted_at=admitted_at, admission_delay_s=admission_delay_s,
            hedges=hedges, request_index=request_index,
        ))

    return build


class WorkloadEngine:
    """Replays invocation streams against one simulated platform."""

    def __init__(self, platform: "SimulatedPlatform"):
        self.platform = platform
        #: Peak concurrency observed by the most recent stream() pass.
        self.last_peak_in_flight = 0
        #: Set while stream() is active: callable returning the
        #: earliest trace-relative time at which buffered internal work
        #: (due retries, completions that would drain an admission queue)
        #: could emit a record.  See :meth:`feedback_horizon`.
        self._horizon_fn = None

    def feedback_horizon(self) -> float | None:
        """Earliest trace-relative instant buffered work could emit a record.

        A *feedback* request source (the workflow engine) must not commit to
        its next event while the engine holds buffered work that could
        resolve records — and thereby schedule new, earlier source events —
        at or before that event's time.  The source compares this horizon
        against its own next event and yields :data:`REPLENISH` instead when
        the buffered work comes first.  ``None`` whenever nothing buffered
        can produce a record (always in an uncontrolled replay, which
        buffers nothing).
        """
        fn = self._horizon_fn
        return fn() if fn is not None else None

    @property
    def _generator_loop(self) -> bool:
        """Whether replays take the generator loop (:meth:`_run`).

        Controlled replays (overload, faults, resilience) and kernel
        execution do; every other replay runs on the columnar loop
        (:mod:`repro.columnar.engine`).
        """
        return self.platform._controlled_replay or self.platform.execute_kernels

    def stream(
        self,
        requests: Iterable[InvocationRequest],
        positions: Iterable[int] | None = None,
    ) -> Iterator[InvocationRecord]:
        """Replay ``requests`` lazily, yielding one record per request.

        Behind ``invoke_stream``, the workflow engine's feedback source,
        observed replays and record-keeping generator-loop replays
        (:meth:`replay`).  A controlled or
        kernel replay runs on the generator loop (:meth:`_run`), every
        other one on the columnar loop, whose rows become records as they
        come; both yield the same records.  Requests must arrive in
        non-decreasing ``submitted_at`` order
        (:class:`~repro.workload.trace.WorkloadTrace` guarantees this).
        Timestamps are relative: request time 0 is the platform clock's
        position when the stream starts.  When the stream is exhausted the
        clock is advanced to the last completion, so a subsequent
        ``warm_container_count`` or ``invoke`` sees the post-workload state.
        On the columnar loop the provider log (``query_logs``) receives the
        stream's entries when the stream ends or is closed.  A direct
        ``invoke`` between two records that moves the clock past the next
        arrival fails that arrival with
        :class:`~repro.exceptions.ConfigurationError`, on either loop.

        ``positions`` overrides the default ``0, 1, 2, ...`` numbering of
        requests (one index per request, in consumption order); each record
        carries its request's number as ``request_index``.  Sharded replay
        passes the indices from the *unsharded* stream so merged records
        sort back into exact arrival order.  With the overload model
        enabled, records are yielded as their requests *resolve* — a
        retried or queued request's record appears after later arrivals
        that resolved first; ``request_index`` recovers arrival order.
        """
        if self._generator_loop:
            out: list[InvocationRecord] = []
            return self._run(requests, positions, _record_builder(self.platform, out.append), out)
        from ..columnar import engine as columnar

        return columnar.replay_records(self, requests, positions)

    def _run(
        self,
        requests: Iterable[InvocationRequest],
        positions: Iterable[int] | None,
        terminal: Callable[..., None],
        out: list[InvocationRecord],
    ) -> Iterator[InvocationRecord]:
        """The generator loop behind every controlled or kernel :meth:`stream` and :meth:`replay`.

        Each request's terminal outcome is computed in full — hedge pair,
        retry and queue delay, staleness, a resubmission saga's carried
        cost — and handed to ``terminal`` once, as field values, in
        resolution order: the arguments of :meth:`_ReplayAccumulator.add`
        followed by what only a record needs (see :func:`_record_builder`).
        ``out`` is the list ``terminal`` fills, if any; the loop yields its
        contents before it pulls the next request, so a feedback source
        sees every resolved record first.  With the accumulator's value
        fold as ``terminal`` nothing is built and nothing is yielded.

        Sandbox occupancy lives in the pools' reservation multisets: each
        dispatched invocation holds one slot until its completion event is
        popped (or, if the stream is abandoned, until the generator is
        closed — outstanding slots are released on the way out).

        Three event sources merge in time order without ever re-sorting the
        heap of scheduled work:

        * **arrivals** from the (already sorted) input stream;
        * **retry attempts** of rejected synchronous requests (throttled,
          or faulted during an outage), pushed onto a feedback heap at
          their backoff deadline — taken before an arrival with the same
          timestamp;
        * **completions**, which free capacity, feed circuit breakers and
          drain the owning function's admission queue at the completion
          instant.

        Completion entries are ``(finish, tie-break, function, container,
        counted, signal)``: ``container`` is empty for container-less
        events (fault/429 responses whose only job is delivering breaker
        evidence), ``counted`` marks entries that represent one logical
        in-flight request (hedge losers do not — the pair is one request),
        and ``signal`` is the verdict to feed the breaker (``None`` when
        no breaker is listening, else a success / failure / throttle
        code).  Heap order never inspects the tail fields: the tie-break
        is unique.

        Every control hangs off a per-function value (``state.throttle``,
        ``state.fault_state``, ``state.breaker``) or a platform value
        (hedge, staleness deadline, client retry policy) that is ``None``
        when the feature is off; every attempt goes through ``handle``,
        which admits and executes one with none of them.  Everything that
        orders a single function's events — its arrivals, its retries, its
        completions, its queue, its breaker and fault schedule — is derived
        from that function's own history, so a controlled replay shards
        exactly like an uncontrolled one.
        """
        platform = self.platform
        observer = platform._observer
        overload = platform._overload
        policy = platform._retry_policy
        hedge = platform._hedge
        stale_after_s = platform._stale_after_s
        client_policy = platform._client_retry_policy
        states = platform._state
        dispatch = platform._dispatch_invocation
        clock = platform.clock
        base = clock.now()
        sequence = itertools.count()
        retry_sequence = itertools.count()
        position_iter = iter(positions) if positions is not None else itertools.count()
        completions: list[tuple[float, int, str, str, bool, int | None]] = []
        #: Feedback heap of retry attempts: (due [trace-relative],
        #: tie-break, request, position, first_submitted, attempts,
        #: carried).  ``carried`` is ``None`` except for stale-resubmission
        #: sagas, where it accumulates the (cost components, hedges) of
        #: executions the client already timed out on.
        retries: list[
            tuple[float, int, InvocationRequest, int, float, int, tuple[tuple, int] | None]
        ] = []
        #: Admission queues of functions with spilled work; a queue is
        #: deleted once drained, so an empty dict means nothing is queued.
        queues: dict[str, AdmissionQueue] = {}
        # In-flight executions per function: the concurrency the invocation
        # model sees.  Scoped per function — not the whole platform — so one
        # function's burst-failure behaviour depends only on its own overlap
        # structure (the invariant sharded replay relies on).
        in_flight_by_fn: dict[str, int] = {}
        #: Logical requests currently executing (counted completion
        #: entries).  Tracked explicitly rather than as ``len(completions)``
        #: because the heap also carries breaker-signal events and hedge
        #: losers, which are not in-flight requests.
        in_flight_total = 0
        last_submitted = 0.0
        last_finish = base
        peak = 0
        self.last_peak_in_flight = 0

        def reject(
            fname: str, outcome: InvocationOutcome, submitted_at: float, finished_at: float,
            attempts: int, admission_delay_s: float, position: int, error: str,
            carried: tuple[tuple, int] | None = None,
        ) -> None:
            """Resolve a request that never executed (429, drop, outage, breaker)."""
            cost, hedges = (_NO_COST, 0) if carried is None else carried
            terminal(
                fname, outcome, False, _NO_START, submitted_at, finished_at,
                finished_at - submitted_at, cost[0] + cost[1] + cost[2] + cost[3],
                attempts, admission_delay_s, hedges, position, error, cost, None,
            )

        def refused(
            request: InvocationRequest, position: int, first_rel: float, attempts: int,
            carried: tuple[tuple, int] | None, now_rel: float, response_s: float,
            delay: float | None, signal: int | None = None,
            outcome: InvocationOutcome | None = None, error: str = "",
        ) -> None:
            """The tail of an attempt the client saw refused at ``now_rel + response_s``.

            ``signal`` is the breaker evidence the response carries, if any,
            delivered at the response instant by a container-less completion
            event.  With a retry ``delay`` the next attempt is due that long
            after the response; without one the request resolves as
            ``outcome``.
            """
            nonlocal last_finish
            fname = request.function_name
            finished_abs = base + now_rel + response_s
            if signal is not None:
                heapq.heappush(completions, (finished_abs, next(sequence), fname, "", False, signal))
            if delay is not None:
                heapq.heappush(
                    retries,
                    (
                        now_rel + response_s + delay, next(retry_sequence), request, position,
                        first_rel, attempts, carried,
                    ),
                )
                return
            if finished_abs > last_finish:
                last_finish = finished_abs
            first_abs = base + first_rel
            reject(
                fname, outcome, first_abs, finished_abs, attempts,
                base + now_rel - first_abs, position, error, carried,
            )

        def execute(
            request: InvocationRequest, state: _FunctionRuntimeState,
            position: int, now_abs: float,
            first_submitted_abs: float, attempts: int,
            carried: tuple[tuple, int] | None = None,
        ) -> None:
            """Dispatch an admitted request at ``now_abs`` and resolve it (controlled path).

            When the response comes back past the client's staleness
            deadline and the client resubmits, the request stays open
            instead: the doomed execution's cost rides along in the retry's
            ``carried`` slot until the saga's terminal outcome bills it.
            """
            nonlocal peak, last_finish, in_flight_total
            fname = request.function_name
            sync = request.trigger not in ASYNC_TRIGGERS
            fault_scale = None
            fault_state = state.fault_state
            if fault_state is not None:
                now_rel = now_abs - base
                crash_evicted = fault_state.apply_crashes(state.pool, now_rel)
                if crash_evicted and observer is not None:
                    observer.on_container_evict(fname, crash_evicted, now_abs, "crash")
                fault_scale = fault_state.multipliers_at(now_rel)
            fn_in_flight = in_flight_by_fn.get(fname, 0)
            lane, start_type, values, container_id, output, output_bytes = dispatch(
                fname, request.payload, request.trigger, request.payload_bytes,
                fn_in_flight + 1, now_abs, fault_scale,
            )
            dispatched_at = now_abs
            finished_at = now_abs + values[2]
            cost = values[7:11]
            hedges = 0
            if hedge is not None and sync and finished_at - now_abs > hedge.delay_s:
                # The primary will still be running when the hedge timer
                # fires: the client sends one duplicate.  First completion
                # wins; the loser still occupies its sandbox to its own
                # finish (the provider cannot un-run it) and both attempts
                # are billed.  The duplicate rides its primary's fault view
                # — crashes and storm multipliers as of the dispatch
                # instant — keeping the pair a single scheduling decision.
                duplicate_at = now_abs + hedge.delay_s
                duplicate = dispatch(
                    fname, request.payload, request.trigger, request.payload_bytes,
                    fn_in_flight + 2, duplicate_at, fault_scale,
                )
                duplicate_finished_at = duplicate_at + duplicate[2][2]
                cost = _add_costs(cost, duplicate[2][7:11])
                hedges = 1
                if duplicate_finished_at < finished_at:
                    loser = (finished_at, container_id)
                    lane, start_type, values, container_id, output, output_bytes = duplicate
                    dispatched_at, finished_at = duplicate_at, duplicate_finished_at
                else:
                    loser = (duplicate_finished_at, duplicate[3])
                # The loser's completion releases its sandbox but is not a
                # logical request (counted=False) and carries no breaker
                # evidence — the client only observes the winning response.
                heapq.heappush(completions, (loser[0], next(sequence), fname, loser[1], False, None))
                if loser[0] > last_finish:
                    last_finish = loser[0]
            submitted_at, client_time_s, admission_delay_s = dispatched_at, values[2], 0.0
            if attempts > 1 or first_submitted_abs != dispatched_at:
                # Retried, queue-delayed or hedge-won-by-duplicate: the
                # client's clock started at the original submission, not at
                # the attempt that produced the winning response.
                submitted_at = first_submitted_abs
                client_time_s = finished_at - first_submitted_abs
                admission_delay_s = now_abs - first_submitted_abs
            error = values[11]
            success = error is None
            stale = (
                stale_after_s is not None
                and sync
                and now_abs - first_submitted_abs > stale_after_s
            )
            if stale and success:
                # Admitted past the client deadline: the work ran and is
                # billed, but nobody was waiting for the answer.
                success, error = False, "stale"
            signal = None
            if state.breaker is not None and sync:
                signal = _SIG_SUCCESS if success else _SIG_FAILURE
            in_flight_by_fn[fname] = fn_in_flight + 1
            in_flight_total += 1
            heapq.heappush(
                completions, (finished_at, next(sequence), fname, container_id, True, signal)
            )
            if in_flight_total > peak:
                peak = in_flight_total
            if finished_at > last_finish:
                last_finish = finished_at
            if carried is not None:
                # A resubmission saga: the executions the client already
                # timed out on are billed with this one.
                cost = _add_costs(cost, carried[0])
                hedges += carried[1]
            if stale and client_policy is not None:
                # The client's per-attempt timeout already fired: from its
                # point of view this attempt failed, so it retries — while
                # the timed-out execution still runs (and bills).  This is
                # the work-amplification anti-pattern behind metastable
                # retry storms: once a saga is past its original deadline,
                # every further execution is doomed to be stale too, so a
                # congested platform burns its whole capacity on worthless
                # work until the retry budgets run out.  A circuit breaker
                # (which counts these stale responses as failures) is the
                # escape hatch.
                delay = client_policy.next_delay(attempts, state.client_retry_stream.resolve())
                if delay is not None:
                    refused(
                        request, position, first_submitted_abs - base, attempts,
                        (cost, hedges), now_abs - base, 0.0, delay,
                    )
                    return
            terminal(
                fname, _COMPLETED_OUTCOME if success else _FAILED_OUTCOME, success, start_type,
                submitted_at, finished_at, client_time_s, cost[0] + cost[1] + cost[2] + cost[3],
                attempts, admission_delay_s, hedges, position, error, cost,
                (lane.meta, values, container_id, dispatched_at, now_abs, output, output_bytes),
            )

        def drain_queue(fname: str, now_abs: float) -> None:
            """Admit (or age-drop) spilled requests of ``fname`` at ``now_abs``."""
            queue = queues.get(fname)
            if queue is None or not len(queue):
                return
            state = states[fname]
            fault_state = state.fault_state
            if fault_state is not None and fault_state.outage_at(now_abs - base) is not None:
                # The function's region is down: spilled work holds in the
                # queue (ageing out as usual) until the outage window ends.
                return
            throttle = state.throttle
            while len(queue):
                if queue.head_expired(now_abs):
                    entry = queue.pop()
                    reject(
                        fname, _DROPPED_OUTCOME, entry.enqueued_at, now_abs, 1,
                        now_abs - entry.enqueued_at, entry.position, "expired",
                    )
                    continue
                if not throttle.try_admit(now_abs, in_flight_by_fn.get(fname, 0)):
                    break
                entry = queue.pop()
                execute(entry.request, state, entry.position, now_abs, entry.enqueued_at, 1)
            if not len(queue):
                # Drop drained queues so the feedback-horizon scan stays
                # O(functions currently spilling), not O(ever spilled).
                del queues[fname]

        def pop_completions(until_abs: float) -> None:
            """Release sandboxes done by ``until_abs``, draining their queues.

            All completions sharing one finish instant are released *before*
            any queue drains at that instant, so an admission triggered by
            the drain sees the post-release concurrency — matching the
            interval reference :meth:`_peak_in_flight`, which orders ``-1``
            events before ``+1`` events at equal times.
            """
            nonlocal in_flight_total
            while completions and completions[0][0] <= until_abs:
                finish = completions[0][0]
                # Built only when some admission queue exists.
                drained_fnames: list[str] | None = None
                while completions and completions[0][0] == finish:
                    _, _, done_fname, container_id, counted, signal = heapq.heappop(
                        completions
                    )
                    if container_id and done_fname in states:
                        states[done_fname].pool.release(container_id)
                    if counted:
                        in_flight_by_fn[done_fname] -= 1
                        in_flight_total -= 1
                    if signal is not None:
                        # Breaker verdicts apply at the instant the client
                        # observes the response — never at dispatch time.
                        done_breaker = states[done_fname].breaker
                        before_state = done_breaker.state
                        done_breaker.on_outcome(
                            finish,
                            signal == _SIG_SUCCESS,
                            throttle=signal == _SIG_THROTTLE,
                        )
                        if observer is not None and done_breaker.state is not before_state:
                            observer.on_breaker_transition(
                                done_fname,
                                finish,
                                before_state.value,
                                done_breaker.state.value,
                            )
                    if queues:
                        queue = queues.get(done_fname)
                        if queue is not None and len(queue):
                            if drained_fnames is None:
                                drained_fnames = [done_fname]
                            elif done_fname not in drained_fnames:
                                drained_fnames.append(done_fname)
                if drained_fnames is not None:
                    for done_fname in drained_fnames:
                        clock.advance_to(finish)
                        drain_queue(done_fname, finish)

        def handle(
            request: InvocationRequest, position: int, now_rel: float,
            first_rel: float, attempts: int, carried: tuple[tuple, int] | None = None,
        ) -> None:
            """Release the completions due by ``now_rel``, then process one
            admission attempt there."""
            now_abs = base + now_rel
            pop_completions(now_abs)
            clock.advance_to(now_abs)
            fname = request.function_name
            state = states.get(fname)
            if state is None:
                state = platform._runtime_state(fname)
            first_abs = base + first_rel
            sync = request.trigger not in ASYNC_TRIGGERS
            breaker = state.breaker
            if breaker is not None and sync:
                before_state = breaker.state
                allowed = breaker.allow(now_abs)
                if observer is not None and breaker.state is not before_state:
                    # allow() is where OPEN -> HALF_OPEN happens; observed
                    # post-decision, nothing about the verdict changes.
                    observer.on_breaker_transition(
                        fname, now_abs, before_state.value, breaker.state.value
                    )
                if not allowed:
                    # The client's breaker rejects locally: the platform
                    # never sees the request, nothing new is billed, and the
                    # breaker learns nothing from its own rejections (only
                    # probe and pass-through outcomes feed the window).
                    reject(
                        fname, _SHORT_CIRCUITED_OUTCOME, first_abs, now_abs, attempts + 1,
                        now_abs - first_abs, position, "breaker-open", carried,
                    )
                    return
            fault_state = state.fault_state
            outage = fault_state.outage_at(now_rel) if fault_state is not None else None
            if outage is not None:
                attempts += 1
                if outage.mode == "hang":
                    # The request holds a client connection until its own
                    # timeout budget expires — no sandbox is occupied.
                    response_s = platform.get_function(fname).config.timeout_s
                else:
                    response_s = platform._throttle_response_s(request.trigger)
                delay = (
                    client_policy.next_delay(attempts, state.client_retry_stream.resolve())
                    if (sync and client_policy is not None)
                    else None
                )
                refused(
                    request, position, first_rel, attempts, carried, now_rel, response_s, delay,
                    _SIG_FAILURE if breaker is not None and sync else None,
                    _FAULTED_OUTCOME, f"outage-{outage.mode}",
                )
                return
            throttle = state.throttle
            # FIFO fairness: spilled work of this function admits first.
            drain_queue(fname, now_abs)
            if throttle is None or throttle.try_admit(
                now_abs, in_flight_by_fn.get(fname, 0)
            ):
                execute(request, state, position, now_abs, first_abs, attempts + 1, carried)
            elif request.trigger in ASYNC_TRIGGERS:
                queue = queues.get(fname)
                if queue is None and overload.admission_queue_depth > 0:
                    queue = queues[fname] = AdmissionQueue(
                        overload.admission_queue_depth, overload.admission_max_age_s
                    )
                # depth 0 disables queueing entirely — never materialise a
                # queue (it would leak: drain-time pruning never sees it).
                if queue is None or not queue.push(QueuedInvocation(now_abs, position, request)):
                    reject(fname, _DROPPED_OUTCOME, now_abs, now_abs, 1, 0.0, position, "queue-full")
            else:
                attempts += 1  # this attempt was 429'd
                # The breaker must see 429s: without them, throttled
                # half-open probes would exhaust the probe budget with no
                # verdict and wedge the breaker in HALF_OPEN.  The throttle
                # code lets it ignore them while CLOSED.
                refused(
                    request, position, first_rel, attempts, carried, now_rel,
                    platform._throttle_response_s(request.trigger),
                    policy.next_delay(attempts, state.retry_stream.resolve()),
                    _SIG_THROTTLE if breaker is not None else None,
                    _THROTTLED_OUTCOME, "throttled",
                )

        def retry() -> None:
            """Process the earliest due retry attempt."""
            now_rel, _, request, position, first_rel, attempts, carried = heapq.heappop(retries)
            handle(request, position, now_rel, first_rel, attempts, carried)

        def advance_internal() -> bool:
            """Process the earliest internal event (a REPLENISH pull).

            Only reached when the source has no request ready: either the
            next completion (with its queue drain) or the next due retry,
            whichever is earlier — completions first on ties, matching the
            ``<=`` pop of the main flow.  Returns False when the engine
            holds no internal work at all.
            """
            next_completion = completions[0][0] if completions else None
            next_retry = base + retries[0][0] if retries else None
            if next_completion is None and next_retry is None:
                return False
            if next_retry is not None and (
                next_completion is None or next_retry < next_completion
            ):
                retry()
            else:
                pop_completions(next_completion)
            return True

        def horizon_rel() -> float | None:
            """Earliest trace-relative time buffered work could emit a record.

            Due retries always can; completions can only when some admission
            queue is non-empty (the earliest completion is a conservative
            bound — it may belong to a queue-less function, costing at most
            an extra replenish round).
            """
            due = retries[0][0] if retries else None
            if completions and queues and any(len(queue) for queue in queues.values()):
                drain_at = completions[0][0] - base
                if due is None or drain_at < due:
                    return drain_at
            return due

        self._horizon_fn = horizon_rel
        try:
            request_iter = iter(requests)
            #: Arrival pulled from the source but not yet processed.
            pending_request: InvocationRequest | None = None
            exhausted = False
            while True:
                # Flush before pulling: the feedback contract guarantees a
                # source sees every resolved record before the next pull.
                if out:
                    yield from out
                    out.clear()
                if pending_request is None and not exhausted:
                    item = next(request_iter, None)
                    if item is None:
                        exhausted = True
                    elif item is REPLENISH:
                        if not advance_internal():
                            raise ConfigurationError(
                                "feedback request source asked the engine to "
                                "replenish, but no internal work is pending"
                            )
                        continue
                    else:
                        pending_request = item
                # A due retry precedes an arrival with the same timestamp:
                # the deterministic, function-independent tie-break.
                if retries and (
                    pending_request is None
                    or retries[0][0] <= pending_request.submitted_at
                ):
                    retry()
                    continue
                if pending_request is None:
                    break
                request = pending_request
                pending_request = None
                now_rel = request.submitted_at
                # Negated so a NaN timestamp fails the check too.
                if not now_rel >= last_submitted:
                    raise ConfigurationError(
                        "workload requests must be sorted by submission time "
                        f"({now_rel:.6f} after {last_submitted:.6f})"
                    )
                last_submitted = now_rel
                handle(request, next(position_iter), now_rel, now_rel, 0)

            # Input exhausted: run the remaining completions to drain the
            # admission queues.  Progress is guaranteed — a completion always
            # pops, and a function with an empty in-flight set always admits
            # its queue head (every throttle allows concurrency 1).
            while completions:
                pop_completions(completions[0][0])
                if out:
                    yield from out
                    out.clear()

            if last_finish > clock.now():
                clock.advance_to(last_finish)
        finally:
            self._horizon_fn = None
            self.last_peak_in_flight = peak
            while completions:
                _, _, done_fname, container_id, _, _ = heapq.heappop(completions)
                if container_id and done_fname in states:
                    states[done_fname].pool.release(container_id)

    def replay(
        self,
        requests: Iterable[InvocationRequest],
        keep_records: bool,
        positions: Iterable[int] | None = None,
        emit: Callable[[InvocationRecord], None] | None = None,
    ):
        """Replay a whole batch of ``requests`` into a fresh sink; return it.

        The loop is the one :meth:`stream` would pick.  The sink is a
        :class:`_ReplayAccumulator` with ``keep_records=False``.  With
        ``keep_records=True`` it is a
        :class:`~repro.columnar.records.ColumnarRecordBlock` when the
        columnar loop ran without ``emit``, else the record list in stream
        order.  ``emit`` receives each terminal record of :meth:`stream` in
        stream order before it reaches the sink; ``positions`` is as for
        :meth:`stream`.
        """
        if emit is not None:
            sink = [] if keep_records else _ReplayAccumulator()
            add = sink.append if keep_records else sink.add_record
            for record in self.stream(requests, positions):
                emit(record)
                add(record)
            return sink
        from ..columnar import engine as columnar

        generator_loop = self._generator_loop
        if keep_records:
            if generator_loop:
                return list(self.stream(requests, positions))
            return columnar.replay_collect(self, requests, positions)
        sink = _ReplayAccumulator()
        if generator_loop:
            # Nobody reads records: the loop folds each terminal outcome
            # from its values, and never yields.
            for _ in self._run(requests, positions, sink.add, []):
                pass
        else:
            columnar.replay_fold(self, requests, sink, positions)
        return sink

    def run(
        self,
        trace: WorkloadTrace | MergedWorkloadTrace | Iterable[InvocationRequest],
        keep_records: bool = True,
        observer=None,
    ) -> WorkloadResult:
        """Replay a whole trace and aggregate the outcome.

        For a :class:`~repro.workload.trace.WorkloadTrace`, every referenced
        function is validated up front, so an unknown name raises
        :class:`~repro.exceptions.FunctionNotFoundError` before any simulated
        time passes.  With ``keep_records=False`` the trace may also be a
        lazy request iterable (validated as it is consumed) and the replay
        aggregates in O(functions) memory.

        ``observer`` is attached to the platform for the replay (container
        lifecycle, crash-eviction and breaker-transition hooks) and receives
        ``on_invocation`` per terminal record in stream order (resolution
        order under the overload model — the record list itself is still
        sorted back to arrival order).
        """
        if isinstance(trace, (WorkloadTrace, MergedWorkloadTrace)):
            for fname in trace.functions():
                self.platform.get_function(fname)
        wall_start = time.perf_counter()
        emit = observer.on_invocation if observer is not None else None
        self.platform._observer = observer
        try:
            sink = self.replay(trace, keep_records, emit=emit)
        finally:
            self.platform._observer = None
        provider, peak = self.platform.provider, self.last_peak_in_flight
        if not keep_records:
            return streaming_result(provider, sink, time.perf_counter() - wall_start, peak)
        records = sink if isinstance(sink, list) else sink.materialize()
        return record_result(provider, records, time.perf_counter() - wall_start, peak)

    @staticmethod
    def _peak_in_flight(records: list[InvocationRecord]) -> int:
        """Maximum overlap of [admitted_at, finished_at) execution intervals.

        Retained as the reference computation: ``run`` tracks the same value
        online from the live completion heap.  Throttled and dropped
        requests never executed, so they carry no interval; a retried or
        queue-delayed request occupies capacity only from its *admitted*
        attempt (``admitted_at == submitted_at`` without overload).
        """
        if not records:
            return 0
        events: list[tuple[float, int]] = []
        for record in records:
            if not record.executed:
                continue
            events.append((record.admitted_at, 1))
            events.append((record.finished_at, -1))
        events.sort()
        peak = current = 0
        for _, delta in events:
            current += delta
            peak = max(peak, current)
        return peak
