"""Deterministic merging of shard outcomes into replay results.

**Record mode** (``keep_records=True``): every record carries its global
stream index as ``request_index``; the merge hands the shards' records to
:func:`~repro.workload.engine.record_result`, which sorts by that index —
restoring the exact serial arrival order — and folds them exactly as a
serial replay does.  Because shards are function-disjoint and all
simulator state is per-function, each record's *content* is bit-identical
to its serial counterpart, so the merged record list — and every
aggregate folded from it — equals a serial replay's byte for byte.  The
global concurrency peak is recomputed exactly from the merged records'
interval overlap.

**Streaming mode** (``keep_records=False``): shards return their
accumulators, which merge in shard-index order:

* invocation/cold-start/failure counts, cost sums, span bounds and
  per-function min/max — **exact** (integer sums, float min/max, and the
  sorted-function-name float reduction shared with the serial engine);
* the overload counters (throttles, drops, throttle events, retries,
  queued count and queue-delay sums, :mod:`repro.concurrency`) — **exact**:
  integers sum, and the queue-delay float total reduces in sorted
  function-name order exactly like the cost total;
* the fault/resilience counters (faulted, breaker short-circuits and
  hedge totals, :mod:`repro.faults` / :mod:`repro.resilience`) —
  **exact**: all three are per-function integer sums, and breaker state
  itself is a pure function of each function's own outcome stream, so
  shards reproduce serial trip/recovery points identically;
* per-function mean/variance — exact under per-function sharding (one
  shard owns the whole function stream); within float associativity if a
  caller ever splits one function across shards;
* per-function percentiles — byte-identical reservoir state under
  per-function sharding, merged-reservoir estimates otherwise;
* ``peak_in_flight`` — max over shards: a lower bound on the global peak
  (cross-shard overlap is not recoverable from accumulators), documented
  as approximate.  Trace *record* mode recomputes the exact peak from the
  merged records' intervals; workflow results carry no constituent
  intervals, so workflow merges report the shard max in both modes;
* ``wall_clock_s`` — the parallel run's own measurement (it is a
  throughput figure, not a simulation output).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..columnar.records import ColumnarRecordBlock
from ..config import Provider
from ..faas.invocation import InvocationRecord
from ..workload.engine import (
    WorkloadEngine,
    WorkloadResult,
    _ReplayAccumulator,
    record_result,
    streaming_result,
)
from ..workflows.engine import (
    WorkflowReplayResult,
    WorkflowResult,
    _WorkflowAccumulator,
    build_replay_result,
)


@dataclass
class TraceShardOutcome:
    """What one trace shard replay produced (picklable)."""

    shard_index: int
    #: Exactly what :meth:`~repro.workload.engine.WorkloadEngine.replay`
    #: returned: the record list or a
    #: :class:`~repro.columnar.records.ColumnarRecordBlock` in record mode
    #: (records and rows carry their global ``request_index``; a block's
    #: rows, each with its function's ``LaneMeta``, are materialised by
    #: the parent after the merge), the
    #: :class:`~repro.workload.engine._ReplayAccumulator` in streaming mode.
    sink: list[InvocationRecord] | ColumnarRecordBlock | _ReplayAccumulator
    peak_in_flight: int
    #: Shard-local :class:`~repro.observe.timeseries.TimeSeriesBuilder`
    #: when a simulated-time series was requested, else ``None``.
    timeseries: object | None = None


@dataclass
class WorkflowShardOutcome:
    """What one workflow shard replay produced (picklable)."""

    shard_index: int
    accumulators: dict[str, _WorkflowAccumulator]
    #: Per-execution results in record mode (any order; indices are global).
    executions: list[WorkflowResult]
    first_submitted: float | None
    last_finished: float | None
    peak_in_flight: int
    #: Shard-local time-series builder (see ``TraceShardOutcome``).
    timeseries: object | None = None


def merge_trace_outcomes(
    provider: Provider,
    outcomes: list[TraceShardOutcome],
    keep_records: bool,
    wall_clock_s: float,
) -> WorkloadResult:
    """Merge trace shard outcomes into one :class:`WorkloadResult`."""
    outcomes = sorted(outcomes, key=lambda outcome: outcome.shard_index)
    if keep_records:
        records: list[InvocationRecord] = []
        for outcome in outcomes:
            sink = outcome.sink
            records.extend(sink if isinstance(sink, list) else sink.materialize())
        peak = WorkloadEngine._peak_in_flight(records)
        return record_result(provider, records, wall_clock_s=wall_clock_s, peak_in_flight=peak)
    merged = _ReplayAccumulator()
    peak = 0
    for outcome in outcomes:
        merged.merge(outcome.sink)
        if outcome.peak_in_flight > peak:
            peak = outcome.peak_in_flight
    return streaming_result(provider, merged, wall_clock_s=wall_clock_s, peak_in_flight=peak)


def merge_workflow_outcomes(
    provider: Provider,
    outcomes: list[WorkflowShardOutcome],
    keep_records: bool,
    wall_clock_s: float,
) -> WorkflowReplayResult:
    """Merge workflow shard outcomes into one :class:`WorkflowReplayResult`."""
    outcomes = sorted(outcomes, key=lambda outcome: outcome.shard_index)
    accumulators: dict[str, _WorkflowAccumulator] = {}
    executions: list[WorkflowResult] = []
    first_submitted: float | None = None
    last_finished: float | None = None
    peak = 0
    for outcome in outcomes:
        for name, accumulator in outcome.accumulators.items():
            mine = accumulators.get(name)
            if mine is None:
                accumulators[name] = accumulator
            else:
                mine.merge(accumulator)
        if keep_records:
            executions.extend(outcome.executions)
        if outcome.first_submitted is not None and (
            first_submitted is None or outcome.first_submitted < first_submitted
        ):
            first_submitted = outcome.first_submitted
        if outcome.last_finished is not None and (
            last_finished is None or outcome.last_finished > last_finished
        ):
            last_finished = outcome.last_finished
        if outcome.peak_in_flight > peak:
            peak = outcome.peak_in_flight
    executions.sort(key=lambda result: result.execution_index)
    span = 0.0
    if first_submitted is not None and last_finished is not None:
        span = last_finished - first_submitted
    return build_replay_result(
        provider,
        accumulators,
        executions=executions,
        simulated_span_s=span,
        wall_clock_s=wall_clock_s,
        peak_in_flight=peak,
    )
