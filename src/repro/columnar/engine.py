"""The vectorized (columnar) trace-replay hot loop.

One flat loop runs every replay with no overload admission, no fault
plane, no client resilience and no kernel execution — batch replays
(:meth:`~repro.workload.engine.WorkloadEngine.replay`) and record streams
(:meth:`~repro.workload.engine.WorkloadEngine.stream`) alike.  The
completion heap, the provider log, the sinks and the acquisition order
(eviction apply, spurious cold start, pick or create) are inlined; every
pool operation is a :class:`~repro.simulator.containers.ContainerPool`
method, the same calls the generator loop makes.  The invocation itself —
draws, reliability gates, delays and billing — is
:func:`repro.simulator.step.invoke_step`, the step the generator loop
(``WorkloadEngine._run``) calls too.  Everything a record shares with its
function — CPU share, jitter parameters, storage transfer bases, billing
constants, reliability gates — is compiled by the models themselves once
per function *class*
(:class:`~repro.simulator.platform_sim.FunctionClass`, cached on the
platform) and copied into each function's :class:`_Lane` (see
:func:`_build_lane`), which both loops hand to the step.

**Draw-order contract.**  Per invocation the loop consumes the
per-function random streams in the generator loop's order:

1. eviction-policy apply (own per-pool stream, delegated to the policy);
2. spurious cold-start uniform (only when the provider's probability > 0);
3. the step's draws, in the order :mod:`repro.simulator.step` documents
   (compute, reliability, gateway, network).

Every stream but the compute stream is served from the pre-drawn blocks
installed by :func:`repro.columnar.draws.install_draw_blocks`, so records,
streaming summaries, provider logs, pool state and the clock are
bit-identical to the generator loop — the differential tier in
``tests/test_columnar_equivalence.py`` asserts it.

The loop is a generator with two sinks:

* **rows** — it yields one row per invocation, ``(meta, request index,
  submitted_at, cold, container_id, step values)``, where ``meta`` is the
  function's :class:`~repro.columnar.records.LaneMeta`.  Record mode keeps
  the rows in a :class:`~repro.columnar.records.ColumnarRecordBlock`
  (:func:`replay_collect`) and materialises records lazily after the loop;
  :meth:`~repro.workload.engine.WorkloadEngine.stream` maps each row to its
  record as it comes (:func:`replay_records`);
* **fold** — per-lane counters and buffers fold in batches into the rows
  of a :class:`~repro.workload.engine._ReplayAccumulator`
  (:meth:`~repro.workload.engine._ReplayAccumulator.add_many`) without ever
  creating a record; the loop yields nothing (:func:`replay_fold`).

Provider-log entries are buffered as arrays and materialised into
``state.history`` once, when the loop ends or is closed (bounded by
``log_retention``).
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import closing
from typing import Iterable, Iterator

from ..config import StartType, TriggerType
from ..exceptions import ConfigurationError
from ..faas.billing import CompiledBilling
from ..simulator.compute import CompiledCompute
from ..simulator.containers import Container
from ..simulator.platform_sim import CompiledOverhead, SimulatedPlatform, _LogEntry
from ..simulator.reliability import CompiledReliability
from ..simulator.step import invoke_step, upload_time
from ..workload.engine import _FOLD_BATCH, _ReplayAccumulator
from .records import ColumnarRecordBlock, LaneMeta, records_of

_HTTP = TriggerType.HTTP
_COLD = StartType.COLD
_WARM = StartType.WARM

#: Provider-log buffers are trimmed to the retention bound whenever they
#: grow past twice of it, keeping memory O(retention) without trimming on
#: every append.
_HISTORY_SLACK = 2

#: Values a lane's provider-log buffer holds per invocation: provider time,
#: memory used, cost, cold flag, success flag, finish timestamp.
_LOG_FIELDS = 6


#: Lane slots copied from the compiled parts of the function's class.
_CLASS_SLOTS = tuple(
    name
    for part in (CompiledCompute, CompiledReliability, CompiledBilling, CompiledOverhead)
    for name in part._fields
)


class _Lane:
    """Per-function constants and prebound hot-path callables."""

    __slots__ = _CLASS_SLOTS + (
        "fname",
        "version",
        "function",
        "memory_mb",
        "profile",
        "package_mb",
        "timeout_s",
        "peak_memory_mb",
        "runtime_overhead_s",
        # what every record of the function shares (see invocation_record)
        "meta",
        "sp_p",
        # the function's sandbox pool and its in-flight executions
        "pool",
        "in_flight",
        # compute stream (scalar draws)
        "c_lognormal",
        "c_normal",
        # storage-model stream (the compute generator unless the platform
        # attached a dedicated one, e.g. IaaS cloud storage)
        "sto_lognormal",
        "sto_random",
        "cold_init_time",
        # per-function pre-drawn blocks
        "rel_take",
        "gw_block",
        "net_block",
        "sp_take",
        # provider-log buffer: one flat list, ``_LOG_FIELDS`` values per
        # invocation, materialised into ``history`` (the state's deque)
        "history",
        "log",
        # fold-sink state
        "slot",
        "n_cold",
        "n_fail",
        "cost_buf",
        "client_buf",
    )


def _build_lane(platform, fname: str, lane: _Lane | None = None) -> _Lane:
    """Resolve one function into a lane, or recompile ``lane`` in place.

    The columnar loop builds one per function per replay, at the function's
    first appearance, and recompiles it in place when the function changes
    mid-stream; the generator loop builds one per runtime state and caches
    it there (``state.lane``).

    The constants come from the function's compiled class (see
    :class:`~repro.simulator.platform_sim.FunctionClass`), which the
    platform compiles once per class and shares between functions; per
    function only the pool, the stream handles, the buffers and the
    counters are set.
    """
    function = platform.get_function(fname)
    state = platform._state.get(fname)
    if state is None:
        state = platform._runtime_state(fname)
    klass = platform._class_of(function, state)

    if lane is None:
        # A lane recompiled in place keeps its replay state.
        lane = _Lane()
        lane.in_flight = 0
        lane.log = []
        lane.slot = -1
        lane.n_cold = 0
        lane.n_fail = 0
        lane.cost_buf = []
        lane.client_buf = []
    for name, value in zip(
        _CLASS_SLOTS, itertools.chain(klass.compute, klass.reliability, klass.billing, klass.overhead)
    ):
        setattr(lane, name, value)
    lane.fname = function.name
    lane.version = function.version
    lane.function = function
    lane.memory_mb = klass.memory_mb
    lane.profile = klass.profile
    lane.package_mb = klass.package_mb
    lane.timeout_s = klass.timeout_s
    lane.peak_memory_mb = klass.profile.peak_memory_mb
    lane.runtime_overhead_s = platform._runtime_overhead_s
    lane.meta = LaneMeta(
        function.name, function.benchmark, platform.provider, klass.memory_mb, klass.profile.output_bytes
    )
    lane.sp_p = platform._spurious_probability

    lane.pool = state.pool

    # Compute stream: the heterogeneous scalar stream (see module docstring).
    compute = state.compute
    rng = compute._rng
    lane.c_lognormal = rng.lognormal
    lane.c_normal = rng.normal
    storage_rng = compute.storage_model._rng
    lane.sto_lognormal = storage_rng.lognormal
    lane.sto_random = storage_rng.random
    lane.cold_init_time = compute.cold_init_time

    lane.rel_take = state.reliability._rng.take if platform.simulation.enable_failures else None
    lane.gw_block = state.gateway_stream
    network = state.network
    lane.net_block = network._rng if network.profile.jitter_scale_s > 0 else None
    lane.sp_take = state.spurious_stream.take if lane.sp_p > 0 else None

    # Provider-log buffer (materialised into state.history after the loop).
    # The lane holds no reference to its state or platform, so a state that
    # caches its lane (the generator loop's) forms no reference cycle.
    lane.history = state.history
    return lane


def _flush_history(lanes: dict, retention: int | None) -> None:
    """Materialise the buffered provider-log entries into state.history.

    One `_LogEntry` per *retained* invocation, built after the loop — the
    deque (``maxlen=retention``) keeps exactly the entries a scalar replay
    would have kept, in the same order.
    """
    for lane in lanes.values():
        log = lane.log
        start = 0
        if retention is not None and len(log) > retention * _LOG_FIELDS:
            start = len(log) - retention * _LOG_FIELDS
        append = lane.history.append
        fname = lane.fname
        for i in range(start, len(log), _LOG_FIELDS):
            append(
                _LogEntry(
                    fname,
                    log[i],
                    log[i + 1],
                    log[i + 2],
                    _COLD if log[i + 3] else _WARM,
                    log[i + 4],
                    log[i + 5],
                )
            )
        lane.log = []


def _replay(
    engine,
    requests: Iterable,
    positions: Iterable[int] | None,
    accumulator: _ReplayAccumulator | None = None,
) -> Iterator[tuple]:
    """The flat columnar loop: yields one row per invocation, or with an
    ``accumulator`` folds into it and yields nothing.

    Closing the generator early releases every sandbox still reserved and
    flushes the provider log of the requests replayed so far.
    """
    platform = engine.platform
    clock = platform.clock
    base = clock.now()
    retention = platform.simulation.log_retention
    history_cap = None if retention is None else retention * _HISTORY_SLACK * _LOG_FIELDS
    apply_eviction = platform.eviction_policy.apply
    # A platform that overrides sandbox acquisition (IaaS) keeps its own
    # semantics: the loop calls the override per invocation instead of the
    # inlined base path.
    acquire = None
    if type(platform)._acquire_container is not SimulatedPlatform._acquire_container:
        acquire = platform._acquire_container
    observer = platform._observer
    states = platform._state

    position_iter = iter(positions) if positions is not None else itertools.count()

    lanes: dict[str, _Lane] = {}
    completions: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    step = invoke_step
    upload = upload_time
    seq = 0
    last_submitted = 0.0
    last_finish = base
    peak = 0
    engine.last_peak_in_flight = 0

    fold_mode = accumulator is not None
    epoch = platform._class_epoch

    try:
        for request in requests:
            submitted = request.submitted_at
            # Negated so a NaN timestamp fails the check too.
            if not submitted >= last_submitted:
                raise ConfigurationError(
                    "workload requests must be sorted by submission time "
                    f"({submitted:.6f} after {last_submitted:.6f})"
                )
            last_submitted = submitted
            now = base + submitted

            while completions and completions[0][0] <= now:
                done = heappop(completions)
                done_lane = done[2]
                done_lane.pool.release(done[3])
                done_lane.in_flight -= 1

            # VirtualClock.advance_to, inlined: a direct invoke() between two
            # yielded rows may have moved the clock past this arrival.
            if now < clock._now:
                clock.advance_to(now)
            clock._now = now

            fname = request.function_name
            lane = lanes.get(fname)
            if lane is None:
                lane = lanes[fname] = _build_lane(platform, fname)
                if fold_mode:
                    lane.slot = accumulator.slot(lane.fname)

            # Before acquisition, as in the generator loop: a payload that
            # cannot be encoded fails with no sandbox reserved.
            payload_upload_s = upload(lane, request.payload, request.payload_bytes)
            in_flight = len(completions)

            # ---- sandbox acquisition (scalar: _acquire_container) --------
            pool = lane.pool
            if acquire is None:
                evicted = apply_eviction(pool, now)
                if evicted and observer is not None:
                    observer.on_container_evict(lane.fname, evicted, now, "policy")
                container = None
                sp_take = lane.sp_take
                if sp_take is None or sp_take() >= lane.sp_p:
                    container = pool.pick_mru(lane.version)
                cold = container is None
                if cold:
                    container = Container(
                        function_name=lane.fname,
                        function_version=lane.version,
                        memory_mb=lane.memory_mb,
                        created_at=now,
                        container_id=pool.next_container_id(),
                    )
                    pool.add(container)
                    if observer is not None:
                        observer.on_container_create(lane.fname, container.container_id, now)
            else:
                container, start_type = acquire(lane.function, states[lane.fname], now)
                cold = start_type is _COLD
            container_id = container.container_id
            pool.reserve(container_id)

            concurrency = lane.in_flight + 1

            # ---- the invocation itself (repro.simulator.step) -------------
            via_http = request.trigger is _HTTP
            values = step(lane, cold, concurrency, via_http, payload_upload_s, None, None)
            (
                benchmark_time_s, provider_time_s, client_time_s, invocation_overhead_s,
                cold_init_s, memory_used, billed_duration_s,
                request_cost, compute_cost, storage_cost, egress_cost, error,
            ) = values
            success = error is None
            cost_total = request_cost + compute_cost + storage_cost + egress_cost

            # ---- completion bookkeeping ----------------------------------
            finished_at = now + client_time_s
            pool.serve(container, finished_at)
            heappush(completions, (finished_at, seq, lane, container_id))
            seq += 1
            lane.in_flight = concurrency
            if in_flight + 1 > peak:
                peak = in_flight + 1
            if finished_at > last_finish:
                last_finish = finished_at

            # Provider log (materialised after the loop).
            log = lane.log
            log += (provider_time_s, memory_used, cost_total, cold, success, finished_at)
            if history_cap is not None and len(log) > history_cap:
                del log[: len(log) - retention * _LOG_FIELDS]

            request_index = next(position_iter)

            # ---- sink ----------------------------------------------------
            if not fold_mode:
                yield lane.meta, request_index, now, cold, container_id, values
                if platform._class_epoch != epoch:
                    # A function was updated between two rows.
                    epoch = platform._class_epoch
                    for stale in lanes.values():
                        _build_lane(platform, stale.fname, stale)
            else:
                if accumulator.first_submitted is None:
                    accumulator.first_submitted = now
                if cold:
                    lane.n_cold += 1
                if not success:
                    lane.n_fail += 1
                lane.cost_buf.append(cost_total)
                lane.client_buf.append(client_time_s)
                if len(lane.client_buf) >= _FOLD_BATCH:
                    accumulator.add_many(
                        lane.slot, lane.n_cold, lane.n_fail, lane.cost_buf, lane.client_buf
                    )
                    lane.n_cold = lane.n_fail = 0
                    lane.cost_buf = []
                    lane.client_buf = []

        if last_finish > clock.now():
            clock.advance_to(last_finish)
    finally:
        engine.last_peak_in_flight = peak
        while completions:
            done = heappop(completions)
            done[2].pool.release(done[3])
        if fold_mode:
            for lane in lanes.values():
                if lane.client_buf:
                    accumulator.add_many(
                        lane.slot, lane.n_cold, lane.n_fail, lane.cost_buf, lane.client_buf
                    )
            if lanes:
                accumulator.last_finished = last_finish
        _flush_history(lanes, retention)


def replay_collect(engine, requests, positions=None) -> ColumnarRecordBlock:
    """Record mode: replay into a columnar block (no record objects yet)."""
    return ColumnarRecordBlock(list(_replay(engine, requests, positions)))


def replay_records(engine, requests, positions=None) -> Iterator:
    """Each row as its record, as the loop yields it (:meth:`WorkloadEngine.stream`).

    Closing the iterator closes the loop.
    """
    rows = _replay(engine, requests, positions)
    with closing(rows):
        yield from records_of(rows)


def replay_fold(engine, requests, accumulator: _ReplayAccumulator, positions=None) -> None:
    """Fold mode: replay straight into a streaming accumulator."""
    for _ in _replay(engine, requests, positions, accumulator):
        pass
