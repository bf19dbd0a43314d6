"""The vectorized (columnar) trace-replay hot loop.

One flat loop runs every batch replay
:meth:`~repro.workload.engine.WorkloadEngine.replay` can hand it: no
overload admission, no fault plane, no client resilience, no kernel
execution.  Sandbox acquisition and release, the completion heap, the
provider log and the sinks are inlined against the pool's internal
structures; the invocation itself — draws, reliability gates, delays and
billing — is :func:`repro.simulator.step.invoke_step`, the step the
generator loop (:meth:`~repro.workload.engine.WorkloadEngine.stream`)
calls too.  Everything a record shares with its function — CPU share,
jitter parameters, storage transfer bases, billing constants, reliability
gates — is compiled by the models themselves once per function *class*
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

Three sink modes share the loop:

* **record** — one row per invocation appends to a
  :class:`~repro.columnar.records.ColumnarRecordBlock`; record objects are
  materialised lazily after the loop (``keep_records=True``);
* **fold** — per-lane counters and buffers fold in batches into the rows
  of a :class:`~repro.workload.engine._ReplayAccumulator`
  (:meth:`~repro.workload.engine._ReplayAccumulator.add_many`) without ever
  creating a record (``keep_records=False``);
* **emit** — an attached observer needs the record object and its hooks in
  stream order, so records are built inline and handed to a callback (the
  loop still wins the inlined pool operations).

Provider-log entries are buffered as arrays and materialised into
``state.history`` once, after the loop (bounded by ``log_retention``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable

from ..config import StartType, TriggerType
from ..exceptions import ConfigurationError
from ..faas.billing import CompiledBilling
from ..simulator.compute import CompiledCompute
from ..simulator.containers import Container, ContainerState
from ..simulator.platform_sim import CompiledOverhead, SimulatedPlatform, _LogEntry
from ..simulator.reliability import CompiledReliability
from ..simulator.step import invocation_record, invoke_step, upload_time
from ..workload.engine import _PRUNE_INTERVAL, _ReplayAccumulator
from .records import ColumnarRecordBlock, LaneMeta

_HTTP = TriggerType.HTTP
_COLD = StartType.COLD
_WARM = StartType.WARM
_CS_WARM = ContainerState.WARM
#: ``Container.is_warm`` as a membership test, hoisted for the inlined
#: pool operations (pick / release re-offer).
_LIVE = (ContainerState.WARM, ContainerState.BUSY)

#: Streaming-fold flush threshold: client-time / cost buffers fold into the
#: accumulator row in batches of this size (element order inside a
#: batch is preserved, so the fold is bit-identical to per-record adds).
_FOLD_BATCH = 8192

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
        # pool / container plumbing.  The pick / reserve / finish-serve /
        # release operations are inlined in the loop against the pool's
        # internal structures: ``heap`` (the per-version MRU heap list),
        # ``entry_lua`` and ``in_use`` are never rebound for the pool's
        # lifetime; ``index`` IS rebound by ``prune()`` and is refreshed
        # after every prune interval.
        "pool",
        "heap",
        "entry_lua",
        "in_use",
        "index",
        "cap",
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
        # sink state
        "lane_idx",
        "slot",
        "n_cold",
        "n_fail",
        "cost_buf",
        "client_buf",
    )


def _build_lane(platform, fname: str) -> _Lane:
    """Resolve one function into a lane.

    The columnar loop builds one per function per replay, at the function's
    first appearance; the generator loop builds one per runtime state and
    caches it there (``state.lane``).

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

    lane = _Lane()
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

    pool = state.pool
    lane.pool = pool
    # ``setdefault`` so the lane owns the very list ``_push`` would use; an
    # empty heap entry for the version is what the first push would create.
    lane.heap = pool._mru.setdefault(function.version, [])
    lane.entry_lua = pool._entry_lua
    lane.in_use = pool._in_use
    lane.index = pool._index
    lane.cap = pool.slot_capacity
    lane.in_flight = 0

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
    lane.log = []

    lane.lane_idx = -1
    lane.slot = -1
    lane.n_cold = 0
    lane.n_fail = 0
    lane.cost_buf = []
    lane.client_buf = []
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
    block: ColumnarRecordBlock | None,
    accumulator: _ReplayAccumulator | None,
    emit: Callable | None,
) -> None:
    """The flat columnar loop.  Exactly one sink must be active:

    ``block`` (record mode), ``accumulator`` (fold mode) or ``emit``
    (observer mode, records built inline and passed to the callback).
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
    #: Lanes whose pool saw an eviction since the last prune interval (dict
    #: used as an ordered set).  Pruning only these keeps the interval cost
    #: O(dirty) instead of O(deployed functions) — the difference between
    #: minutes and hours on million-function populations.
    dirty_lanes: dict[_Lane, None] = {}
    swept = False
    completions: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    step = invoke_step
    upload = upload_time
    seq = 0
    last_submitted = 0.0
    last_finish = base
    processed = 0
    peak = 0
    engine.last_peak_in_flight = 0

    record_mode = block is not None
    fold_mode = accumulator is not None
    if record_mode:
        add_row = block.rows.append

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
                # Inlined ContainerPool.release: drop the in-flight count,
                # re-offer the sandbox (push + entry_lua) if it freed up.
                done = heappop(completions)
                done_lane = done[2]
                cid = done[3]
                in_use = done_lane.in_use
                remaining = in_use.get(cid, 0) - 1
                if remaining > 0:
                    in_use[cid] = remaining
                else:
                    in_use.pop(cid, None)
                entry = done_lane.index.get(cid)
                if entry is not None:
                    cont = entry[1]
                    if (
                        cont.state in _LIVE
                        and in_use.get(cid, 0) < done_lane.cap
                        and done_lane.entry_lua.get(cid) != cont.last_used_at
                    ):
                        heappush(done_lane.heap, (-cont.last_used_at, entry[0], cont))
                        done_lane.entry_lua[cid] = cont.last_used_at
                done_lane.in_flight -= 1

            # Monotone by the sort check above: a plain store matches
            # VirtualClock.advance_to without the backwards-motion branch.
            clock._now = now

            fname = request.function_name
            lane = lanes.get(fname)
            if lane is None:
                lane = lanes[fname] = _build_lane(platform, fname)
                if record_mode:
                    lane.lane_idx = block.add_lane(lane.meta)
                elif fold_mode:
                    lane.slot = accumulator.slot(lane.fname)

            # Before acquisition, as in the generator loop: a payload that
            # cannot be encoded fails with no sandbox reserved.
            payload_upload_s = upload(lane, request.payload, request.payload_bytes)
            in_flight = len(completions)

            # ---- sandbox acquisition (scalar: _acquire_container) --------
            if acquire is None:
                evicted = apply_eviction(lane.pool, now)
                if evicted:
                    dirty_lanes[lane] = None
                    if observer is not None:
                        observer.on_container_evict(lane.fname, evicted, now, "policy")
                container = None
                sp_take = lane.sp_take
                if sp_take is None or sp_take() >= lane.sp_p:
                    # Inlined ContainerPool.pick_mru: pop stale heap entries
                    # (superseded, dead or saturated) until a live one
                    # surfaces; consume its entry_lua record.
                    mru = lane.heap
                    entry_lua = lane.entry_lua
                    in_use = lane.in_use
                    cap = lane.cap
                    while mru:
                        top = mru[0]
                        heappop(mru)
                        cand = top[2]
                        cid = cand.container_id
                        if entry_lua.get(cid) != -top[0]:
                            continue
                        if cand.state not in _LIVE or in_use.get(cid, 0) >= cap:
                            entry_lua.pop(cid, None)
                            continue
                        entry_lua.pop(cid, None)
                        container = cand
                        break
                if container is None:
                    cold = True
                    container_id = lane.pool.next_container_id()
                    container = Container(
                        function_name=lane.fname,
                        function_version=lane.version,
                        memory_mb=lane.memory_mb,
                        created_at=now,
                        container_id=container_id,
                    )
                    lane.pool.add(container)
                    if observer is not None:
                        observer.on_container_create(lane.fname, container_id, now)
                else:
                    cold = False
                    container_id = container.container_id
            else:
                # The override may evict internally; conservatively mark the
                # lane dirty (pruning a clean pool is an O(1) no-op).
                container, start_type = acquire(lane.function, states[lane.fname], now)
                dirty_lanes[lane] = None
                cold = start_type is _COLD
                container_id = container.container_id
            # Inlined ContainerPool.reserve.
            in_use = lane.in_use
            in_use[container_id] = in_use.get(container_id, 0) + 1

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
            # Inlined Container.serve + ContainerPool.touch.  The
            # EVICTED guard is provably dead here: the policy ran before
            # this container was picked or created in this very iteration.
            container.invocations += 1
            if finished_at > container.last_used_at:
                container.last_used_at = finished_at
            container.state = _CS_WARM
            if lane.in_use.get(container_id, 0) < lane.cap:
                entry = lane.index.get(container_id)
                if entry is not None:
                    heappush(
                        lane.heap, (-container.last_used_at, entry[0], container)
                    )
                    lane.entry_lua[container_id] = container.last_used_at
            else:
                lane.entry_lua.pop(container_id, None)
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
            if record_mode:
                add_row((lane.lane_idx, request_index, now, cold, container_id, values))
            elif fold_mode:
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
            else:
                emit(
                    invocation_record(
                        lane.meta, _COLD if cold else _WARM, values, container_id,
                        now, request_index, {}, lane.meta.output_bytes,
                    )
                )

            processed += 1
            if processed % _PRUNE_INTERVAL == 0:
                # prune() rebinds pool._index; refresh the lane caches of
                # every pruned pool.  The first interval sweeps every state
                # (clearing any evictions that predate this loop, exactly as
                # the scalar engine's full _prune_pools pass would); after
                # that only lanes evicted-from inside this loop can be dirty.
                if swept:
                    for dirty_lane in dirty_lanes:
                        dirty_lane.pool.prune()
                        dirty_lane.index = dirty_lane.pool._index
                else:
                    swept = True
                    for state in states.values():
                        state.pool.prune()
                    for pruned_lane in lanes.values():
                        pruned_lane.index = pruned_lane.pool._index
                dirty_lanes.clear()

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
    block = ColumnarRecordBlock()
    _replay(engine, requests, positions, block, None, None)
    return block


def replay_fold(engine, requests, accumulator: _ReplayAccumulator, positions=None) -> None:
    """Fold mode: replay straight into a streaming accumulator."""
    _replay(engine, requests, positions, None, accumulator, None)


def replay_emit(engine, requests, emit: Callable, positions=None) -> None:
    """Observer mode: build records inline, hand each to ``emit``."""
    _replay(engine, requests, positions, None, None, emit)
