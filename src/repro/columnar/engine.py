"""The vectorized (columnar) trace-replay hot loop.

One flat loop replaces the scalar call stack
(``WorkloadEngine.stream`` → ``_simulate_invocation`` →
``_simulate_reserved_invocation`` → compute / reliability / billing /
network models) for every batch replay
:meth:`~repro.workload.engine.WorkloadEngine.replay` can hand it: no
overload admission, no fault plane, no client resilience, no kernel
execution.  Everything a record
shares with its function — CPU share, jitter parameters, storage transfer
bases, billing constants, reliability gates — is compiled by the models
themselves once per function *class*
(:class:`~repro.simulator.platform_sim.FunctionClass`, cached on the
platform and read by the generator loop too) and copied into each
function's :class:`_Lane` (see :func:`_build_lane`); per invocation only
the data-dependent draws and float arithmetic remain.

**Draw-order contract.**  The loop consumes the per-function random
streams in exactly the scalar order:

1. eviction-policy apply (own per-pool stream, delegated to the policy);
2. spurious cold-start uniform (only when the provider's probability > 0);
3. compute stream — jitter lognormal, contention uniform, per-transfer
   storage lognormals (one ``size=k`` draw, see
   :func:`~repro.simulator.compute.storage_burst_time`),
   cold-init draws (delegated to
   :meth:`~repro.simulator.compute.ComputeModel.cold_init_time` — the cold
   path is rare and data-dependent), memory normal;
4. reliability stream — sporadic-OOM uniform (GCP, borderline lanes only),
   availability uniform (GCP/Azure at concurrency ≥ 10);
5. gateway lognormal;
6. network exponentials (request, then response).

Streams 2, 4, 5 and 6 are served from the pre-drawn blocks installed by
:func:`repro.columnar.draws.install_draw_blocks`; stream 3 is heterogeneous
and stays scalar (see :mod:`repro.columnar.draws`).  Every float operation
is replicated in the scalar path's evaluation order, so records, streaming
summaries, provider logs, pool state and the clock are bit-identical — the
differential tier in ``tests/test_columnar_equivalence.py`` asserts it.

Three sink modes share the loop:

* **record** — per-invocation variables append to a
  :class:`~repro.columnar.records.ColumnarRecordBlock`; record objects are
  materialised lazily after the loop (``keep_records=True``);
* **fold** — per-lane counters and buffers fold in batches into the rows
  of a :class:`~repro.workload.engine._ReplayAccumulator`
  (:meth:`~repro.workload.engine._ReplayAccumulator.add_many`) without ever
  creating a record (``keep_records=False``);
* **emit** — an attached observer needs the record object and its hooks in
  stream order, so records are built inline and handed to a callback (the
  loop still wins the blocked draws and the inlined arithmetic).

Provider-log entries are buffered as arrays and materialised into
``state.history`` once, after the loop (bounded by ``log_retention``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable

from ..config import InvocationOutcome, StartType, TriggerType
from ..exceptions import ConfigurationError
from ..faas.billing import CompiledBilling, CostBreakdown
from ..faas.invocation import InvocationRecord, payload_wire_bytes
from ..simulator.compute import CompiledCompute, storage_burst_time
from ..simulator.containers import Container, ContainerState
from ..simulator.platform_sim import CompiledOverhead, SimulatedPlatform, _LogEntry
from ..simulator.reliability import CompiledReliability
from ..utils.units import round_up
from ..workload.engine import _PRUNE_INTERVAL, _ReplayAccumulator
from .records import ColumnarRecordBlock, LaneMeta

_HTTP = TriggerType.HTTP
_COLD = StartType.COLD
_WARM = StartType.WARM
_COMPLETED = InvocationOutcome.COMPLETED
_FAILED = InvocationOutcome.FAILED
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
        "benchmark",
        "memory_mb",
        "profile",
        "package_mb",
        "timeout_s",
        "peak_memory_mb",
        # Overridden sandbox acquisition (IaaS's always-warm VM); ``None``
        # selects the inlined base-platform path.
        "acquire",
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
        # compute stream (scalar draws, inlined arithmetic)
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
        # invocation
        "state",
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
    """Resolve one function into a lane (first appearance).

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
    lane.benchmark = function.benchmark
    lane.memory_mb = klass.memory_mb
    lane.profile = klass.profile
    lane.package_mb = klass.package_mb
    lane.timeout_s = klass.timeout_s
    lane.peak_memory_mb = klass.profile.peak_memory_mb
    # A platform that overrides sandbox acquisition (IaaS) keeps its own
    # semantics: the loop calls the override per invocation instead of the
    # inlined base path.
    if type(platform)._acquire_container is SimulatedPlatform._acquire_container:
        lane.acquire = None
    else:
        lane.acquire = platform._acquire_container
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
    lane.state = state
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
        append = lane.state.history.append
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
    provider = platform.provider
    apply_eviction = platform.eviction_policy.apply
    observer = platform._observer
    runtime_overhead_s = platform._runtime_overhead_s
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
    isclose = math.isclose
    ceil = math.ceil
    seq = 0
    last_submitted = 0.0
    last_finish = base
    processed = 0
    peak = 0
    engine.last_peak_in_flight = 0

    record_mode = block is not None
    fold_mode = accumulator is not None
    if record_mode:
        a_lane = block.lane.append
        a_reqidx = block.request_index.append
        a_sub = block.submitted_at.append
        a_cold = block.cold.append
        a_success = block.success.append
        a_error = block.error.append
        a_bt = block.benchmark_time_s.append
        a_pt = block.provider_time_s.append
        a_ct = block.client_time_s.append
        a_ov = block.invocation_overhead_s.append
        a_ci = block.cold_init_s.append
        a_mu = block.memory_used_mb.append
        a_bd = block.billed_duration_s.append
        a_cc = block.compute_cost.append
        a_http = block.via_http.append
        a_cid = block.container_id.append
        a_fin = block.finished_at.append

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
                    lane.lane_idx = block.add_lane(
                        LaneMeta(
                            function_name=lane.fname,
                            benchmark=lane.benchmark,
                            provider=provider,
                            memory_declared_mb=lane.memory_mb,
                            output_bytes=lane.profile.output_bytes,
                            statics=lane.statics,
                        )
                    )
                elif fold_mode:
                    lane.slot = accumulator.slot(lane.fname)

            in_flight = len(completions)

            # ---- sandbox acquisition (scalar: _acquire_container) --------
            if lane.acquire is None:
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
                container, start_type = lane.acquire(lane.function, lane.state, now)
                dirty_lanes[lane] = None
                cold = start_type is _COLD
                container_id = container.container_id
            # Inlined ContainerPool.reserve.
            in_use = lane.in_use
            in_use[container_id] = in_use.get(container_id, 0) + 1

            concurrency = lane.in_flight + 1

            # ---- compute sample (scalar: ComputeModel.execute) -----------
            jit = lane.jit_conc if concurrency > 1 else lane.jit_solo
            if jit is None:
                compute_t = lane.compute_base
            else:
                compute_t = lane.compute_base * float(lane.c_lognormal(jit[0], jit[1]))
            contention = lane.sto_random() < lane.contention_p
            storage_t = storage_burst_time(lane, lane.sto_lognormal, contention) if lane.storage_bases else 0.0
            benchmark_time = compute_t + storage_t
            if cold:
                cold_init_s = lane.cold_init_time(lane.profile, lane.memory_mb, lane.package_mb)
            else:
                cold_init_s = 0.0
            memory_used = float(
                max(1.0, lane.peak_memory_mb * max(0.85, lane.c_normal(loc=1.0, scale=0.03)))
            )

            # ---- reliability check (scalar: the reliability model's failure)
            error = None
            if memory_used > lane.oom_limit_mb:
                error = "out-of-memory"
            elif lane.sporadic_oom_p and lane.rel_take() < lane.sporadic_oom_p:
                error = "out-of-memory"
            else:
                burst = lane.burst_p
                if burst is not None and concurrency >= 10:
                    if lane.rel_take() < (burst[1] if concurrency >= 50 else burst[0]):
                        error = "unavailable"

            # ---- gateway / payload / network (scalar: reserved-invocation)
            via_http = request.trigger is _HTTP
            # Inlined LognormalBlock.take (gateway stream).
            gw = lane.gw_block
            gi = gw._i
            gv = gw._values
            if gi == len(gv):
                gv = gw.refill()
                gi = 0
            gw._i = gi + 1
            gateway = (lane.http_base if via_http else lane.sdk_base) * gv[gi]
            payload_bytes = request.payload_bytes
            if payload_bytes is not None:
                payload_upload_s = payload_bytes / lane.payload_denom
            elif request.payload:
                payload_upload_s = payload_wire_bytes(request.payload) / lane.payload_denom
            else:
                payload_upload_s = lane.empty_upload
            nb = lane.net_block
            if nb is not None:
                # Inlined ExponentialBlock.take ×2 (request, then response).
                ni = nb._i
                nv = nb._values
                if ni == len(nv):
                    nv = nb.refill()
                    ni = 0
                request_network_s = lane.req_base + nv[ni]
                ni += 1
                if ni == len(nv):
                    nv = nb.refill()
                    ni = 0
                response_network_s = lane.resp_base + nv[ni]
                nb._i = ni + 1
            else:
                request_network_s = lane.req_base + 0.0
                response_network_s = lane.resp_base + 0.0

            invocation_overhead_s = request_network_s + gateway + payload_upload_s + cold_init_s

            if error is not None:
                benchmark_time_s = 0.0
                provider_time_s = runtime_overhead_s
                success = False
            else:
                benchmark_time_s = benchmark_time
                provider_time_s = benchmark_time_s + runtime_overhead_s
                success = True

            client_time_s = (
                invocation_overhead_s
                + provider_time_s
                + lane.response_download_s
                + response_network_s
            )

            if success and provider_time_s > lane.timeout_s:
                success = False
                error = "timeout"
                provider_time_s = lane.timeout_s
                client_time_s = invocation_overhead_s + provider_time_s + response_network_s

            # ---- billing (scalar: CompiledBilling) ------------------------
            # Inlined round_up(max(provider_time_s, min_billed), granularity):
            # snap to the nearest multiple when within float tolerance, else
            # round up — op-for-op repro.utils.units.round_up.
            v = provider_time_s if provider_time_s > lane.min_billed else lane.min_billed
            q = v / lane.granularity
            nearest = round(q)
            if isclose(q, nearest, rel_tol=1e-12, abs_tol=1e-12):
                snapped = nearest * lane.granularity
                if snapped >= v - 1e-9:
                    billed_duration_s = snapped
                else:
                    billed_duration_s = ceil(q) * lane.granularity
            else:
                billed_duration_s = ceil(q) * lane.granularity
            if lane.is_vm:
                compute_cost = provider_time_s / 3600.0 * lane.vm_price
            elif lane.bills_avg:
                measured = max(memory_used, 1.0) + lane.mem_overhead
                compute_cost = (
                    billed_duration_s
                    * (round_up(measured, lane.mem_gran) / 1024.0)
                    * lane.gb_price
                )
            else:
                compute_cost = billed_duration_s * lane.mem_gb_const * lane.gb_price
            request_cost, storage_cost, egress_cost = lane.statics[(via_http, success)]
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
                a_lane(lane.lane_idx)
                a_reqidx(request_index)
                a_sub(now)
                a_cold(cold)
                a_success(success)
                a_error(error)
                a_bt(benchmark_time_s)
                a_pt(provider_time_s)
                a_ct(client_time_s)
                a_ov(invocation_overhead_s)
                a_ci(cold_init_s)
                a_mu(memory_used)
                a_bd(billed_duration_s)
                a_cc(compute_cost)
                a_http(via_http)
                a_cid(container_id)
                a_fin(finished_at)
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
                    InvocationRecord(
                        function_name=lane.fname,
                        benchmark=lane.benchmark,
                        provider=provider,
                        start_type=_COLD if cold else _WARM,
                        success=success,
                        benchmark_time_s=benchmark_time_s,
                        provider_time_s=provider_time_s,
                        client_time_s=client_time_s,
                        invocation_overhead_s=invocation_overhead_s,
                        cold_init_s=cold_init_s,
                        memory_declared_mb=lane.memory_mb,
                        memory_used_mb=memory_used,
                        billed_duration_s=billed_duration_s,
                        cost=CostBreakdown(
                            request_cost=request_cost,
                            compute_cost=compute_cost,
                            storage_cost=storage_cost,
                            egress_cost=egress_cost,
                        ),
                        output_bytes=lane.profile.output_bytes,
                        container_id=container_id,
                        submitted_at=now,
                        started_at=now + invocation_overhead_s,
                        finished_at=finished_at,
                        error=error,
                        outcome=_COMPLETED if success else _FAILED,
                        admitted_at=now,
                        request_index=request_index,
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
