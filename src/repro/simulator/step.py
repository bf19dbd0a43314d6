"""The per-invocation model: one step shared by both replay loops.

Given a function's lane (its compiled class constants and prebound stream
handles, see :func:`repro.columnar.engine._build_lane`) and the sandbox
decision already made, :func:`invoke_step` samples and prices one
invocation.  The generator loop
(:meth:`~repro.simulator.platform_sim.SimulatedPlatform._simulate_invocation`)
and the columnar loop (:mod:`repro.columnar.engine`) both call it; they
differ only in how they schedule invocations and where the values go.
Every record built from the values — by the generator loop, by the
columnar loop's observer mode and by
:meth:`~repro.columnar.records.ColumnarRecordBlock.materialize` — comes
from :func:`invocation_record`.

**Draw order.**  The step consumes the function's streams in this order:

1. compute stream — jitter lognormal, then the storage stream's contention
   uniform and transfer lognormals (the storage stream is the compute
   generator unless the platform attached its own), the cold-init draws
   (:meth:`~repro.simulator.compute.ComputeModel.cold_init_time`), the
   memory normal;
2. reliability stream — sporadic-OOM uniform (borderline GCP classes only),
   availability uniform (GCP/Azure at concurrency >= 10);
3. gateway lognormal;
4. network exponentials (request, then response).

Streams 2-4 are the pre-drawn blocks of :mod:`repro.columnar.draws`, read
with ``take`` inlined.  A latency storm scales the drawn values afterwards,
so it never changes how many values are drawn.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from ..config import InvocationOutcome, StartType
from ..faas.billing import CostBreakdown
from ..faas.invocation import InvocationRecord, payload_wire_bytes
from ..utils.units import round_up
from .compute import storage_burst_time

_isclose = math.isclose
_ceil = math.ceil
_COMPLETED = InvocationOutcome.COMPLETED
_FAILED = InvocationOutcome.FAILED


def upload_time(lane, payload: Mapping[str, Any] | None, payload_bytes: int | None) -> float:
    """Upload time of a request's payload: ``payload_bytes`` if given, else
    the UTF-8 size of its JSON encoding."""
    if payload_bytes is not None:
        return payload_bytes / lane.payload_denom
    if payload:
        return payload_wire_bytes(payload) / lane.payload_denom
    return lane.empty_upload


def invoke_step(
    lane, cold: bool, concurrency: int, via_http: bool, payload_upload_s: float,
    fault_scale: tuple[float, float] | None, kernel: Callable[[], tuple[float, dict]] | None,
) -> tuple:
    """Sample and price one invocation on ``lane``'s function.

    ``concurrency`` counts this invocation among the function's in-flight
    ones; ``fault_scale`` is the active storm's ``(compute, network)``
    multiplier pair or ``None``.  ``kernel`` (kernel mode only) runs the
    real benchmark once the reliability gates passed and returns the
    ``(response_download_s, statics)`` of its actual output.

    Returns ``(benchmark_time_s, provider_time_s, client_time_s,
    invocation_overhead_s, cold_init_s, memory_used_mb, billed_duration_s,
    request_cost, compute_cost, storage_cost, egress_cost, error)``; the
    invocation succeeded iff ``error`` is ``None``.
    """
    jit = lane.jit_conc if concurrency > 1 else lane.jit_solo
    if jit is None:
        compute_t = lane.compute_base
    else:
        compute_t = lane.compute_base * lane.c_lognormal(jit[0], jit[1])
    contention = lane.sto_random() < lane.contention_p
    storage_t = storage_burst_time(lane, lane.sto_lognormal, contention) if lane.storage_bases else 0.0
    benchmark_time = compute_t + storage_t
    cold_init_s = lane.cold_init_time(lane.profile, lane.memory_mb, lane.package_mb) if cold else 0.0
    # max(1.0, peak * max(0.85, noise)), spelling max(a, x) as x if x > a
    # else a (the same value, without two builtin calls).
    noise = lane.c_normal(loc=1.0, scale=0.03)
    memory_used = lane.peak_memory_mb * (noise if noise > 0.85 else 0.85)
    if not memory_used > 1.0:
        memory_used = 1.0

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

    response_download_s = lane.response_download_s
    statics = lane.statics
    if kernel is not None and error is None:
        response_download_s, statics = kernel()

    gw = lane.gw_block
    gi = gw._i
    gv = gw._values
    if gi == len(gv):
        gv = gw.refill()
        gi = 0
    gw._i = gi + 1
    gateway = (lane.http_base if via_http else lane.sdk_base) * gv[gi]
    nb = lane.net_block
    if nb is not None:
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

    if fault_scale is not None:
        # Compute work and sandbox init scale by the compute multiplier,
        # every wire segment by the network multiplier.
        compute_scale, network_scale = fault_scale
        benchmark_time *= compute_scale
        cold_init_s *= compute_scale
        gateway *= network_scale
        payload_upload_s *= network_scale
        response_download_s *= network_scale
        request_network_s *= network_scale
        response_network_s *= network_scale

    # Overhead between submitting the request and the function starting.
    invocation_overhead_s = request_network_s + gateway + payload_upload_s + cold_init_s
    if error is not None:
        benchmark_time_s = 0.0
        provider_time_s = lane.runtime_overhead_s
    else:
        benchmark_time_s = benchmark_time
        provider_time_s = benchmark_time_s + lane.runtime_overhead_s
    client_time_s = invocation_overhead_s + provider_time_s + response_download_s + response_network_s
    if error is None and provider_time_s > lane.timeout_s:
        error = "timeout"
        provider_time_s = lane.timeout_s
        client_time_s = invocation_overhead_s + provider_time_s + response_network_s

    # round_up(max(provider_time_s, min_billed), granularity), op for op,
    # then CompiledBilling.compute_cost.
    v = provider_time_s if provider_time_s > lane.min_billed else lane.min_billed
    granularity = lane.granularity
    q = v / granularity
    nearest = round(q)
    if _isclose(q, nearest, rel_tol=1e-12, abs_tol=1e-12) and nearest * granularity >= v - 1e-9:
        billed_duration_s = nearest * granularity
    else:
        billed_duration_s = _ceil(q) * granularity
    if lane.is_vm:
        compute_cost = provider_time_s / 3600.0 * lane.vm_price
    elif lane.bills_avg:
        measured = max(memory_used, 1.0) + lane.mem_overhead
        compute_cost = billed_duration_s * (round_up(measured, lane.mem_gran) / 1024.0) * lane.gb_price
    else:
        compute_cost = billed_duration_s * lane.mem_gb_const * lane.gb_price
    request_cost, storage_cost, egress_cost = statics[(via_http, error is None)]
    return (
        benchmark_time_s, provider_time_s, client_time_s, invocation_overhead_s, cold_init_s,
        memory_used, billed_duration_s, request_cost, compute_cost, storage_cost, egress_cost, error,
    )


def invocation_record(
    meta, start_type: StartType, values: tuple, container_id: str, submitted_at: float,
    request_index: int, output: Mapping[str, Any], output_bytes: int,
) -> InvocationRecord:
    """The record of an invocation admitted at ``submitted_at`` whose
    :func:`invoke_step` returned ``values``; ``meta`` is the function's
    :class:`~repro.columnar.records.LaneMeta`."""
    (
        benchmark_time_s, provider_time_s, client_time_s, invocation_overhead_s, cold_init_s,
        memory_used_mb, billed_duration_s, request_cost, compute_cost, storage_cost, egress_cost, error,
    ) = values
    success = error is None
    return InvocationRecord(
        function_name=meta.function_name,
        benchmark=meta.benchmark,
        provider=meta.provider,
        start_type=start_type,
        success=success,
        benchmark_time_s=benchmark_time_s,
        provider_time_s=provider_time_s,
        client_time_s=client_time_s,
        invocation_overhead_s=invocation_overhead_s,
        cold_init_s=cold_init_s,
        memory_declared_mb=meta.memory_declared_mb,
        memory_used_mb=memory_used_mb,
        billed_duration_s=billed_duration_s,
        cost=CostBreakdown(request_cost, compute_cost, storage_cost, egress_cost),
        output_bytes=output_bytes,
        container_id=container_id,
        submitted_at=submitted_at,
        started_at=submitted_at + invocation_overhead_s,
        finished_at=submitted_at + client_time_s,
        error=error,
        output=output,
        outcome=_COMPLETED if success else _FAILED,
        admitted_at=submitted_at,
        request_index=request_index,
    )
