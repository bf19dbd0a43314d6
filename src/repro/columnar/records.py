"""Columnar invocation-record storage: parallel arrays, lazy objects.

The scalar engine materialises one frozen
:class:`~repro.faas.invocation.InvocationRecord` (plus a
:class:`~repro.faas.billing.CostBreakdown`) per request — the dominant
object churn of a 100k-invocation replay.  The columnar engine instead
appends the per-invocation *variables* to parallel Python lists and keeps
everything a record shares with its function (name, benchmark, provider,
declared memory, output size, the duration-independent cost components) in
one :class:`LaneMeta` per function.

Objects are materialised lazily and only when the caller actually asked
for records (``keep_records=True``): :meth:`ColumnarRecordBlock.materialize`
rebuilds the exact ``InvocationRecord`` list the scalar path would have
produced — field for field, including derived floats (``started_at`` is
recomputed as ``submitted_at + invocation_overhead_s``, the same addition
the scalar path performs).  Streaming replays never materialise at all.

The block is a plain picklable container of lists, so sharded replay ships
it across the process boundary whole and the parent materialises after the
merge (:mod:`repro.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import InvocationOutcome, Provider, StartType
from ..faas.billing import CostBreakdown
from ..faas.invocation import InvocationRecord

#: Outcome / start-type constants hoisted for the materialisation loop.
_COMPLETED = InvocationOutcome.COMPLETED
_FAILED = InvocationOutcome.FAILED
_COLD = StartType.COLD
_WARM = StartType.WARM


@dataclass(frozen=True)
class LaneMeta:
    """Per-function constants shared by every record of one lane.

    ``statics`` maps ``(via_http, success)`` to the duration-independent
    ``(request_cost, storage_cost, egress_cost)`` components, taken from
    the function's compiled billing constants
    (:meth:`~repro.faas.billing.BillingModel.compile`), so the floats are
    the generator loop's.
    """

    function_name: str
    benchmark: str
    provider: Provider
    memory_declared_mb: int
    output_bytes: int
    statics: dict


class ColumnarRecordBlock:
    """Struct-of-arrays storage for executed fast-path invocation records."""

    __slots__ = (
        "lanes",
        "lane",
        "request_index",
        "submitted_at",
        "cold",
        "success",
        "error",
        "benchmark_time_s",
        "provider_time_s",
        "client_time_s",
        "invocation_overhead_s",
        "cold_init_s",
        "memory_used_mb",
        "billed_duration_s",
        "compute_cost",
        "via_http",
        "container_id",
        "finished_at",
    )

    def __init__(self) -> None:
        self.lanes: list[LaneMeta] = []
        self.lane: list[int] = []
        self.request_index: list[int] = []
        self.submitted_at: list[float] = []
        self.cold: list[bool] = []
        self.success: list[bool] = []
        self.error: list[str | None] = []
        self.benchmark_time_s: list[float] = []
        self.provider_time_s: list[float] = []
        self.client_time_s: list[float] = []
        self.invocation_overhead_s: list[float] = []
        self.cold_init_s: list[float] = []
        self.memory_used_mb: list[float] = []
        self.billed_duration_s: list[float] = []
        self.compute_cost: list[float] = []
        self.via_http: list[bool] = []
        self.container_id: list[str] = []
        self.finished_at: list[float] = []

    def __len__(self) -> int:
        return len(self.lane)

    def add_lane(self, meta: LaneMeta) -> int:
        """Register a function lane; returns its index for the lane column."""
        self.lanes.append(meta)
        return len(self.lanes) - 1

    def materialize(self) -> list[InvocationRecord]:
        """Build the scalar-path record objects, in append (arrival) order."""
        lanes = self.lanes
        records: list[InvocationRecord] = []
        append = records.append
        for (
            lane_idx,
            request_index,
            submitted_at,
            cold,
            success,
            error,
            benchmark_time_s,
            provider_time_s,
            client_time_s,
            invocation_overhead_s,
            cold_init_s,
            memory_used_mb,
            billed_duration_s,
            compute_cost,
            via_http,
            container_id,
            finished_at,
        ) in zip(
            self.lane,
            self.request_index,
            self.submitted_at,
            self.cold,
            self.success,
            self.error,
            self.benchmark_time_s,
            self.provider_time_s,
            self.client_time_s,
            self.invocation_overhead_s,
            self.cold_init_s,
            self.memory_used_mb,
            self.billed_duration_s,
            self.compute_cost,
            self.via_http,
            self.container_id,
            self.finished_at,
        ):
            meta = lanes[lane_idx]
            request_cost, storage_cost, egress_cost = meta.statics[(via_http, success)]
            append(
                InvocationRecord(
                    function_name=meta.function_name,
                    benchmark=meta.benchmark,
                    provider=meta.provider,
                    start_type=_COLD if cold else _WARM,
                    success=success,
                    benchmark_time_s=benchmark_time_s,
                    provider_time_s=provider_time_s,
                    client_time_s=client_time_s,
                    invocation_overhead_s=invocation_overhead_s,
                    cold_init_s=cold_init_s,
                    memory_declared_mb=meta.memory_declared_mb,
                    memory_used_mb=memory_used_mb,
                    billed_duration_s=billed_duration_s,
                    cost=CostBreakdown(
                        request_cost=request_cost,
                        compute_cost=compute_cost,
                        storage_cost=storage_cost,
                        egress_cost=egress_cost,
                    ),
                    output_bytes=meta.output_bytes,
                    container_id=container_id,
                    submitted_at=submitted_at,
                    started_at=submitted_at + invocation_overhead_s,
                    finished_at=finished_at,
                    error=error,
                    outcome=_COMPLETED if success else _FAILED,
                    admitted_at=submitted_at,
                    request_index=request_index,
                )
            )
        return records

