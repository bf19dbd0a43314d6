"""Columnar invocation-record storage: compact rows, lazy objects.

The generator loop materialises one frozen
:class:`~repro.faas.invocation.InvocationRecord` (plus a
:class:`~repro.faas.billing.CostBreakdown`) per request — the dominant
object churn of a 100k-invocation replay.  The columnar engine instead
appends one row per invocation — the values
:func:`~repro.simulator.step.invoke_step` returned plus where and when the
invocation ran — and keeps everything a record shares with its function
(name, benchmark, provider, declared memory, output size) in one
:class:`LaneMeta` per function.

Objects are materialised lazily and only when the caller actually asked
for records (``keep_records=True``): :meth:`ColumnarRecordBlock.materialize`
builds them with :func:`~repro.simulator.step.invocation_record`, the
builder the generator loop uses, so they are the generator loop's records
field for field.  Streaming replays never materialise at all.

The block is a plain picklable container of lists, so sharded replay ships
it across the process boundary whole and the parent materialises after the
merge (:mod:`repro.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import Provider, StartType
from ..faas.invocation import InvocationRecord
from ..simulator.step import invocation_record

_COLD = StartType.COLD
_WARM = StartType.WARM


@dataclass(frozen=True)
class LaneMeta:
    """Per-function constants shared by every record of one lane."""

    function_name: str
    benchmark: str
    provider: Provider
    memory_declared_mb: int
    output_bytes: int


class ColumnarRecordBlock:
    """Row storage for executed fast-path invocation records.

    Each row is ``(lane index, request index, submitted_at, cold,
    container_id, step values)``.
    """

    __slots__ = ("lanes", "rows")

    def __init__(self) -> None:
        self.lanes: list[LaneMeta] = []
        self.rows: list[tuple] = []

    def __len__(self) -> int:
        return len(self.rows)

    def add_lane(self, meta: LaneMeta) -> int:
        """Register a function lane; returns its index for the rows."""
        self.lanes.append(meta)
        return len(self.lanes) - 1

    def materialize(self) -> list[InvocationRecord]:
        """Build the generator loop's record objects, in append (arrival) order."""
        lanes = self.lanes
        return [
            invocation_record(
                lanes[lane_idx], _COLD if cold else _WARM, values, container_id,
                submitted_at, request_index, {}, lanes[lane_idx].output_bytes,
            )
            for lane_idx, request_index, submitted_at, cold, container_id, values in self.rows
        ]
