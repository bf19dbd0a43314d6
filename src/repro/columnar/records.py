"""Columnar invocation-record storage: compact rows, lazy objects.

The generator loop materialises one frozen
:class:`~repro.faas.invocation.InvocationRecord` (plus a
:class:`~repro.faas.billing.CostBreakdown`) per request — the dominant
object churn of a 100k-invocation replay.  The columnar engine instead
yields one row per invocation — the values
:func:`~repro.simulator.step.invoke_step` returned plus where and when the
invocation ran — and keeps everything a record shares with its function
(name, benchmark, provider, declared memory, output size) in one
:class:`LaneMeta` per function, which every row of the function carries.

Objects are materialised lazily and only when the caller actually asked
for records (``keep_records=True``): :meth:`ColumnarRecordBlock.materialize`
and :meth:`~repro.workload.engine.WorkloadEngine.stream` build them with
:func:`records_of`, through :func:`~repro.simulator.step.invocation_record`,
the builder the generator loop uses, so they are the generator loop's
records field for field.  Streaming replays never materialise at all.

The block is a plain picklable list of rows, so sharded replay ships it
across the process boundary whole and the parent materialises after the
merge (:mod:`repro.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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

    Each row is ``(lane meta, request index, submitted_at, cold,
    container_id, step values)``, as the columnar loop yields it; rows of
    one function share its :class:`LaneMeta` object, so a pickled block
    carries each meta once.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def materialize(self) -> list[InvocationRecord]:
        """Build the generator loop's record objects, in append (arrival) order."""
        return list(records_of(self.rows))


def records_of(rows: Iterable[tuple]) -> Iterator[InvocationRecord]:
    """The generator loop's record of each columnar row, in row order."""
    for meta, request_index, submitted_at, cold, container_id, values in rows:
        yield invocation_record(
            meta, _COLD if cold else _WARM, values, container_id,
            submitted_at, request_index, {}, meta.output_bytes,
        )
