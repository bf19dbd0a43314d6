"""Invocation request/record types.

Cloud metrics are measured at three levels (Section 5.1): benchmark time
(work inside the function, excluding platform overhead), provider time (what
the platform reports, adding language-runtime and sandbox overhead) and
client time (end-to-end latency at the caller, adding scheduling, network
and trigger overheads).  Every invocation returns an
:class:`InvocationRecord` carrying all three, plus memory, billing and
start-type information.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..config import InvocationOutcome, Provider, StartType, TriggerType
from .billing import CostBreakdown


def payload_wire_bytes(payload: Mapping[str, Any]) -> int:
    """Wire size of a payload: UTF-8 bytes of its JSON encoding.

    The single definition of "request size" shared by the invocation path
    (when no explicit ``payload_bytes`` is given) and the workflow
    trigger-edge model, so the two can never drift apart.
    """
    return len(json.dumps(payload, default=str).encode("utf-8"))


@dataclass(frozen=True, slots=True)
class InvocationRequest:
    """A single invocation of a deployed function.

    ``payload`` is a read-only mapping: the requests of one trace may share
    a single payload object (:meth:`WorkloadTrace.synthesize` builds one).

    ``payload_bytes`` overrides the measured request size exactly like the
    same-named parameter of :meth:`~repro.faas.platform.FaaSPlatform.invoke`:
    ``None`` means "derive from the JSON-encoded payload", and an explicit
    value (including 0) is honoured as-is.
    """

    function_name: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    payload_bytes: int | None = None
    trigger: TriggerType = TriggerType.HTTP
    submitted_at: float = 0.0


@dataclass(frozen=True)
class InvocationRecord:
    """The outcome and measurements of one invocation request.

    With the overload model enabled (:mod:`repro.concurrency`) a record
    describes the request's *terminal* outcome: a request throttled and
    retried until it executed yields one record whose ``attempts`` counts
    the admission attempts and whose ``admission_delay_s`` carries the
    backoff (sync) or queueing (async) delay between submission and the
    admitted execution.  ``client_time_s == finished_at - submitted_at``
    holds for every record, throttled and dropped ones included.
    """

    function_name: str
    benchmark: str
    provider: Provider
    start_type: StartType
    success: bool
    #: Work performed inside the function (SeBS wrapper timer), seconds.
    benchmark_time_s: float
    #: Duration reported by the provider (adds sandbox/runtime overhead), seconds.
    provider_time_s: float
    #: End-to-end latency observed by the client, seconds.
    client_time_s: float
    #: Time between client submission and the start of function execution.
    invocation_overhead_s: float
    #: Sandbox initialisation time inside the overhead (0 for warm starts).
    #: Kept separately so workflow critical paths can attribute cold-start
    #: time exactly.
    cold_init_s: float
    memory_declared_mb: int
    memory_used_mb: float
    billed_duration_s: float
    cost: CostBreakdown
    output_bytes: int = 0
    container_id: str = ""
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    error: str | None = None
    output: Mapping[str, Any] = field(default_factory=dict)
    #: Terminal outcome class (see :class:`repro.config.InvocationOutcome`).
    #: ``success`` stays the executed-and-succeeded boolean; throttled and
    #: dropped requests never executed, so they are distinguished here
    #: rather than inflating the failure counts.
    outcome: InvocationOutcome = InvocationOutcome.COMPLETED
    #: Admission attempts made (1 = admitted first try; throttled records
    #: count every 429'd attempt).
    attempts: int = 1
    #: When the admitted execution actually started occupying capacity
    #: (``submitted_at`` plus backoff/queueing delay; equals
    #: ``submitted_at`` without overload).
    admitted_at: float = 0.0
    #: Client-side delay between submission and admission: retry backoff
    #: for synchronous requests, admission-queue wait for asynchronous
    #: ones (0 when admitted immediately).
    admission_delay_s: float = 0.0
    #: Hedge duplicates the client sent for this request
    #: (:mod:`repro.resilience`).  The record describes the *winning*
    #: attempt, but ``cost`` sums every attempt — the provider executed
    #: and billed them all.
    hedges: int = 0
    #: Position of the request in its replay stream (-1 outside replays).
    #: Sharded replay threads the *global* stream index through, so merged
    #: records sort back into exact arrival order.  Excluded from equality:
    #: it is stream metadata, not an invocation outcome — a function's
    #: records must compare equal whether it replays alone or inside a
    #: mixed trace (the state-isolation invariant).
    request_index: int = field(default=-1, compare=False)

    @property
    def is_cold(self) -> bool:
        return self.start_type is StartType.COLD

    @property
    def executed(self) -> bool:
        """Whether the request ever ran (throttled/dropped ones did not)."""
        return self.outcome in (InvocationOutcome.COMPLETED, InvocationOutcome.FAILED)

    @property
    def platform_overhead_s(self) -> float:
        """Client-observed overhead beyond the function's own work."""
        return max(0.0, self.client_time_s - self.benchmark_time_s)

    def to_dict(self) -> dict[str, Any]:
        return {
            "function": self.function_name,
            "benchmark": self.benchmark,
            "provider": self.provider.value,
            "start_type": self.start_type.value,
            "success": self.success,
            "benchmark_time_s": self.benchmark_time_s,
            "provider_time_s": self.provider_time_s,
            "client_time_s": self.client_time_s,
            "invocation_overhead_s": self.invocation_overhead_s,
            "cold_init_s": self.cold_init_s,
            "memory_declared_mb": self.memory_declared_mb,
            "memory_used_mb": self.memory_used_mb,
            "billed_duration_s": self.billed_duration_s,
            "cost_usd": self.cost.total,
            "output_bytes": self.output_bytes,
            "container_id": self.container_id,
            "error": self.error,
            "outcome": self.outcome.value,
            "attempts": self.attempts,
            "admission_delay_s": self.admission_delay_s,
            "hedges": self.hedges,
        }
