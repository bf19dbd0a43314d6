"""Workload traces: timestamped invocation requests.

A :class:`WorkloadTrace` is an immutable, time-sorted sequence of
:class:`~repro.faas.invocation.InvocationRequest` objects.  Traces can be

* **synthesized** from an :class:`~repro.workload.arrivals.ArrivalProcess`
  (``WorkloadTrace.synthesize``),
* **merged** from several per-function traces into one mixed stream
  (``WorkloadTrace.merge``), and
* **serialised** to / loaded from a small JSON format
  (``to_json`` / ``from_json``), so real provider traces (e.g. the Azure
  Functions production trace) can be converted and replayed offline.

Timestamps (``submitted_at``) are *relative to the start of the trace*; the
engine offsets them by the platform clock when the trace is replayed.
"""

from __future__ import annotations

import heapq
import json
import math
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from ..config import TriggerType
from ..exceptions import ConfigurationError
from ..faas.invocation import InvocationRequest
from ..utils.io import atomic_write_text
from .arrivals import ArrivalProcess

#: Version tag written into serialised traces.
TRACE_FORMAT_VERSION = 1


class WorkloadTrace:
    """A time-sorted sequence of invocation requests."""

    def __init__(self, requests: Iterable[InvocationRequest]):
        items = list(requests)
        for request in items:
            if not 0.0 <= request.submitted_at < math.inf:
                raise ConfigurationError(
                    "trace timestamps must be finite and non-negative "
                    f"(got {request.submitted_at!r})"
                )
        # Stable sort keeps the original order of simultaneous requests,
        # which keeps replay deterministic for identical timestamps.
        items.sort(key=lambda r: r.submitted_at)
        self._requests: tuple[InvocationRequest, ...] = tuple(items)

    # ------------------------------------------------------------ properties
    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[InvocationRequest]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> InvocationRequest:
        return self._requests[index]

    @property
    def duration_s(self) -> float:
        """Offset of the last request (0 for an empty trace)."""
        return self._requests[-1].submitted_at if self._requests else 0.0

    def functions(self) -> list[str]:
        """Sorted names of the functions the trace invokes."""
        return sorted({request.function_name for request in self._requests})

    def mean_rate_per_s(self) -> float:
        """Mean arrival rate over the *observed* span (first to last arrival).

        Computed from the inter-arrival gaps, so a late first arrival (e.g.
        a diurnal trace starting in its trough) does not skew the rate.
        Traces with fewer than two requests have no observable rate => 0.
        """
        if len(self._requests) < 2:
            return 0.0
        span = self._requests[-1].submitted_at - self._requests[0].submitted_at
        if span <= 0:
            return 0.0
        return (len(self._requests) - 1) / span

    def first_submitted_at(self) -> float:
        """Timestamp of the earliest request (0 for an empty trace)."""
        return self._requests[0].submitted_at if self._requests else 0.0

    # ---------------------------------------------------------- construction
    @classmethod
    def synthesize(
        cls,
        function_name: str,
        process: ArrivalProcess,
        duration_s: float,
        rng: np.random.Generator | int = 0,
        payload: Mapping[str, Any] | None = None,
        payload_bytes: int | None = None,
        trigger: TriggerType = TriggerType.HTTP,
    ) -> "WorkloadTrace":
        """Generate a single-function trace; its requests share one ``payload`` copy."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(int(rng))
        offsets = process.generate(duration_s, rng)
        shared_payload = dict(payload or {})
        return cls(
            InvocationRequest(
                function_name=function_name,
                payload=shared_payload,
                payload_bytes=payload_bytes,
                trigger=trigger,
                submitted_at=float(offset),
            )
            for offset in offsets
        )

    @classmethod
    def merge(cls, *traces: "WorkloadTrace | MergedWorkloadTrace") -> "MergedWorkloadTrace":
        """Interleave several traces into one time-sorted stream — lazily.

        Returns a :class:`MergedWorkloadTrace`: a re-iterable k-way
        ``heapq.merge`` view over the (already time-sorted) inputs.  Nothing
        is materialised, so merged traces compose with the streaming
        ``keep_records=False`` replay path in O(k) memory; ``heapq.merge``
        is stable, so simultaneous requests keep the order of the input
        traces — bit-identical to the old concatenate-and-stable-sort
        behaviour.
        """
        return MergedWorkloadTrace(*traces)

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": TRACE_FORMAT_VERSION,
            "requests": [
                {
                    "function": request.function_name,
                    "submitted_at": request.submitted_at,
                    "payload": dict(request.payload),
                    # Omitted when None: "measure the encoded payload".
                    **(
                        {"payload_bytes": request.payload_bytes}
                        if request.payload_bytes is not None
                        else {}
                    ),
                    "trigger": request.trigger.value,
                }
                for request in self._requests
            ],
        }

    def to_json(self, path: str | Path | None = None, indent: int | None = None) -> str:
        """Serialise the trace; optionally write it to ``path`` (atomically)."""
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            atomic_write_text(Path(path), text)
        return text

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadTrace":
        version = data.get("version", TRACE_FORMAT_VERSION)
        if version != TRACE_FORMAT_VERSION:
            raise ConfigurationError(f"unsupported trace format version {version!r}")
        entries = data.get("requests")
        if not isinstance(entries, list):
            raise ConfigurationError("trace JSON must contain a 'requests' list")
        requests = []
        # Entries with equal payloads share one mapping, and entries of one
        # function one name string, as a synthesized trace's requests do.
        # The payload key is its repr, which tells 1, 1.0 and True apart
        # where equality would not.
        payloads: dict[str, dict[str, Any]] = {}
        names: dict[str, str] = {}
        for entry in entries:
            if "function" not in entry:
                raise ConfigurationError("every trace entry needs a 'function' name")
            raw_bytes = entry.get("payload_bytes")
            name = str(entry["function"])
            name = names.setdefault(name, name)
            raw_payload = entry.get("payload", {})
            key = repr(raw_payload)
            payload = payloads.get(key)
            if payload is None:
                payload = payloads[key] = dict(raw_payload)
            requests.append(
                InvocationRequest(
                    function_name=name,
                    payload=payload,
                    payload_bytes=None if raw_bytes is None else int(raw_bytes),
                    trigger=TriggerType(entry.get("trigger", TriggerType.HTTP.value)),
                    submitted_at=float(entry.get("submitted_at", 0.0)),
                )
            )
        return cls(requests)

    @classmethod
    def from_json(cls, source: str | Path) -> "WorkloadTrace":
        """Load a trace from a JSON string or a file path."""
        if isinstance(source, Path) or (isinstance(source, str) and not source.lstrip().startswith("{")):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WorkloadTrace({len(self)} requests, {len(self.functions())} functions, "
            f"{self.duration_s:.1f}s)"
        )


class MergedWorkloadTrace:
    """A lazy, re-iterable k-way merge of time-sorted traces.

    Produced by :meth:`WorkloadTrace.merge`.  Iteration runs a
    ``heapq.merge`` over the component traces, so the merged stream is
    never materialised — O(k) live state for k components, which is what
    lets multi-tenant scenarios feed the streaming (``keep_records=False``)
    replay path at million-invocation scale.  Aggregate properties
    (``__len__``, ``duration_s``, ``functions``) are computed from the
    components without expanding the stream; only the serialisation helpers
    (:meth:`materialize`, :meth:`to_dict`, :meth:`to_json`) build the full
    request list.
    """

    def __init__(self, *sources: "WorkloadTrace | MergedWorkloadTrace"):
        for source in sources:
            if not isinstance(source, (WorkloadTrace, MergedWorkloadTrace)):
                raise ConfigurationError(
                    "WorkloadTrace.merge only accepts traces (sorted-order guarantee); "
                    f"got {type(source).__name__}"
                )
        self._sources: tuple[WorkloadTrace | MergedWorkloadTrace, ...] = tuple(sources)

    def __iter__(self) -> Iterator[InvocationRequest]:
        # heapq.merge is stable: simultaneous requests keep source order.
        return heapq.merge(*self._sources, key=attrgetter("submitted_at"))

    def __len__(self) -> int:
        return sum(len(source) for source in self._sources)

    @property
    def duration_s(self) -> float:
        """Offset of the last request (0 for an empty merge)."""
        durations = [source.duration_s for source in self._sources if len(source)]
        return max(durations) if durations else 0.0

    def functions(self) -> list[str]:
        """Sorted names of the functions the merged stream invokes."""
        names: set[str] = set()
        for source in self._sources:
            names.update(source.functions())
        return sorted(names)

    def mean_rate_per_s(self) -> float:
        """Mean arrival rate over the observed span, as in :class:`WorkloadTrace`."""
        total = len(self)
        if total < 2:
            return 0.0
        span = self.duration_s - self.first_submitted_at()
        if span <= 0:
            return 0.0
        return (total - 1) / span

    def first_submitted_at(self) -> float:
        """Timestamp of the earliest request (0 for an empty merge)."""
        firsts = [source.first_submitted_at() for source in self._sources if len(source)]
        return min(firsts) if firsts else 0.0

    # --------------------------------------------------------- serialisation
    def materialize(self) -> WorkloadTrace:
        """Expand the merge into a plain (materialised) :class:`WorkloadTrace`."""
        return WorkloadTrace(self)

    def to_dict(self) -> dict[str, Any]:
        return self.materialize().to_dict()

    def to_json(self, path: str | Path | None = None, indent: int | None = None) -> str:
        return self.materialize().to_json(path, indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MergedWorkloadTrace({len(self._sources)} sources, {len(self)} requests, "
            f"{self.duration_s:.1f}s)"
        )
