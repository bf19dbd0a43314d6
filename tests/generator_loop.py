"""The generator loop as the reference replay of the differential tier.

Batch replays (``WorkloadEngine.run``, sharded shards, population shards)
run the columnar engine whenever :meth:`WorkloadEngine.replay` allows it.
The reference they are pinned against is the generator loop,
:meth:`WorkloadEngine.stream`, folded here into the same
:class:`~repro.workload.engine.WorkloadResult` shape: records sorted back
into arrival order (record mode) or a streaming accumulator (streaming
mode), with the loop's own peak in flight.
"""

from __future__ import annotations

import time
from operator import attrgetter

from repro.workload.engine import (
    WorkloadEngine,
    WorkloadResult,
    _ReplayAccumulator,
    streaming_result,
)


def generator_run(platform, requests, keep_records=True, observer=None, positions=None):
    """Replay ``requests`` through ``WorkloadEngine.stream`` and fold the result.

    ``observer`` receives ``on_invocation`` per record in stream order and
    is attached to the engine (breaker-transition hooks), as
    ``WorkloadEngine.run`` does.
    """
    engine = WorkloadEngine(platform)
    if observer is not None:
        engine.observer = observer
    records = []
    accumulator = _ReplayAccumulator()
    add = records.append if keep_records else accumulator.add
    wall_start = time.perf_counter()
    for record in engine.stream(requests, positions):
        if observer is not None:
            observer.on_invocation(record)
        add(record)
    wall_clock_s = time.perf_counter() - wall_start
    if not keep_records:
        return streaming_result(
            platform.provider,
            accumulator,
            wall_clock_s=wall_clock_s,
            peak_in_flight=engine.last_peak_in_flight,
        )
    records.sort(key=attrgetter("request_index"))
    span = 0.0
    if records:
        span = max(r.finished_at for r in records) - min(r.submitted_at for r in records)
    return WorkloadResult(
        provider=platform.provider,
        records=records,
        simulated_span_s=span,
        wall_clock_s=wall_clock_s,
        peak_in_flight=engine.last_peak_in_flight,
    )
