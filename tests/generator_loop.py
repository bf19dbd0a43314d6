"""The generator loop as the reference replay of the differential tier.

Batch replays (``WorkloadEngine.run``, sharded shards, population shards)
run the columnar engine whenever :meth:`WorkloadEngine.replay` allows it.
The reference they are pinned against is the generator loop,
``WorkloadEngine._run`` — called directly, because
:meth:`WorkloadEngine.stream` itself runs uncontrolled replays on the
columnar loop — folded here into the same
:class:`~repro.workload.engine.WorkloadResult` shape by the engine's own
result builders: ``record_result`` (records sorted back into arrival order
and folded) or ``streaming_result`` (the accumulator the loop fed), with the
loop's own peak in flight.
"""

from __future__ import annotations

import time
from repro.workload.engine import (
    WorkloadEngine,
    _record_builder,
    _ReplayAccumulator,
    record_result,
    streaming_result,
)


def generator_run(platform, requests, keep_records=True, observer=None, positions=None):
    """Replay ``requests`` through the generator loop and fold the result.

    ``observer`` receives ``on_invocation`` per record in stream order and
    is attached to the platform for the replay (container lifecycle and
    breaker-transition hooks), as ``WorkloadEngine.run`` does.
    """
    engine = WorkloadEngine(platform)
    records = []
    accumulator = _ReplayAccumulator()
    add = records.append if keep_records else accumulator.add_record
    wall_start = time.perf_counter()
    platform._observer = observer
    try:
        out = []
        for record in engine._run(requests, positions, _record_builder(platform, out.append), out):
            if observer is not None:
                observer.on_invocation(record)
            add(record)
    finally:
        platform._observer = None
    wall_clock_s = time.perf_counter() - wall_start
    peak = engine.last_peak_in_flight
    if not keep_records:
        return streaming_result(platform.provider, accumulator, wall_clock_s, peak)
    return record_result(platform.provider, records, wall_clock_s, peak)
