"""A fixed reference kernel that gauges how fast the host runs Python right now.

On a shared host the speed of one core drifts by tens of percent over
minutes as neighbours come and go.  Each replay is bracketed by a pass of
this kernel, and replay throughput is reported per reference pass, which
cancels the drift.  The kernel does the simulator's kind of work — small
slotted objects, a heap of tuples, dict counters, float arithmetic — but
never calls the program, so it gauges the host and not the code under
test.  Changing it changes every throughput figure: keep it fixed.
"""

from __future__ import annotations

import heapq
import time

_STEPS = 30_000


class _Item:
    __slots__ = ("at", "key")

    def __init__(self, at: float, key: str):
        self.at = at
        self.key = key


def kernel_seconds() -> float:
    """Host seconds one pass of the reference kernel takes now."""
    start = time.perf_counter()
    heap: list = []
    counts: dict[str, int] = {}
    total = 0.0
    for step in range(_STEPS):
        item = _Item(step * 0.5, str(step % 977))
        heapq.heappush(heap, (item.at * 1.37 % 101.0, step, item))
        counts[item.key] = counts.get(item.key, 0) + 1
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].at
    elapsed = time.perf_counter() - start
    if total < 0.0 or len(counts) != 977:
        raise AssertionError("reference kernel computed a wrong result")
    return elapsed
