"""Sandbox (container / microVM) lifecycle bookkeeping.

Section 2, label 2: every function instance runs inside an isolated execution
environment.  The simulator tracks one :class:`Container` per sandbox —
which function and version it serves, when it was created and last used, and
how many invocations it has handled — and a :class:`ContainerPool` per
function holding the warm sandboxes the scheduler can reuse.  The eviction
experiment (Section 6.5) observes exactly this population.

The pool is *indexed* so the invocation hot path never scans it:

* a per-version **MRU heap** keyed by ``(-last_used_at, insertion order)``
  answers "most recently used warm sandbox" in O(log n)
  (:meth:`ContainerPool.pick_mru`), with at most one live heap entry per
  container and lazy invalidation of stale entries;
* an **occupancy multiset** (:meth:`reserve` / :meth:`release`) tracks how
  many in-flight executions each sandbox is hosting, so busy-set exclusion
  is an O(1) counter comparison instead of a list membership test
  (``slot_capacity`` > 1 models Azure's function-app instance sharing);
* an append-only **creation log** lets eviction policies ingest new
  sandboxes incrementally instead of re-scanning the pool
  (:attr:`creation_log`).

The classic scan-based accessors (:meth:`warm_containers`,
:meth:`warm_count`) remain for slow paths — tests, reporting, and the
reference scheduling semantics used by the equivalence suite.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from ..exceptions import PlatformError


class ContainerState(str, enum.Enum):
    """Lifecycle states of a sandbox."""

    COLD_STARTING = "cold-starting"
    WARM = "warm"
    BUSY = "busy"
    EVICTED = "evicted"


_container_ids = itertools.count(1)


@dataclass
class Container:
    """One sandbox instance bound to a specific function version."""

    function_name: str
    function_version: int
    memory_mb: int
    created_at: float
    container_id: str = field(default_factory=lambda: f"container-{next(_container_ids):06d}")
    state: ContainerState = ContainerState.COLD_STARTING
    last_used_at: float = 0.0
    invocations: int = 0

    def __post_init__(self) -> None:
        self.last_used_at = max(self.last_used_at, self.created_at)

    def mark_warm(self, timestamp: float) -> None:
        if self.state is ContainerState.EVICTED:
            raise PlatformError("cannot warm an evicted container")
        self.state = ContainerState.WARM
        self.last_used_at = max(self.last_used_at, timestamp)

    def serve(self, timestamp: float) -> None:
        """Record that the container served an invocation at ``timestamp``."""
        if self.state is ContainerState.EVICTED:
            raise PlatformError("cannot invoke an evicted container")
        self.invocations += 1
        self.last_used_at = max(self.last_used_at, timestamp)
        self.state = ContainerState.WARM

    def evict(self) -> None:
        self.state = ContainerState.EVICTED

    @property
    def is_warm(self) -> bool:
        return self.state in (ContainerState.WARM, ContainerState.BUSY)

    def uptime(self, now: float) -> float:
        return max(0.0, now - self.created_at)

    def idle_time(self, now: float) -> float:
        return max(0.0, now - self.last_used_at)


class ContainerPool:
    """The set of sandboxes (warm and historical) of one deployed function.

    ``slot_capacity`` is the number of concurrent executions one sandbox can
    absorb before it stops being offered for reuse: 1 for AWS/GCP containers,
    higher for Azure's shared function-app instances.
    """

    def __init__(self, function_name: str, slot_capacity: int = 1):
        if slot_capacity < 1:
            raise PlatformError("slot_capacity must be at least 1")
        self.function_name = function_name
        self.slot_capacity = slot_capacity
        self._containers: list[Container] = []
        #: Append-only log of every sandbox ever added; eviction policies keep
        #: a cursor into it so they only ever look at *new* containers.  Plain
        #: attribute (not a property) — it sits on the per-invocation path.
        self.creation_log: list[Container] = []
        self._seq = itertools.count()
        #: container_id -> (insertion seq, container); evicted entries are
        #: dropped by prune().
        self._index: dict[str, tuple[int, Container]] = {}
        #: container_id -> number of in-flight executions hosted right now.
        self._in_use: dict[str, int] = {}
        #: version -> min-heap of (-last_used_at, insertion seq, container).
        self._mru: dict[int, list[tuple[float, int, Container]]] = {}
        #: container_id -> last_used_at of its (single) live heap entry.
        #: An entry whose recorded timestamp disagrees with this map is stale
        #: and discarded when it surfaces at the heap top.
        self._entry_lua: dict[str, float] = {}
        #: Per-pool sandbox id counter (see :meth:`next_container_id`).
        self._id_counter = itertools.count(1)
        #: Set by :meth:`evict` / :meth:`evict_all`, cleared by :meth:`prune`.
        #: A clean pool's prune would rebuild identical structures, so the
        #: flag lets replay loops prune thousands of pools per interval at
        #: O(dirty) instead of O(pools) cost.
        self._needs_prune = False

    def next_container_id(self) -> str:
        """Mint a pool-scoped sandbox id, e.g. ``thumbnails-c00000007``.

        Scoping ids to the pool (function) instead of the module-level
        default counter makes a function's sandbox ids a pure function of
        its *own* invocation history: two platforms replaying the same trace
        in one process, or one function replayed alone versus inside a mixed
        trace, mint identical ids.  The eviction policies' deterministic
        ``(created_at, container_id)`` tie-break then stays stable under
        sharded replay — and under id-counter rollover, since the fixed-width
        sort key only rolls over at 10^8 sandboxes *per function* rather
        than across the whole process.
        """
        return f"{self.function_name}-c{next(self._id_counter):08d}"

    # ------------------------------------------------------------- mutation
    def add(self, container: Container) -> None:
        if container.function_name != self.function_name:
            raise PlatformError("container belongs to a different function")
        seq = next(self._seq)
        self._containers.append(container)
        self.creation_log.append(container)
        self._index[container.container_id] = (seq, container)
        if container.is_warm:
            self._push(container)

    def _push(self, container: Container) -> None:
        entry = self._index.get(container.container_id)
        if entry is None:
            return
        seq, _ = entry
        heap = self._mru.setdefault(container.function_version, [])
        heapq.heappush(heap, (-container.last_used_at, seq, container))
        self._entry_lua[container.container_id] = container.last_used_at

    def touch(self, container: Container) -> None:
        """Re-index ``container`` after its ``last_used_at`` changed.

        Called by the platform after :meth:`Container.serve`.  While the
        sandbox is saturated (``in_use >= slot_capacity``) no entry is kept —
        :meth:`release` re-inserts it the moment a slot frees up.
        """
        cid = container.container_id
        if container.is_warm and self._in_use.get(cid, 0) < self.slot_capacity:
            self._push(container)
        else:
            self._entry_lua.pop(cid, None)

    def reserve(self, container_id: str) -> None:
        """Count one more in-flight execution on ``container_id``."""
        self._in_use[container_id] = self._in_use.get(container_id, 0) + 1

    def release(self, container_id: str) -> None:
        """Drop one in-flight execution; re-offer the sandbox if it frees up."""
        remaining = self._in_use.get(container_id, 0) - 1
        if remaining > 0:
            self._in_use[container_id] = remaining
        else:
            self._in_use.pop(container_id, None)
        entry = self._index.get(container_id)
        if entry is None:
            return
        _, container = entry
        if (
            container.is_warm
            and self._in_use.get(container_id, 0) < self.slot_capacity
            and self._entry_lua.get(container_id) != container.last_used_at
        ):
            self._push(container)

    def in_use_count(self, container_id: str) -> int:
        """In-flight executions currently hosted by ``container_id``."""
        return self._in_use.get(container_id, 0)

    def pick_mru(self, version: int) -> Container | None:
        """Most recently used warm sandbox of ``version`` with a free slot.

        O(log n) amortized: stale heap entries (evicted, re-used at a newer
        timestamp, or saturated) are discarded as they surface.  The returned
        container's index entry is consumed — the caller reserves it and the
        post-invocation :meth:`touch` re-inserts it.

        Ties on ``last_used_at`` resolve to the earliest-created sandbox,
        matching a linear ``max()`` scan over the pool in insertion order.
        """
        heap = self._mru.get(version)
        if not heap:
            return None
        capacity = self.slot_capacity
        while heap:
            neg_lua, seq, container = heap[0]
            heapq.heappop(heap)
            cid = container.container_id
            live = self._entry_lua.get(cid) == -neg_lua
            if not live:
                continue  # superseded by a newer entry for the same sandbox
            if not container.is_warm or self._in_use.get(cid, 0) >= capacity:
                # Dead or saturated: forget the entry; touch()/release()
                # will re-index the sandbox if it becomes offerable again.
                self._entry_lua.pop(cid, None)
                continue
            self._entry_lua.pop(cid, None)
            return container
        return None

    # -------------------------------------------------------------- queries
    def warm_containers(self, version: int | None = None) -> list[Container]:
        """Warm sandboxes, optionally restricted to a function version."""
        return [
            c
            for c in self._containers
            if c.is_warm and (version is None or c.function_version == version)
        ]

    def warm_count(self, version: int | None = None) -> int:
        return len(self.warm_containers(version))

    def all_containers(self) -> list[Container]:
        return list(self._containers)

    def total_created(self) -> int:
        return len(self.creation_log)

    def evict_all(self) -> int:
        """Evict every warm container; returns how many were evicted."""
        evicted = 0
        for container in self._containers:
            if container.is_warm:
                container.evict()
                evicted += 1
        self._mru.clear()
        self._entry_lua.clear()
        if evicted:
            self._needs_prune = True
        return evicted

    def evict(self, containers: list[Container]) -> None:
        for container in containers:
            container.evict()
            self._entry_lua.pop(container.container_id, None)
        if containers:
            self._needs_prune = True

    def prune(self) -> None:
        """Drop evicted containers from the bookkeeping structures.

        The creation log is left untouched: eviction policies hold cursors
        into it, and its memory cost is bounded by the number of cold starts,
        not the number of invocations.
        """
        if not self._needs_prune:
            return
        self._needs_prune = False
        self._containers = [c for c in self._containers if c.state is not ContainerState.EVICTED]
        self._index = {
            cid: entry for cid, entry in self._index.items() if entry[1].state is not ContainerState.EVICTED
        }

    def __iter__(self) -> Iterator[Container]:
        return iter(self._containers)

    def __len__(self) -> int:
        return len(self._containers)
