"""Sandbox (container / microVM) lifecycle bookkeeping.

Section 2, label 2: every function instance runs inside an isolated execution
environment.  The simulator tracks one :class:`Container` per sandbox —
which function and version it serves, when it was created and last used, and
how many invocations it has handled — and a :class:`ContainerPool` per
function holding the warm sandboxes the scheduler can reuse.  The eviction
experiment (Section 6.5) observes exactly this population.

The pool is the one home of every sandbox operation both replay loops
perform — :meth:`~ContainerPool.pick_mru`, :meth:`~ContainerPool.reserve`,
:meth:`~ContainerPool.serve` and :meth:`~ContainerPool.release` — and the
only code that reads or writes its index structures.  It is *indexed* so the
invocation hot path never scans it:

* a per-version **MRU heap** keyed by ``(-last_used_at, insertion order)``
  answers "most recently used warm sandbox" in O(log n), with at most one
  live heap entry per container and lazy invalidation of stale entries;
* an **occupancy multiset** (:meth:`~ContainerPool.reserve` /
  :meth:`~ContainerPool.release`) tracks how many in-flight executions each
  sandbox is hosting, so busy-set exclusion is an O(1) counter comparison
  (``slot_capacity`` > 1 models Azure's function-app instance sharing);
* an append-only **creation log** lets eviction policies ingest new
  sandboxes incrementally instead of re-scanning the pool
  (:attr:`~ContainerPool.creation_log`); the policy keeps its per-pool
  state on the pool itself (:attr:`~ContainerPool.eviction_state`).

Evicted sandboxes are dropped from the index by :meth:`~ContainerPool.prune`,
which the pool runs itself once they outnumber the rest, so its bookkeeping
stays O(live sandboxes) at amortised O(1) per eviction.  Pruning changes no
simulated output: every reader filters on liveness.

The classic scan-based accessors (:meth:`~ContainerPool.warm_containers`,
:meth:`~ContainerPool.warm_count`) remain for slow paths — tests, reporting,
and the reference scheduling semantics used by the equivalence suite.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterator

from ..exceptions import PlatformError


class ContainerState(str, enum.Enum):
    """Lifecycle states of a sandbox."""

    COLD_STARTING = "cold-starting"
    WARM = "warm"
    BUSY = "busy"
    EVICTED = "evicted"


# Hoisted: an enum member lookup costs a class attribute access per use.
# ``_LIVE`` is the state test of ``Container.is_warm``.
_WARM = ContainerState.WARM
_EVICTED = ContainerState.EVICTED
_LIVE = (ContainerState.WARM, ContainerState.BUSY)

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
        if self.state is _EVICTED:
            raise PlatformError("cannot warm an evicted container")
        self.state = _WARM
        self.last_used_at = max(self.last_used_at, timestamp)

    def evict(self) -> None:
        self.state = _EVICTED

    @property
    def is_warm(self) -> bool:
        return self.state in _LIVE

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
        #: The eviction policy's per-pool state (cursor, deadline heap,
        #: timeout draws; see :mod:`repro.simulator.eviction`), created by
        #: the policy on first use.  It lives and dies with the pool, so a
        #: redeployed function starts from a fresh one.
        self.eviction_state = None
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
        #: Evicted sandboxes :meth:`prune` has not dropped yet.
        self._dead = 0

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
        cid = container.container_id
        self._containers.append(container)
        self.creation_log.append(container)
        self._index[cid] = (seq, container)
        # Heaps are never dropped, so serve() and release() find the heap
        # of every sandbox the pool holds.
        heap = self._mru.setdefault(container.function_version, [])
        if container.state in _LIVE:
            heappush(heap, (-container.last_used_at, seq, container))
            self._entry_lua[cid] = container.last_used_at

    def serve(self, container: Container, finished_at: float) -> None:
        """Record that ``container`` served an invocation finishing at ``finished_at``.

        The sandbox turns warm and is re-offered at its new last-use time —
        unless it is saturated (``in_use >= slot_capacity``), in which case
        no entry is kept and :meth:`release` re-inserts it the moment a slot
        frees up.
        """
        if container.state is _EVICTED:
            raise PlatformError("cannot invoke an evicted container")
        container.invocations += 1
        if finished_at > container.last_used_at:
            container.last_used_at = finished_at
        container.state = _WARM
        cid = container.container_id
        if self._in_use.get(cid, 0) >= self.slot_capacity:
            self._entry_lua.pop(cid, None)
            return
        entry = self._index.get(cid)
        if entry is not None:
            lua = container.last_used_at
            heappush(self._mru[container.function_version], (-lua, entry[0], container))
            self._entry_lua[cid] = lua

    def reserve(self, container_id: str) -> None:
        """Count one more in-flight execution on ``container_id``."""
        self._in_use[container_id] = self._in_use.get(container_id, 0) + 1

    def release(self, container_id: str) -> None:
        """Drop one in-flight execution; re-offer the sandbox if it frees up."""
        in_use = self._in_use
        remaining = in_use.get(container_id, 0) - 1
        if remaining > 0:
            in_use[container_id] = remaining
        else:
            remaining = 0
            in_use.pop(container_id, None)
        entry = self._index.get(container_id)
        if entry is None:
            return
        container = entry[1]
        lua = container.last_used_at
        if (
            container.state in _LIVE
            and remaining < self.slot_capacity
            and self._entry_lua.get(container_id) != lua
        ):
            heappush(self._mru[container.function_version], (-lua, entry[0], container))
            self._entry_lua[container_id] = lua

    def in_use_count(self, container_id: str) -> int:
        """In-flight executions currently hosted by ``container_id``."""
        return self._in_use.get(container_id, 0)

    def pick_mru(self, version: int) -> Container | None:
        """Most recently used warm sandbox of ``version`` with a free slot.

        O(log n) amortized: stale heap entries (evicted, re-used at a newer
        timestamp, or saturated) are discarded as they surface.  The returned
        container's index entry is consumed — the caller reserves it and
        :meth:`serve` re-inserts it.

        Ties on ``last_used_at`` resolve to the earliest-created sandbox,
        matching a linear ``max()`` scan over the pool in insertion order.
        """
        heap = self._mru.get(version)
        if not heap:
            return None
        entry_lua = self._entry_lua
        while heap:
            neg_lua, _, container = heappop(heap)
            cid = container.container_id
            if entry_lua.get(cid) != -neg_lua:
                continue  # superseded by a newer entry for the same sandbox
            # Consumed either way: a dead or saturated sandbox is re-indexed
            # by serve()/release() if it becomes offerable again.
            del entry_lua[cid]
            if container.state in _LIVE and self._in_use.get(cid, 0) < self.slot_capacity:
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
        """Evict every warm container; returns how many were evicted.

        Sandboxes evicted earlier are pruned first, so a function that is
        updated over and over keeps one generation of dead sandboxes at most.
        """
        if self._dead:
            self.prune()
        evicted = 0
        for container in self._containers:
            if container.state in _LIVE:
                container.evict()
                evicted += 1
        for heap in self._mru.values():
            heap.clear()
        self._entry_lua.clear()
        self._dead += evicted
        return evicted

    def evict(self, containers: list[Container]) -> None:
        """Evict ``containers``; prune once the dead outnumber the rest."""
        entry_lua = self._entry_lua
        for container in containers:
            container.evict()
            entry_lua.pop(container.container_id, None)
        self._dead += len(containers)
        if 2 * self._dead > len(self._containers):
            self.prune()

    def prune(self) -> None:
        """Drop evicted containers from the bookkeeping structures.

        The creation log is left untouched: eviction policies hold cursors
        into it, and its memory cost is bounded by the number of cold starts,
        not the number of invocations.
        """
        if not self._dead:
            return
        self._dead = 0
        self._containers = [c for c in self._containers if c.state is not _EVICTED]
        self._index = {cid: entry for cid, entry in self._index.items() if entry[1].state is not _EVICTED}

    def __iter__(self) -> Iterator[Container]:
        return iter(self._containers)

    def __len__(self) -> int:
        return len(self._containers)
