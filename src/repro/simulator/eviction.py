"""Container eviction policies.

Section 6.5 reverse-engineers the AWS Lambda policy: it is deterministic,
agnostic to memory size, execution time, language and code-package size, and
after every period of 380 seconds half of the existing containers are
evicted, i.e. ``D_warm = D_init * 2^-floor(dT / 380s)``.  GCP and Azure have
no published policy; their sandboxes disappear after an idle timeout with
substantial randomness (and Azure's function apps keep instances alive
longer).  The policies below are applied lazily: before every scheduling
decision the platform asks the policy which warm containers should be gone by
``now``.

Because that question is asked once per invocation, :meth:`EvictionPolicy.apply`
is *incremental*: each policy keeps a min-heap of upcoming eviction deadlines
(period boundaries for the half-life policy, per-sandbox expiry instants for
the idle-timeout policies) and only does work when the virtual clock crosses
the earliest deadline — an O(1) peek on the hot path instead of a full-pool
scan.  New sandboxes are discovered through the pool's append-only
:attr:`~repro.simulator.containers.ContainerPool.creation_log`, so ingestion
is O(new containers), not O(pool).

A policy object holds only its parameters.  Everything it learns about one
function — creation-log cursor, deadline heap, eviction counts, timeout
draws and their generator — lives on that function's pool
(:attr:`~repro.simulator.containers.ContainerPool.eviction_state`), so it
dies with the pool and a redeployed function starts from scratch.

The scan-based reference semantics (select every victim by scanning the
warm pool on each request) live in ``tests/test_scheduler_equivalence.py``,
which replays identical traces through both and asserts bit-identical
outcomes.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError
from .containers import Container, ContainerPool, ContainerState

#: The empirically measured AWS eviction period (seconds).
AWS_EVICTION_PERIOD_S = 380.0


class EvictionPolicy(abc.ABC):
    """Decides which warm containers a provider has evicted by ``now``."""

    #: Type of the per-pool state the policy keeps in ``pool.eviction_state``.
    _tracker_type: type

    @abc.abstractmethod
    def apply(self, pool: ContainerPool, now: float) -> int:
        """Evict the containers that are gone by ``now``; return how many."""

    def _tracker(self, pool: ContainerPool):
        """The policy's state for ``pool``, created on first use."""
        tracker = pool.eviction_state
        if tracker is None:
            tracker = pool.eviction_state = self._tracker_type()
        return tracker


@dataclass
class _HalfLifeTracker:
    """Per-pool incremental state of the half-life policy."""

    cursor: int = 0
    #: batch period -> still-tracked members (possibly already evicted
    #: elsewhere; filtered lazily when the batch is processed).
    batches: dict[int, list[Container]] = field(default_factory=dict)
    #: batch period -> the deadline currently scheduled on the heap.  Heap
    #: entries with a different deadline are stale duplicates and skipped.
    scheduled: dict[int, float] = field(default_factory=dict)
    heap: list[tuple[float, int]] = field(default_factory=list)
    #: batch period -> sandboxes this policy evicted from the batch.  The
    #: survivor count must be computed from the batch's full population
    #: (still warm + evicted by this policy), not from whatever is still
    #: warm — otherwise repeated lazy applications (every scheduling
    #: decision reapplies the policy) would halve the survivors again on
    #: every call instead of once per period.  Counting our own evictions
    #: rather than remembering the peak size also keeps the model correct
    #: when sandboxes disappear for other reasons (``update_function``
    #: invalidating all warm containers).
    evicted_counts: dict[int, int] = field(default_factory=dict)


class HalfLifeEvictionPolicy(EvictionPolicy):
    """The AWS policy: every ``period_s`` half of the containers are evicted.

    The eviction is deterministic and application agnostic.  Containers are
    ranked by creation order; at period boundary ``p`` the policy keeps the
    ``floor(initial / 2**p)`` earliest-created warm containers from each
    creation batch, which realises the paper's ``D_init * 2^-p`` model.
    """

    _tracker_type = _HalfLifeTracker

    def __init__(self, period_s: float = AWS_EVICTION_PERIOD_S):
        if period_s <= 0:
            raise ConfigurationError("eviction period must be positive")
        self.period_s = period_s

    def _schedule(self, tracker: _HalfLifeTracker, batch_key: int, deadline: float) -> None:
        tracker.scheduled[batch_key] = deadline
        heapq.heappush(tracker.heap, (deadline, batch_key))

    def _ingest(self, pool: ContainerPool, tracker: _HalfLifeTracker) -> None:
        log = pool.creation_log
        while tracker.cursor < len(log):
            container = log[tracker.cursor]
            tracker.cursor += 1
            batch_key = int(container.created_at // self.period_s)
            members = tracker.batches.setdefault(batch_key, [])
            members.append(container)
            deadline = container.created_at + self.period_s
            if deadline < tracker.scheduled.get(batch_key, float("inf")):
                self._schedule(tracker, batch_key, deadline)

    def apply(self, pool: ContainerPool, now: float) -> int:
        """Incremental application: only batches whose period boundary has
        passed since the last call do any work; otherwise this is an O(1)
        deadline peek."""
        tracker = pool.eviction_state
        if tracker is None:
            tracker = self._tracker(pool)
        if tracker.cursor < len(pool.creation_log):
            self._ingest(pool, tracker)
        evicted = 0
        while tracker.heap and tracker.heap[0][0] <= now:
            deadline, batch_key = heapq.heappop(tracker.heap)
            if tracker.scheduled.get(batch_key) != deadline:
                continue  # stale duplicate entry
            tracker.scheduled.pop(batch_key, None)
            members = [c for c in tracker.batches.get(batch_key, ()) if c.is_warm]
            if not members:
                tracker.batches.pop(batch_key, None)
                continue
            members.sort(key=lambda c: (c.created_at, c.container_id))
            already_evicted = tracker.evicted_counts.get(batch_key, 0)
            # The period count is anchored at the earliest *currently warm*
            # member: if the whole batch vanished
            # (update_function) and was repopulated, the half-life restarts.
            periods = int((now - members[0].created_at) // self.period_s)
            if periods <= 0:
                tracker.batches[batch_key] = members
                self._schedule(tracker, batch_key, members[0].created_at + self.period_s)
                continue
            survivors = (len(members) + already_evicted) >> periods
            victims = members[survivors:]
            if victims:
                pool.evict(victims)
                tracker.evicted_counts[batch_key] = already_evicted + len(victims)
                evicted += len(victims)
            remaining = members[:survivors]
            tracker.batches[batch_key] = remaining
            if remaining:
                self._schedule(
                    tracker, batch_key, remaining[0].created_at + (periods + 1) * self.period_s
                )
            else:
                tracker.batches.pop(batch_key, None)
        return evicted


@dataclass
class _IdleTracker:
    """Per-pool incremental state of the idle-timeout policies."""

    cursor: int = 0
    #: Sandboxes seen in the creation log that were not yet warm (still
    #: cold-starting) when ingested; their timeout draw is deferred until
    #: they first appear warm, matching the scan-based draw order.
    pending: list[Container] = field(default_factory=list)
    heap: list[tuple[float, int, Container]] = field(default_factory=list)
    #: Heap entries pushed so far (the tie-break of equal expiries).
    pushed: int = 0
    #: container_id -> its drawn idle timeout.
    timeouts: dict[str, float] = field(default_factory=dict)
    #: The pool's timeout stream, derived on its first draw.
    rng: np.random.Generator | None = None


class IdleTimeoutEvictionPolicy(EvictionPolicy):
    """GCP/Azure-style policy: evict containers idle longer than a timeout.

    The timeout is randomised per container (log-normal around the mean) to
    reproduce the unpredictable cold-start behaviour observed on those
    platforms.

    ``rng_factory`` maps a function name to that function's private timeout
    stream: every pool draws from its own generator, in its own
    container-creation order, so one function's eviction jitter is a pure
    function of its own history — the isolation sharded replay
    (:mod:`repro.parallel`) depends on.
    """

    _tracker_type = _IdleTracker

    def __init__(
        self,
        mean_idle_timeout_s: float = 900.0,
        jitter_cv: float = 0.3,
        *,
        rng_factory,
    ):
        if mean_idle_timeout_s <= 0:
            raise ConfigurationError("idle timeout must be positive")
        if jitter_cv < 0:
            raise ConfigurationError("jitter_cv must be non-negative")
        self.mean_idle_timeout_s = mean_idle_timeout_s
        self.jitter_cv = jitter_cv
        self._rng_factory = rng_factory

    def _timeout_for(self, pool: ContainerPool, container: Container) -> float:
        tracker = self._tracker(pool)
        timeout = tracker.timeouts.get(container.container_id)
        if timeout is None:
            factor = 1.0
            if self.jitter_cv > 0:
                if tracker.rng is None:
                    tracker.rng = self._rng_factory(pool.function_name)
                sigma = np.sqrt(np.log(1.0 + self.jitter_cv**2))
                factor = float(tracker.rng.lognormal(mean=-sigma**2 / 2.0, sigma=sigma))
            timeout = tracker.timeouts[container.container_id] = self.mean_idle_timeout_s * factor
        return timeout

    def _ingest(self, pool: ContainerPool, tracker: _IdleTracker) -> None:
        log = pool.creation_log
        while tracker.cursor < len(log):
            tracker.pending.append(log[tracker.cursor])
            tracker.cursor += 1
        if not tracker.pending:
            return
        still_pending: list[Container] = []
        for container in tracker.pending:
            if container.state is ContainerState.EVICTED:
                # Gone before the policy ever observed it warm: the
                # scan-based path would never have drawn a timeout either.
                continue
            if not container.is_warm:
                still_pending.append(container)
                continue
            # Drawing here — first application after the sandbox turns warm,
            # in creation order — reproduces the RNG draw sequence of the
            # scan-based path exactly.
            timeout = self._timeout_for(pool, container)
            tracker.pushed += 1
            heapq.heappush(
                tracker.heap, (container.last_used_at + timeout, tracker.pushed, container)
            )
        tracker.pending = still_pending

    def apply(self, pool: ContainerPool, now: float) -> int:
        """Incremental application via a lazy expiry heap.

        A sandbox's scheduled expiry is ``last_used_at + timeout`` *at push
        time*; if it served again in between, the stale deadline surfaces,
        the entry is re-pushed at the true expiry, and nothing is evicted.
        """
        tracker = pool.eviction_state
        if tracker is None:
            tracker = self._tracker(pool)
        if tracker.cursor < len(pool.creation_log) or tracker.pending:
            self._ingest(pool, tracker)
        evicted = 0
        while tracker.heap and tracker.heap[0][0] < now:
            _, seq, container = heapq.heappop(tracker.heap)
            if not container.is_warm:
                continue
            expiry = container.last_used_at + tracker.timeouts[container.container_id]
            # Strict inequality mirrors idle_time(now) > timeout.
            if expiry < now:
                pool.evict([container])
                evicted += 1
            else:
                heapq.heappush(tracker.heap, (expiry, seq, container))
        return evicted
