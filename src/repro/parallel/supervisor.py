"""Supervised shard execution: timeouts, retries, and graceful degradation.

The plain process backend in :mod:`repro.parallel.executor` collects bare
``future.result()`` calls: one OOM-killed or wedged worker loses the whole
replay.  :class:`ShardSupervisor` wraps the pool with the recovery ladder a
long replay needs, climbing one rung at a time:

1. **Heartbeats, not result timeouts.**  Every shard attempt registers a
   beat (pid, monotonic timestamp, attempt number) in a shared
   :class:`multiprocessing.Manager` dict and re-beats every
   ``heartbeat_interval_s`` from a daemon thread.  A *slow* shard keeps
   beating and is left alone — the point of heartbeats over
   ``result(timeout=)`` — while a shard whose beat goes stale for
   ``shard_timeout_s`` is presumed wedged and its worker is SIGKILLed.
2. **Bounded retries with exponential backoff.**  A failed attempt (clean
   exception, killed worker, or pool breakage while running) requeues the
   shard with ``backoff_base_s * 2**(attempts-1)`` delay, capped at
   ``backoff_max_s``, for at most ``max_retries`` retries.  Because every
   shard outcome is a pure function of ``(snapshot, shard)``, a retried
   shard reproduces exactly the outcome an untroubled first attempt would
   have produced — retries are invisible in the merged result.
3. **Pool-breakage recovery.**  A dead worker breaks the whole
   ``ProcessPoolExecutor`` (every pending future fails).  The supervisor
   rebuilds the pool and requeues only the incomplete shards.  Attempt
   blame on a break is conservative: every shard that had *started* (has a
   beat for its current attempt) but not completed is charged one attempt —
   the culprit cannot be distinguished from innocent co-tenants, so
   concurrent shards may burn an attempt to someone else's crash; queued,
   never-started shards requeue for free.
4. **Graceful degradation.**  After ``degrade_after_breaks`` pool
   breakages the worker count is halved (floored at ``min_workers``) on
   each further break — repeated breakage usually means memory pressure,
   and fewer concurrent rebuilds is the generic mitigation.
5. **Quarantine.**  A shard that exhausts its retries gets one last
   in-process, sequential replay in the supervisor's own process (when
   ``quarantine=True``) — immune to pool breakage and to the test-only
   fault injection, and bit-identical by the same purity argument.
6. **Fail fast.**  Only when quarantine is disabled or fails does the run
   abort: pending futures are cancelled and a structured
   :class:`~repro.exceptions.ShardReplayError` surfaces the poison shard's
   provenance (index, functions, attempts, cause) plus every completed
   outcome, so a checkpointing caller loses no finished work.

The sequential backend gets the same retry/quarantine ladder minus the
process machinery (no heartbeats, no pool to break); only ``flaky`` fault
injection applies there.
"""

from __future__ import annotations

import io
import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..exceptions import ConfigurationError, ShardReplayError

#: Exit status used by injected worker crashes (visible in pool tracebacks).
_CRASH_EXIT_STATUS = 13

#: Recovery actions log here: WARNING for failures the ladder absorbed
#: (retry, timeout kill, pool break, quarantine), INFO for degradation.
logger = logging.getLogger(__name__)


class InjectedWorkerFault(RuntimeError):
    """The exception raised by ``flaky`` fault injection (test-only)."""


@dataclass(frozen=True)
class ShardFault:
    """One injected worker fault, applied to a single shard (test-only).

    ``mode`` is one of ``"crash"`` (``os._exit`` — kills the worker
    process, breaking the pool), ``"hang"`` (register one beat, then sleep
    ``hang_s`` *without* beating — triggers stale-beat detection), or
    ``"flaky"`` (raise :class:`InjectedWorkerFault` — a clean retryable
    failure).  The fault fires while the shard's consumed attempt count is
    below ``attempts``, so ``attempts=1`` means "fail once, then succeed".
    """

    mode: str
    attempts: int = 1
    hang_s: float = 3600.0

    def __post_init__(self):
        if self.mode not in ("crash", "hang", "flaky"):
            raise ConfigurationError(f"unknown fault mode {self.mode!r}")


@dataclass(frozen=True)
class WorkerFaultInjection:
    """Test-only fault plan for workers, keyed by shard index (picklable).

    Applied inside the supervised worker entry point only — the quarantine
    replay and the unsupervised path never see it, which is exactly what
    makes quarantine a meaningful last resort in tests.
    """

    faults: Mapping[int, ShardFault] = field(default_factory=dict)

    def fault_for(self, shard_index: int, attempt: int) -> ShardFault | None:
        fault = self.faults.get(shard_index)
        if fault is not None and attempt < fault.attempts:
            return fault
        return None


@dataclass(frozen=True)
class SupervisorConfig:
    """Recovery policy for supervised shard execution.

    All knobs are policy, not mechanism (the adaptive-middleware argument):
    ``shard_timeout_s=None`` disables stale-beat detection entirely,
    ``max_retries=0`` makes every failure terminal, ``quarantine=False``
    turns exhaustion straight into :class:`~repro.exceptions.ShardReplayError`.
    """

    #: Kill a started shard whose last heartbeat is older than this (None
    #: disables timeout detection; slow-but-beating shards never time out).
    shard_timeout_s: float | None = 30.0
    #: How often workers beat, and the supervisor's poll cadence.
    heartbeat_interval_s: float = 0.2
    #: Retries allowed per shard beyond its first attempt.
    max_retries: int = 2
    #: Exponential backoff: ``base * 2**(attempts-1)``, capped at ``max``.
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    #: Halve the worker count on every pool break from this one onward.
    degrade_after_breaks: int = 2
    min_workers: int = 1
    #: Replay a retry-exhausted shard in-process before giving up.
    quarantine: bool = True
    #: Test-only worker fault hook (crash / hang / flaky-then-succeed).
    fault_injection: WorkerFaultInjection | None = None

    def __post_init__(self):
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ConfigurationError("shard_timeout_s must be positive (or None)")
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.min_workers < 1:
            raise ConfigurationError("min_workers must be at least 1")
        if self.degrade_after_breaks < 1:
            raise ConfigurationError("degrade_after_breaks must be at least 1")

    def backoff_s(self, attempts: int) -> float:
        """Delay before re-dispatching a shard that has failed ``attempts`` times."""
        return min(self.backoff_max_s, self.backoff_base_s * 2 ** max(0, attempts - 1))


@dataclass
class SupervisionReport:
    """What supervision did during one sharded replay (diagnostic only).

    Surfaced as a plain dict on ``WorkloadResult.supervision`` /
    ``WorkflowReplayResult.supervision``; deliberately excluded from
    ``to_dict()`` so supervised results stay byte-identical to
    unsupervised ones.
    """

    retries: int = 0
    pool_breaks: int = 0
    timeouts: int = 0
    quarantined: list[int] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=dict)
    initial_workers: int = 0
    final_workers: int = 0

    @property
    def degraded(self) -> bool:
        return self.final_workers < self.initial_workers

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "pool_breaks": self.pool_breaks,
            "timeouts": self.timeouts,
            "quarantined": list(self.quarantined),
            "attempts": {str(index): count for index, count in sorted(self.attempts.items())},
            "initial_workers": self.initial_workers,
            "final_workers": self.final_workers,
            "degraded": self.degraded,
        }


#: The replay constants the pool initializer installed in this worker
#: process: ``(worker, snapshot, shared)`` (see :func:`worker_pool`).
_installed: tuple | None = None


def _install(worker, snapshot, shared: tuple) -> None:
    global _installed
    _installed = (worker, snapshot, shared)


def worker_pool(max_workers: int, context, worker, snapshot, shared: tuple = ()):
    """A process pool whose workers receive ``worker``, ``snapshot`` and ``shared`` once.

    Tasks then carry only a shard (see :func:`ship`) and run through
    :func:`run_installed`, so what every shard of a replay shares crosses
    the process boundary once per worker process, not once per shard.
    """
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=context,
        initializer=_install,
        initargs=(worker, snapshot, shared),
    )


def ship(shard, shared: tuple):
    """``shard`` as a task argument of a :func:`worker_pool` pool.

    Without ``shared`` objects that is the shard itself.  Otherwise it is
    the shard pickled with each ``shared`` object replaced by its position,
    which :func:`run_installed` resolves to the worker's installed copy.
    """
    if not shared:
        return shard
    positions = {id(obj): position for position, obj in enumerate(shared)}
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda obj: positions.get(id(obj))
    pickler.dump(shard)
    return buffer.getvalue()


def run_installed(task, keep_records: bool):
    """Worker side of :func:`ship`: replay the shipped shard on the installed worker."""
    worker, snapshot, shared = _installed
    if type(task) is bytes:
        unpickler = pickle.Unpickler(io.BytesIO(task))
        unpickler.persistent_load = shared.__getitem__
        task = unpickler.load()
    return worker(snapshot, task, keep_records)


def _supervised_entry(
    shard_index: int,
    task,
    keep_records: bool,
    attempt: int,
    beats,
    heartbeat_interval_s: float,
    injection: WorkerFaultInjection | None,
):
    """Worker-side wrapper: register heartbeats, apply injected faults, run.

    The first beat is registered synchronously before any fault fires, so
    the supervisor can always tell "started then died" from "never
    started" when it assigns attempt blame after a pool break.
    """
    beats[shard_index] = (os.getpid(), time.monotonic(), attempt)
    if injection is not None:
        fault = injection.fault_for(shard_index, attempt)
        if fault is not None:
            if fault.mode == "crash":
                os._exit(_CRASH_EXIT_STATUS)
            if fault.mode == "hang":
                # Sleep without beating: the initial beat above goes stale
                # and the supervisor's timeout detection SIGKILLs this pid.
                time.sleep(fault.hang_s)
            if fault.mode == "flaky":
                raise InjectedWorkerFault(
                    f"injected flaky failure on shard {shard_index} attempt {attempt}"
                )
    stop = threading.Event()

    def _beat():
        while not stop.wait(heartbeat_interval_s):
            beats[shard_index] = (os.getpid(), time.monotonic(), attempt)

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    try:
        return run_installed(task, keep_records)
    finally:
        stop.set()
        beater.join(timeout=heartbeat_interval_s * 2)


class ShardSupervisor:
    """Drives shards through the recovery ladder documented in the module."""

    def __init__(
        self,
        worker,
        snapshot,
        keep_records: bool,
        workers: int,
        config: SupervisorConfig,
        on_complete: Callable[[object], None] | None = None,
        shared: tuple = (),
    ):
        self._worker = worker
        self._snapshot = snapshot
        self._shared = shared
        self._keep_records = keep_records
        self._workers = workers
        self._config = config
        self._on_complete = on_complete
        self.report = SupervisionReport()

    # -- shared bookkeeping -------------------------------------------------

    def _complete(self, shard, outcome, results: dict) -> None:
        results[shard.index] = outcome
        if self._on_complete is not None:
            self._on_complete(outcome)

    def _fail(self, shard, attempts: int, cause: BaseException | None, results: dict):
        partial = tuple(results[index] for index in sorted(results))
        detail = f": {cause}" if cause is not None else " (worker died without a traceback)"
        error = ShardReplayError(
            f"shard {shard.index} (functions {', '.join(shard.functions)}) failed "
            f"after {attempts} attempt(s){detail}",
            shard_index=shard.index,
            functions=shard.functions,
            attempts=attempts,
            cause=cause,
            partial_outcomes=partial,
        )
        if cause is not None:
            raise error from cause
        raise error

    def _quarantine(self, shard, attempts: dict, results: dict, cause: BaseException | None):
        """Last resort: replay the poison shard in-process, injection-free."""
        logger.warning(
            "shard %d exhausted its retries (%s); replaying in-process quarantine",
            shard.index,
            cause if cause is not None else "worker died without a traceback",
        )
        self.report.quarantined.append(shard.index)
        attempts[shard.index] += 1
        self.report.attempts[shard.index] = attempts[shard.index]
        try:
            outcome = self._worker(self._snapshot, shard, self._keep_records)
        except Exception as error:
            self._fail(shard, attempts[shard.index], error, results)
        else:
            self._complete(shard, outcome, results)

    def _on_attempt_failure(
        self,
        shard,
        attempts: dict,
        results: dict,
        cause: BaseException | None,
    ) -> float | None:
        """Charge one attempt; return its retry backoff, or quarantine or fail.

        Returns the seconds to wait before the retry (the process backend
        requeues the shard with it, the sequential backend sleeps it), or
        ``None`` once the shard has been replayed in quarantine.
        """
        attempts[shard.index] += 1
        self.report.attempts[shard.index] = attempts[shard.index]
        if attempts[shard.index] <= self._config.max_retries:
            self.report.retries += 1
            backoff = self._config.backoff_s(attempts[shard.index])
            logger.warning(
                "shard %d attempt %d failed (%s); retrying after %.2fs backoff",
                shard.index,
                attempts[shard.index],
                cause if cause is not None else "worker died without a traceback",
                backoff,
            )
            return backoff
        if not self._config.quarantine:
            self._fail(shard, attempts[shard.index], cause, results)  # raises
        self._quarantine(shard, attempts, results, cause)
        return None

    # -- sequential backend -------------------------------------------------

    def execute_sequential(self, shards: Sequence) -> list:
        """The in-process ladder: retries + quarantine, no pool machinery."""
        injection = self._config.fault_injection
        if injection is not None:
            for index, fault in injection.faults.items():
                if fault.mode != "flaky":
                    raise ConfigurationError(
                        f"fault mode {fault.mode!r} (shard {index}) requires the "
                        "process backend; the sequential backend only injects 'flaky'"
                    )
        results: dict[int, object] = {}
        attempts = {shard.index: 0 for shard in shards}
        self.report.initial_workers = 1
        self.report.final_workers = 1
        for shard in shards:
            while shard.index not in results:
                fault = injection.fault_for(shard.index, attempts[shard.index]) if injection else None
                try:
                    if fault is not None:
                        raise InjectedWorkerFault(
                            f"injected flaky failure on shard {shard.index} "
                            f"attempt {attempts[shard.index]}"
                        )
                    outcome = self._worker(self._snapshot, shard, self._keep_records)
                except Exception as error:
                    backoff = self._on_attempt_failure(shard, attempts, results, error)
                    if backoff is not None:
                        time.sleep(backoff)
                else:
                    self._complete(shard, outcome, results)
        return [results[shard.index] for shard in shards]

    # -- process backend ----------------------------------------------------

    def execute(self, shards: Sequence, context) -> list:
        config = self._config
        results: dict[int, object] = {}
        attempts = {shard.index: 0 for shard in shards}
        pending: list[tuple[object, float]] = [(shard, 0.0) for shard in shards]
        max_workers = max(1, min(self._workers, len(shards)))
        self.report.initial_workers = max_workers
        self.report.final_workers = max_workers
        killed: set[tuple[int, int]] = set()
        manager = multiprocessing.Manager()
        pool: ProcessPoolExecutor | None = None
        try:
            beats = manager.dict()
            while len(results) < len(shards):
                if pool is None:
                    pool = worker_pool(
                        max_workers, context, self._worker, self._snapshot, self._shared
                    )
                    running: dict = {}
                now = time.monotonic()
                # Dispatch every shard whose backoff has elapsed.
                deferred = []
                broken = False
                for shard, eligible_at in pending:
                    if now < eligible_at:
                        deferred.append((shard, eligible_at))
                        continue
                    try:
                        future = pool.submit(
                            _supervised_entry,
                            shard.index,
                            ship(shard, self._shared),
                            self._keep_records,
                            attempts[shard.index],
                            beats,
                            config.heartbeat_interval_s,
                            config.fault_injection,
                        )
                    except BrokenProcessPool:
                        broken = True
                        deferred.append((shard, eligible_at))
                    else:
                        running[future] = shard
                pending = deferred
                if not broken:
                    if not running:
                        # Everything incomplete is backing off; wait it out.
                        time.sleep(config.heartbeat_interval_s)
                        continue
                    done, _ = wait(
                        set(running),
                        timeout=config.heartbeat_interval_s,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        shard = running.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            broken = True
                            self._charge_break_casualty(shard, attempts, results, pending, beats)
                        except Exception as error:
                            backoff = self._on_attempt_failure(shard, attempts, results, error)
                            if backoff is not None:
                                pending.append((shard, time.monotonic() + backoff))
                        else:
                            self._complete(shard, outcome, results)
                    if not broken:
                        self._kill_stale(running, attempts, beats, killed)
                        continue
                # The pool is broken: every still-running shard is a
                # casualty, the pool is rebuilt, and the worker count may
                # degrade.  (Casualties from the loop above are already
                # charged; these are the futures wait() had not returned.)
                self.report.pool_breaks += 1
                logger.warning(
                    "worker pool broke (break %d); rebuilding and requeueing "
                    "incomplete shards",
                    self.report.pool_breaks,
                )
                for future, shard in list(running.items()):
                    if shard.index not in results:
                        self._charge_break_casualty(shard, attempts, results, pending, beats)
                running.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                if self.report.pool_breaks >= config.degrade_after_breaks:
                    max_workers = max(config.min_workers, max_workers // 2)
                    if max_workers != self.report.final_workers:
                        logger.info(
                            "degrading to %d worker(s) after %d pool break(s)",
                            max_workers,
                            self.report.pool_breaks,
                        )
                    self.report.final_workers = max_workers
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            manager.shutdown()
        return [results[shard.index] for shard in shards]

    def _charge_break_casualty(self, shard, attempts, results, pending, beats) -> None:
        """A shard in flight when the pool broke: charge it only if it started."""
        beat = beats.get(shard.index)
        started = beat is not None and beat[2] == attempts[shard.index]
        if started:
            backoff = self._on_attempt_failure(shard, attempts, results, None)
            if backoff is not None:
                pending.append((shard, time.monotonic() + backoff))
        else:
            pending.append((shard, 0.0))

    def _kill_stale(self, running: Mapping, attempts, beats, killed: set) -> None:
        """SIGKILL workers whose shard heartbeat has gone stale."""
        timeout = self._config.shard_timeout_s
        if timeout is None:
            return
        now = time.monotonic()
        for shard in running.values():
            beat = beats.get(shard.index)
            if beat is None or beat[2] != attempts[shard.index]:
                continue  # not started yet (a break, not a timeout, covers death)
            pid, stamp, _ = beat
            if now - stamp <= timeout or (shard.index, attempts[shard.index]) in killed:
                continue
            killed.add((shard.index, attempts[shard.index]))
            self.report.timeouts += 1
            logger.warning(
                "shard %d heartbeat stale for %.1fs; killing worker pid %d",
                shard.index,
                now - stamp,
                pid,
            )
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # already gone
                pass
