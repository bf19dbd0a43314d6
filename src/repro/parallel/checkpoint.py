"""Shard-outcome checkpointing: crash/SIGKILL-survivable sharded replay.

A sharded replay is a bag of independent, pure shard computations — which
makes it checkpointable *for free*: persisting each completed
:class:`~repro.parallel.merge.TraceShardOutcome` /
:class:`~repro.parallel.merge.WorkflowShardOutcome` as it lands lets a
re-run replay only the missing shards, and the merged result is byte
identical to an uninterrupted run because the merge is a deterministic
function of the outcome set (sorted by shard index) and every persisted
outcome *is* the outcome a fresh replay of that shard would produce.

Two safety properties:

* **Atomicity** — each outcome is pickled, digest-prefixed, written to a
  same-directory temp file and published with ``os.replace``.  A crash
  mid-write leaves a temp file, never a truncated checkpoint; a crash
  between checkpoints loses at most the shards in flight.
* **Keying** — checkpoints live under a *plan fingerprint*: a SHA-256
  over the platform recipe (provider class, simulation config incl. seed,
  clock, deployed functions), ``keep_records``, and every shard's full
  content (for trace shards, each request; for scenario shards, the
  recipe + seed; for workflow shards, each arrival).  Any change to the
  workload, the seed, the config or the sharding lands in a different
  directory, so ``resume=True`` can never splice stale outcomes into a
  different plan.  Corrupt, truncated or mismatched checkpoint files are
  ignored (the shard simply replays); misuse of the store itself raises
  :class:`~repro.exceptions.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from pathlib import Path
from typing import Mapping, Sequence

from ..exceptions import CheckpointError
from ..utils.io import atomic_write_bytes
from .plan import ScenarioShard, TraceShard, WorkflowShard
from .snapshot import PlatformSnapshot

#: Bumped whenever the checkpoint file or fingerprint layout changes, or
#: the pickled layout of an outcome does (2: reservoirs defer their tags;
#: 3: streaming accumulators pickle as row-form flat arrays; 4: trace
#: outcomes carry one ``sink`` field; 5: record-mode sinks keep one row of
#: step values per invocation).
_FORMAT_VERSION = 5

_CHECKPOINT_NAME = re.compile(r"^shard_(\d{5})\.ckpt$")


def _update_shard(hasher, shard) -> None:
    """Feed one shard's identity into the fingerprint, streamed.

    Trace shards can carry millions of requests; hashing them one repr at
    a time keeps peak memory at one request's repr, not the whole shard's.
    """
    if isinstance(shard, TraceShard):
        hasher.update(f"trace:{shard.index}:{len(shard.requests)}".encode())
        for index, request in shard.requests:
            hasher.update(f"{index}:{request!r}".encode())
    elif isinstance(shard, ScenarioShard):
        hasher.update(
            f"scenario:{shard.index}:{shard.scenario_name}:{shard.seed}:"
            f"{shard.duration_s}:{shard.sources!r}".encode()
        )
    elif isinstance(shard, WorkflowShard):
        hasher.update(f"workflow:{shard.index}:{len(shard.arrivals)}".encode())
        for index, arrival in shard.arrivals:
            hasher.update(f"{index}:{arrival!r}".encode())
    else:  # a custom shard type: fall back to its own repr
        hasher.update(repr(shard).encode())


def plan_fingerprint(
    snapshot: PlatformSnapshot, shards: Sequence, keep_records: bool
) -> str:
    """SHA-256 hex fingerprint of one replay plan.

    Every input that determines a shard outcome is covered: the platform
    rebuild recipe (class, simulation config including the seed, clock
    start, function packages/configs), the record/streaming mode, and the
    full shard contents.  All components are frozen dataclasses or enums
    with value-based reprs, so the fingerprint is stable across processes
    and runs.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{_FORMAT_VERSION}".encode())
    hasher.update(
        f"{snapshot.platform_class.__module__}.{snapshot.platform_class.__qualname__}".encode()
    )
    hasher.update(repr(snapshot.simulation).encode())
    hasher.update(repr(snapshot.clock_start).encode())
    for function in snapshot.functions:
        hasher.update(repr(function).encode())
    hasher.update(repr(snapshot.init_kwargs).encode())
    hasher.update(f"keep_records:{keep_records}".encode())
    for shard in shards:
        _update_shard(hasher, shard)
    return hasher.hexdigest()


class CheckpointStore:
    """Atomically persists and reloads shard outcomes for one replay plan."""

    def __init__(self, directory: Path | str, fingerprint: str):
        self.fingerprint = fingerprint
        self.directory = Path(directory) / fingerprint[:32]
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CheckpointError(
                f"cannot create checkpoint directory {self.directory}: {error}"
            ) from error

    @classmethod
    def for_plan(
        cls,
        directory: Path | str,
        snapshot: PlatformSnapshot,
        shards: Sequence,
        keep_records: bool,
    ) -> "CheckpointStore":
        return cls(directory, plan_fingerprint(snapshot, shards, keep_records))

    def _path(self, shard_index: int) -> Path:
        return self.directory / f"shard_{shard_index:05d}.ckpt"

    def store(self, outcome) -> Path:
        """Persist one completed shard outcome (tmp + rename + digest)."""
        payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        return atomic_write_bytes(
            self._path(outcome.shard_index), digest.encode("ascii") + b"\n" + payload
        )

    def load(self) -> Mapping[int, object]:
        """Reload every intact checkpoint as ``{shard_index: outcome}``.

        Unreadable, truncated, digest-mismatched or misnamed files are
        skipped — the shard will simply be replayed — so a checkpoint
        directory can never make a resume *worse* than a fresh run.
        """
        outcomes: dict[int, object] = {}
        for path in sorted(self.directory.iterdir()):
            match = _CHECKPOINT_NAME.match(path.name)
            if match is None:
                continue
            try:
                blob = path.read_bytes()
                digest, _, payload = blob.partition(b"\n")
                if digest.decode("ascii") != hashlib.sha256(payload).hexdigest():
                    continue
                outcome = pickle.loads(payload)
            except Exception:
                continue
            if getattr(outcome, "shard_index", None) != int(match.group(1)):
                continue
            outcomes[outcome.shard_index] = outcome
        return outcomes
