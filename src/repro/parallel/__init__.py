"""Deterministic sharded parallel replay.

Partitions a workload (or workflow arrival stream) into function-disjoint
shards, replays each shard on its own rebuilt platform — sequentially
in-process or across ``multiprocessing`` workers — and merges the results
deterministically.  The headline guarantee, pinned by
``tests/test_parallel_equivalence.py``: **parallel results are bit-identical
(record mode) or exactly mergeable (streaming mode) to serial replay**, on
any worker count and either backend.

Layout:

* :mod:`~repro.parallel.plan` — :class:`ShardPlanner`: per-function /
  per-component partitioning with LPT load balancing over invocation counts;
* :mod:`~repro.parallel.snapshot` — :class:`PlatformSnapshot`: the
  picklable recipe workers rebuild fresh platforms from (population replay
  snapshots an empty platform);
* :mod:`~repro.parallel.executor` — the sequential reference backend, the
  process backend, and the one sharded-replay driver behind the
  :func:`run_workload_sharded` / :func:`run_workflows_sharded` entry points
  and :func:`repro.population.replay_population`
  (``SimulatedPlatform.run_workload(..., workers=N)`` delegates here);
* :mod:`~repro.parallel.merge` — deterministic shard-outcome merging, with
  the exact-vs-approximate contract documented per statistic;
* :mod:`~repro.parallel.supervisor` — :class:`ShardSupervisor`: heartbeat
  timeouts, bounded retries with backoff, pool-breakage recovery, graceful
  degradation and poison-shard quarantine (opt-in via
  :class:`SupervisorConfig`);
* :mod:`~repro.parallel.checkpoint` — :class:`CheckpointStore`: atomic
  per-shard outcome persistence keyed by a plan fingerprint, powering
  ``checkpoint_dir=... , resume=True`` crash recovery.
"""

from .checkpoint import CheckpointStore, plan_fingerprint
from .executor import BACKENDS, run_workload_sharded, run_workflows_sharded
from .merge import (
    TraceShardOutcome,
    WorkflowShardOutcome,
    merge_trace_outcomes,
    merge_workflow_outcomes,
)
from .plan import ScenarioShard, ShardPlanner, TraceShard, WorkflowShard
from .snapshot import FunctionSnapshot, PlatformSnapshot
from .supervisor import (
    InjectedWorkerFault,
    ShardFault,
    ShardSupervisor,
    SupervisionReport,
    SupervisorConfig,
    WorkerFaultInjection,
)

__all__ = [
    "BACKENDS",
    "CheckpointStore",
    "FunctionSnapshot",
    "InjectedWorkerFault",
    "PlatformSnapshot",
    "ScenarioShard",
    "ShardFault",
    "ShardPlanner",
    "ShardSupervisor",
    "SupervisionReport",
    "SupervisorConfig",
    "TraceShard",
    "TraceShardOutcome",
    "WorkerFaultInjection",
    "WorkflowShard",
    "WorkflowShardOutcome",
    "merge_trace_outcomes",
    "merge_workflow_outcomes",
    "plan_fingerprint",
    "run_workload_sharded",
    "run_workflows_sharded",
]
