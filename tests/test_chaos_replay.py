"""Chaos tier: supervised sharded replay under injected worker faults.

The contract pinned here (see ``docs/architecture.md``, "Supervised
execution & checkpointing"): **no recovery action moves a single simulated
number**.  Whatever the supervisor does — retry a crashed worker, SIGKILL
and requeue a hung one, quarantine a poison shard in-process, resume a
SIGKILLed run from checkpoints — the merged result is bit-identical to an
unsupervised, uninterrupted serial replay, because every shard outcome is
a pure function of ``(snapshot, shard)`` and the merge is a deterministic
function of the outcome set.

Fault injection (:class:`repro.parallel.WorkerFaultInjection`) lives in
the supervised worker entry point only, so the quarantine replay and the
serial baseline are naturally immune — which is exactly what makes the
quarantine test meaningful.
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Provider, SimulationConfig
from repro.exceptions import CheckpointError, ConfigurationError, ShardReplayError
from repro.experiments.base import deploy_benchmark
from repro.parallel import (
    CheckpointStore,
    PlatformSnapshot,
    ShardFault,
    ShardPlanner,
    SupervisorConfig,
    WorkerFaultInjection,
    merge_trace_outcomes,
    plan_fingerprint,
)
from repro.parallel.executor import _execute, _replay_trace_shard
from repro.simulator.providers import create_platform
from repro.workload import PoissonArrivals, WorkloadTrace

PROVIDERS = (Provider.AWS, Provider.GCP, Provider.AZURE)

_DEPLOYMENTS = (
    ("web", "dynamic-html", 256),
    ("thumbs", "thumbnailer", 1024),
    ("arch", "compression", 1024),
)

#: Fast supervision defaults for tests: tight heartbeat, minimal backoff.
_FAST = dict(heartbeat_interval_s=0.1, backoff_base_s=0.01, backoff_max_s=0.05)


def _platform(provider: Provider = Provider.AWS, seed: int = 7):
    platform = create_platform(provider, SimulationConfig(seed=seed))
    for fname, benchmark, memory_mb in _DEPLOYMENTS:
        deploy_benchmark(
            platform,
            benchmark,
            memory_mb=memory_mb if platform.limits.memory_static else 0,
            function_name=fname,
        )
    return platform


def _trace(duration_s: float = 30.0):
    return WorkloadTrace.merge(
        WorkloadTrace.synthesize("web", PoissonArrivals(3.0), duration_s=duration_s, rng=31),
        WorkloadTrace.synthesize("thumbs", PoissonArrivals(2.0), duration_s=duration_s, rng=32),
        WorkloadTrace.synthesize("arch", PoissonArrivals(1.0), duration_s=duration_s, rng=33),
    ).materialize()


def _inject(**faults: ShardFault) -> SupervisorConfig:
    plan = {int(key.removeprefix("s")): fault for key, fault in faults.items()}
    return SupervisorConfig(
        fault_injection=WorkerFaultInjection(plan), shard_timeout_s=15.0, **_FAST
    )


# --------------------------------------------------------------- crash/flaky


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_injected_crash_retried_merge_is_bit_identical(provider):
    """A worker killed mid-replay (pool breakage) costs nothing but time."""
    trace = _trace()
    serial = _platform(provider).run_workload(trace)
    supervised = _platform(provider).run_workload(
        trace, workers=3, supervision=_inject(s0=ShardFault("crash", attempts=1))
    )
    assert supervised.records == serial.records
    assert supervised.total_cost_usd == serial.total_cost_usd
    assert supervised.supervision["pool_breaks"] >= 1
    assert supervised.supervision["retries"] >= 1


def test_injected_flaky_streaming_merge_is_exact():
    trace = _trace()
    serial = _platform().run_workload(trace, keep_records=False)
    supervised = _platform().run_workload(
        trace,
        keep_records=False,
        workers=3,
        supervision=_inject(s1=ShardFault("flaky", attempts=2)),
    )
    assert supervised.invocations == serial.invocations
    assert supervised.total_cost_usd == serial.total_cost_usd
    assert supervised.simulated_span_s == serial.simulated_span_s
    assert supervised.supervision["retries"] >= 2


def test_sequential_backend_supervised_flaky_is_bit_identical():
    """The in-process ladder (both-backends half of the chaos contract)."""
    trace = _trace()
    serial = _platform().run_workload(trace)
    supervised = _platform().run_workload(
        trace,
        workers=3,
        backend="sequential",
        supervision=_inject(s0=ShardFault("flaky", attempts=1)),
    )
    assert supervised.records == serial.records
    assert supervised.supervision["retries"] == 1


def test_sequential_backend_rejects_crash_injection():
    with pytest.raises(ConfigurationError, match="requires the process backend"):
        _platform().run_workload(
            _trace(10.0),
            workers=2,
            backend="sequential",
            supervision=_inject(s0=ShardFault("crash")),
        )


# ------------------------------------------------------------------- hangs


def test_injected_hang_times_out_and_requeues():
    """A wedged worker (stale heartbeat) is SIGKILLed and its shard retried."""
    trace = _trace()
    serial = _platform().run_workload(trace)
    config = SupervisorConfig(
        fault_injection=WorkerFaultInjection({2: ShardFault("hang", attempts=1, hang_s=120.0)}),
        shard_timeout_s=1.0,
        **_FAST,
    )
    start = time.monotonic()
    supervised = _platform().run_workload(trace, workers=3, supervision=config)
    elapsed = time.monotonic() - start
    assert supervised.records == serial.records
    assert supervised.supervision["timeouts"] >= 1
    assert supervised.supervision["retries"] >= 1
    # Recovery must cost roughly the timeout, nowhere near the 120s hang.
    assert elapsed < 60.0


# -------------------------------------------------------------- quarantine


def test_poison_shard_quarantined_in_process_still_bit_identical():
    """Retries exhausted -> in-process replay (immune to injection) saves it."""
    trace = _trace()
    serial = _platform().run_workload(trace)
    config = SupervisorConfig(
        fault_injection=WorkerFaultInjection({0: ShardFault("flaky", attempts=99)}),
        max_retries=1,
        quarantine=True,
        **_FAST,
    )
    supervised = _platform().run_workload(trace, workers=3, supervision=config)
    assert supervised.records == serial.records
    assert supervised.supervision["quarantined"] == [0]


def test_exhausted_retries_without_quarantine_raise_with_provenance():
    trace = _trace()
    config = SupervisorConfig(
        fault_injection=WorkerFaultInjection({0: ShardFault("flaky", attempts=99)}),
        max_retries=1,
        quarantine=False,
        **_FAST,
    )
    with pytest.raises(ShardReplayError) as excinfo:
        _platform().run_workload(trace, workers=3, supervision=config)
    error = excinfo.value
    assert error.shard_index == 0
    assert error.attempts == 2  # first attempt + one retry
    assert error.functions  # shard provenance rides along
    # Completed sibling shards are salvaged for checkpointing callers.
    assert all(outcome.shard_index != 0 for outcome in error.partial_outcomes)


def test_repeated_breaks_degrade_worker_count():
    trace = _trace()
    serial = _platform().run_workload(trace)
    config = SupervisorConfig(
        fault_injection=WorkerFaultInjection({0: ShardFault("crash", attempts=2)}),
        degrade_after_breaks=1,
        shard_timeout_s=15.0,
        **_FAST,
    )
    supervised = _platform().run_workload(trace, workers=3, supervision=config)
    assert supervised.records == serial.records
    assert supervised.supervision["pool_breaks"] >= 2
    assert supervised.supervision["degraded"]
    assert supervised.supervision["final_workers"] < supervised.supervision["initial_workers"]


# ------------------------------------------------------- checkpoint/resume


def test_sigkill_midrun_resume_is_byte_identical(tmp_path):
    """Crash after some shards checkpointed -> resume replays only the rest.

    The first (sequential, deterministic) run dies on its third shard after
    the first two were checkpointed; the resume run would fail loudly if it
    re-ran a completed shard, because *those* shards are poisoned on the
    second attempt's injection plan — completing proves they were skipped.
    """
    trace = _trace()
    serial = _platform().run_workload(trace)
    first = SupervisorConfig(
        fault_injection=WorkerFaultInjection({2: ShardFault("flaky", attempts=99)}),
        max_retries=0,
        quarantine=False,
        **_FAST,
    )
    with pytest.raises(ShardReplayError):
        _platform().run_workload(
            trace,
            workers=3,
            backend="sequential",
            supervision=first,
            checkpoint_dir=tmp_path,
        )
    checkpoints = list(tmp_path.rglob("*.ckpt"))
    assert len(checkpoints) == 2  # the two healthy shards persisted
    second = SupervisorConfig(
        fault_injection=WorkerFaultInjection(
            {0: ShardFault("flaky", attempts=99), 1: ShardFault("flaky", attempts=99)}
        ),
        max_retries=0,
        quarantine=False,
        **_FAST,
    )
    resumed = _platform().run_workload(
        trace, workers=3, supervision=second, checkpoint_dir=tmp_path, resume=True
    )
    assert resumed.records == serial.records
    assert resumed.total_cost_usd == serial.total_cost_usd
    assert resumed.simulated_span_s == serial.simulated_span_s


def _resume_from_streaming_checkpoints(tmp_path, trace):
    """Checkpoint a 3-shard streaming replay of ``trace``, then resume it
    with every re-run shard poisoned, so the result comes from the
    checkpoints alone.  Returns (checkpointed outcomes, resumed, serial)."""
    serial = _platform().run_workload(trace, keep_records=False)
    _platform().run_workload(
        trace, workers=3, backend="sequential", keep_records=False, checkpoint_dir=tmp_path
    )
    (directory,) = {path.parent for path in tmp_path.rglob("*.ckpt")}
    outcomes = CheckpointStore(tmp_path, directory.name).load()
    assert len(outcomes) == 3
    poisoned = SupervisorConfig(
        fault_injection=WorkerFaultInjection(
            {index: ShardFault("flaky", attempts=99) for index in range(3)}
        ),
        max_retries=0,
        quarantine=False,
        **_FAST,
    )
    resumed = _platform().run_workload(
        trace,
        workers=3,
        keep_records=False,
        supervision=poisoned,
        checkpoint_dir=tmp_path,
        resume=True,
    )
    assert repr(resumed.per_function()) == repr(serial.per_function())
    assert resumed.total_cost_usd.hex() == serial.total_cost_usd.hex()
    assert resumed.simulated_span_s.hex() == serial.simulated_span_s.hex()
    return outcomes


def test_streaming_resume_with_untagged_reservoirs_is_byte_identical(tmp_path):
    """Checkpointed streaming shards carry row-form accumulators whose
    client-time samples are plain lists (no reservoir, no tag drawn);
    resuming from them merges to exactly the serial streaming result."""
    outcomes = _resume_from_streaming_checkpoints(tmp_path, _trace())
    samples = [
        sample for outcome in outcomes.values() for sample in outcome.sink.samples
    ]
    assert samples and all(type(sample) is list and sample for sample in samples)


def test_streaming_resume_with_promoted_rows_is_byte_identical(tmp_path):
    """A function past the reservoir capacity checkpoints a promoted
    (summary) row next to plain list rows; resuming merges to exactly the
    serial streaming result."""
    outcomes = _resume_from_streaming_checkpoints(tmp_path, _trace(duration_s=400.0))
    kinds = {
        type(sample).__name__
        for outcome in outcomes.values()
        for sample in outcome.sink.samples
    }
    assert kinds == {"list", "StreamingSummary"}


def test_resume_ignores_corrupt_checkpoints(tmp_path):
    trace = _trace()
    serial = _platform().run_workload(trace)
    complete = _platform().run_workload(trace, workers=3, checkpoint_dir=tmp_path)
    assert complete.records == serial.records
    checkpoints = sorted(tmp_path.rglob("*.ckpt"))
    assert len(checkpoints) == 3
    checkpoints[0].write_bytes(checkpoints[0].read_bytes()[: 40])  # truncate
    checkpoints[1].write_bytes(b"garbage\nnot a pickle")
    resumed = _platform().run_workload(
        trace, workers=3, checkpoint_dir=tmp_path, resume=True
    )
    assert resumed.records == serial.records


def test_changed_plan_lands_in_a_different_fingerprint(tmp_path):
    """A different seed (or trace/config) can never splice stale outcomes."""
    trace = _trace()
    _platform(seed=7).run_workload(trace, workers=2, checkpoint_dir=tmp_path)
    _platform(seed=8).run_workload(trace, workers=2, checkpoint_dir=tmp_path)
    fingerprints = {path.parent.name for path in tmp_path.rglob("*.ckpt")}
    assert len(fingerprints) == 2


def test_plan_fingerprint_is_stable_and_sensitive():
    trace = _trace(10.0)
    platform = _platform()
    snapshot = PlatformSnapshot.capture(platform)
    shards = ShardPlanner().plan_trace(iter(trace), 3)
    first = plan_fingerprint(snapshot, shards, keep_records=True)
    second = plan_fingerprint(snapshot, shards, keep_records=True)
    assert first == second
    assert plan_fingerprint(snapshot, shards, keep_records=False) != first
    assert plan_fingerprint(snapshot, shards[:-1], keep_records=True) != first


def test_resume_without_checkpoint_dir_is_a_checkpoint_error():
    with pytest.raises(CheckpointError):
        _platform().run_workload(_trace(10.0), workers=2, resume=True)


def test_workflow_supervised_crash_and_resume(tmp_path):
    """The workflow entry point shares the whole ladder + checkpoint path."""
    from repro.workflows import standard_workflow, synthesize_workflow_arrivals
    from repro.workflows.spec import merge_workflow_arrivals

    def arrivals():
        spec_a, _ = standard_workflow("pipeline")
        spec_b, _ = standard_workflow("fanout", fan_out=3)
        return merge_workflow_arrivals(
            synthesize_workflow_arrivals(spec_a, PoissonArrivals(1.0), duration_s=30, rng=1),
            synthesize_workflow_arrivals(spec_b, PoissonArrivals(1.0), duration_s=30, rng=2),
        )

    def workflow_platform():
        platform = create_platform(Provider.AWS, SimulationConfig(seed=7))
        deployed = set()
        for workflow in ("pipeline", "fanout"):
            _, functions = standard_workflow(workflow, fan_out=3)
            for deployment in functions:
                if deployment.function_name in deployed:
                    continue
                deployed.add(deployment.function_name)
                deploy_benchmark(
                    platform,
                    deployment.benchmark,
                    memory_mb=deployment.memory_mb if platform.limits.memory_static else 0,
                    function_name=deployment.function_name,
                )
        return platform

    stream = arrivals()
    serial = workflow_platform().run_workflows(stream)
    supervised = workflow_platform().run_workflows(
        stream,
        workers=2,
        supervision=_inject(s0=ShardFault("crash", attempts=1)),
        checkpoint_dir=tmp_path,
    )
    serial_sorted = sorted(serial.executions, key=lambda e: e.execution_index)
    assert supervised.executions == serial_sorted
    assert supervised.cost_usd_total == serial.cost_usd_total
    assert supervised.supervision["pool_breaks"] >= 1
    # And a resume run replays nothing (all shards checkpointed).
    resumed = workflow_platform().run_workflows(
        stream, workers=2, checkpoint_dir=tmp_path, resume=True
    )
    assert resumed.executions == serial_sorted
    assert resumed.cost_usd_total == serial.cost_usd_total


# ---------------------------------------------------- unsupervised fail-fast


def _failing_worker(snapshot, shard, keep_records):
    """Module-level (picklable) worker: poison shard 0, slow elsewhere."""
    if shard.index == 0:
        raise RuntimeError("poison shard")
    marker_dir = os.environ.get("CHAOS_MARKER_DIR")
    if marker_dir:
        with open(os.path.join(marker_dir, f"started_{shard.index}"), "w") as marker:
            marker.write("1")
    time.sleep(1.2)
    return _replay_trace_shard(snapshot, shard, keep_records)


def test_unsupervised_failure_cancels_pending_shards(tmp_path, monkeypatch):
    """Satellite: the first shard error cancels queued work instead of
    letting every remaining shard run to completion first."""
    monkeypatch.setenv("CHAOS_MARKER_DIR", str(tmp_path))
    # Six single-function shards: enough that most sit in the executor's
    # pending list (cancellable) rather than its small internal call queue.
    platform = create_platform(Provider.AWS, SimulationConfig(seed=7))
    for index in range(6):
        deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name=f"ff-{index}")
    trace = WorkloadTrace.merge(
        *(
            WorkloadTrace.synthesize(
                f"ff-{index}", PoissonArrivals(2.0), duration_s=10.0, rng=40 + index
            )
            for index in range(6)
        )
    ).materialize()
    snapshot = PlatformSnapshot.capture(platform)
    shards = ShardPlanner().plan_trace(iter(trace), 6)
    assert len(shards) == 6
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="poison shard"):
        _execute(_failing_worker, snapshot, shards, True, 1, "process")
    elapsed = time.monotonic() - start
    started = {int(path.name.removeprefix("started_")) for path in tmp_path.iterdir()}
    # Shard 0 fails ~instantly; the single-worker pool's call queue may
    # already hold up to two more shards (they still run), but everything
    # behind them must have been cancelled — running all five healthy
    # shards serially would take >6s.
    assert len(started) <= 2
    assert not started & {3, 4, 5}
    assert elapsed < 4.5


# ------------------------------------------------------- merge-order algebra


_MERGE_CACHE: dict = {}


def _merge_fixture() -> dict:
    """Replay the three shards once; reuse the outcomes across examples."""
    if not _MERGE_CACHE:
        platform = _platform()
        snapshot = PlatformSnapshot.capture(platform)
        shards = ShardPlanner().plan_trace(iter(_trace(20.0)), 3)
        outcomes = [_replay_trace_shard(snapshot, shard, False) for shard in shards]
        reference = merge_trace_outcomes(
            platform.provider, list(outcomes), keep_records=False, wall_clock_s=0.0
        )
        _MERGE_CACHE.update(
            provider=platform.provider, outcomes=outcomes, reference=reference
        )
    return _MERGE_CACHE


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(list(range(3))))
def test_checkpoint_merge_order_never_changes_the_summary(order):
    """Hypothesis: outcomes merge identically in any completion/reload order."""
    cache = _merge_fixture()
    shuffled = [cache["outcomes"][index] for index in order]
    merged = merge_trace_outcomes(
        cache["provider"], shuffled, keep_records=False, wall_clock_s=0.0
    )
    reference = cache["reference"]
    assert merged.invocations == reference.invocations
    assert merged.total_cost_usd == reference.total_cost_usd
    assert merged.simulated_span_s == reference.simulated_span_s
    assert merged.cold_start_total == reference.cold_start_total
    per_merged = merged.per_function()
    per_reference = reference.per_function()
    assert set(per_merged) == set(per_reference)
    for fname in per_merged:
        assert per_merged[fname].total_cost_usd == per_reference[fname].total_cost_usd
        assert (
            per_merged[fname].client_time.percentiles
            == per_reference[fname].client_time.percentiles
        )


def test_checkpoint_store_roundtrip_preserves_outcomes(tmp_path):
    platform = _platform()
    snapshot = PlatformSnapshot.capture(platform)
    shards = ShardPlanner().plan_trace(iter(_trace(15.0)), 3)
    store = CheckpointStore.for_plan(tmp_path, snapshot, shards, keep_records=True)
    outcomes = [_replay_trace_shard(snapshot, shard, True) for shard in shards]
    for outcome in outcomes:
        store.store(outcome)
    reloaded = store.load()
    assert sorted(reloaded) == [shard.index for shard in shards]
    direct = merge_trace_outcomes(platform.provider, outcomes, True, 0.0)
    revived = merge_trace_outcomes(platform.provider, list(reloaded.values()), True, 0.0)
    assert revived.records == direct.records
    assert revived.total_cost_usd == direct.total_cost_usd


# ----------------------------------------------------------------- CLI codes


def test_cli_exit_codes_for_failure_classes(tmp_path):
    from repro.cli import EXIT_CHECKPOINT, EXIT_CONFIG, main

    base = [
        "workload",
        "--duration",
        "10",
        "--rate",
        "1",
        "--providers",
        "aws",
    ]
    # resume without a checkpoint dir -> checkpoint misuse (4)
    assert main(base + ["--workers", "2", "--resume"]) == EXIT_CHECKPOINT
    # supervision flags without --workers -> configuration error (2)
    assert main(base + ["--shard-timeout", "5"]) == EXIT_CONFIG
    # the happy path with supervision + checkpointing stays 0
    assert (
        main(
            base
            + [
                "--workers",
                "2",
                "--shard-timeout",
                "30",
                "--shard-retries",
                "1",
                "--checkpoint-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    # and a --resume immediately after replays nothing but still succeeds
    assert (
        main(
            base
            + ["--workers", "2", "--checkpoint-dir", str(tmp_path), "--resume"]
        )
        == 0
    )
