"""Scheduler equivalence: the indexed fast path vs the scan-based semantics.

The indexed warm-pool scheduler (per-version MRU heaps, occupancy multiset,
lazy eviction-deadline heaps) must be a pure *performance* change: replaying
the same trace with the same seed has to produce bit-identical schedules —
the same container ids, cold-start counts, costs, latencies and warm-pool
sizes — as the original implementation, which re-scanned the pool on every
request.

``_ReferenceSchedulerMixin`` below re-implements those original semantics on
top of the current platform (linear warm-list scan + ``max()`` MRU pick +
a full scan-based eviction pass per request, ``_apply_full``), and the
tests replay identical Poisson / bursty / diurnal traces through both paths
on every provider.  Reference trace replays run the generator loop, the
one that reaches the overridden ``_acquire_container``.
"""

from __future__ import annotations

import pytest

from repro.config import Provider, SimulationConfig, StartType
from repro.experiments.base import deploy_benchmark
from repro.simulator.containers import Container
from repro.simulator.eviction import HalfLifeEvictionPolicy, IdleTimeoutEvictionPolicy
from repro.simulator.providers import (
    AWSLambdaSimulator,
    AzureFunctionsSimulator,
    GoogleCloudFunctionsSimulator,
    create_platform,
)
from repro.workload import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    WorkloadEngine,
    WorkloadTrace,
)

from generator_loop import generator_run


def _select_half_life(policy, pool, now):
    """Half-life victims by scanning the warm pool, batch by batch."""
    warm = pool.warm_containers()
    if not warm:
        return []
    # Within each creation batch, the survivors after p periods are the
    # first floor(initial_batch_size / 2**p) by creation order.
    victims = []
    batches = {}
    for container in warm:
        batch_key = int(container.created_at // policy.period_s)
        batches.setdefault(batch_key, []).append(container)
    for batch_key, batch in batches.items():
        batch.sort(key=lambda c: (c.created_at, c.container_id))
        already_evicted = policy._evicted_counts.get((pool.function_name, batch_key), 0)
        initial = len(batch) + already_evicted
        periods = int((now - batch[0].created_at) // policy.period_s)
        if periods <= 0:
            continue
        # Earlier victims were the latest-created, so the still-warm batch
        # occupies the earliest positions of the full population.
        victims.extend(batch[initial >> periods:])
    return victims


def _select_idle(policy, pool, now):
    """Idle-timeout victims by scanning the warm pool."""
    return [
        container
        for container in pool.warm_containers()
        if container.idle_time(now) > policy._timeout_for(pool, container)
    ]


def _apply_full(policy, pool, now):
    """Scan-based eviction: the reference the incremental ``apply`` must match."""
    if isinstance(policy, HalfLifeEvictionPolicy):
        victims = _select_half_life(policy, pool, now)
        for container in victims:
            key = (pool.function_name, int(container.created_at // policy.period_s))
            policy._evicted_counts[key] = policy._evicted_counts.get(key, 0) + 1
    else:
        assert isinstance(policy, IdleTimeoutEvictionPolicy)
        victims = _select_idle(policy, pool, now)
    pool.evict(victims)
    return len(victims)


class _ReferenceSchedulerMixin:
    """The pre-index scheduling semantics: full scans on every request."""

    def run_workload(self, trace, keep_records=True):  # type: ignore[override]
        return generator_run(self, trace, keep_records)

    def _acquire_container(self, function, state, start_at):  # type: ignore[override]
        _apply_full(self.eviction_policy, state.pool, start_at)
        pool = state.pool
        capacity = self.sandbox_concurrency
        warm = [
            c
            for c in pool.warm_containers(version=function.version)
            if pool.in_use_count(c.container_id) < capacity
        ]
        probability = self.performance.spurious_cold_start_probability
        spurious = probability > 0 and state.spurious_stream.take() < probability
        if warm and not spurious:
            return max(warm, key=lambda c: c.last_used_at), StartType.WARM
        container = Container(
            function_name=function.name,
            function_version=function.version,
            memory_mb=function.config.memory_mb,
            created_at=start_at,
            container_id=state.pool.next_container_id(),
        )
        state.pool.add(container)
        return container, StartType.COLD

    def warm_container_count(self, fname):  # type: ignore[override]
        state = self._runtime_state(fname)
        _apply_full(self.eviction_policy, state.pool, self.clock.now())
        function = self.get_function(fname)
        return state.pool.warm_count(version=function.version)


class _ReferenceAWS(_ReferenceSchedulerMixin, AWSLambdaSimulator):
    pass


class _ReferenceGCP(_ReferenceSchedulerMixin, GoogleCloudFunctionsSimulator):
    pass


class _ReferenceAzure(_ReferenceSchedulerMixin, AzureFunctionsSimulator):
    pass


_REFERENCE_CLASSES = {
    Provider.AWS: _ReferenceAWS,
    Provider.GCP: _ReferenceGCP,
    Provider.AZURE: _ReferenceAzure,
}


def _deploy_pair(provider: Provider, seed: int):
    """Fast-path and reference platforms with identical deployments."""
    fast = create_platform(provider, SimulationConfig(seed=seed))
    reference = _REFERENCE_CLASSES[provider](SimulationConfig(seed=seed))
    functions = []
    for platform in (fast, reference):
        memory = 256 if platform.limits.memory_static else 0
        web = deploy_benchmark(platform, "dynamic-html", memory_mb=memory, function_name="web")
        thumb = deploy_benchmark(
            platform,
            "thumbnailer",
            memory_mb=1024 if platform.limits.memory_static else 0,
            function_name="thumb",
        )
        functions = [web, thumb]
    return fast, reference, functions


def _build_trace(pattern: str, functions: list[str], seed: int) -> WorkloadTrace:
    if pattern == "poisson":
        processes = [PoissonArrivals(4.0), PoissonArrivals(2.0)]
    elif pattern == "bursty":
        processes = [
            BurstyArrivals(6.0, mean_on_s=15.0, mean_off_s=30.0),
            BurstyArrivals(3.0, mean_on_s=20.0, mean_off_s=45.0),
        ]
    else:
        processes = [DiurnalArrivals(4.0), DiurnalArrivals(2.0)]
    traces = [
        WorkloadTrace.synthesize(fname, process, duration_s=420.0, rng=seed + offset)
        for offset, (fname, process) in enumerate(zip(functions, processes))
    ]
    return WorkloadTrace.merge(*traces)


def _signatures(records):
    """Per-record signatures with container ids canonicalised per run.

    The global container-id counter is shared by every platform in the
    process, so the raw ids differ between the two runs; what must match is
    the *schedule* — which (canonical) sandbox served each request.  Ids are
    renumbered by order of first appearance.
    """
    canonical: dict[str, int] = {}
    signatures = []
    for record in records:
        if record.container_id not in canonical:
            canonical[record.container_id] = len(canonical)
        signatures.append(
            (
                canonical[record.container_id],
                record.start_type,
                record.success,
                record.cost.total,
                record.client_time_s,
                record.provider_time_s,
                record.finished_at,
                record.error,
            )
        )
    return signatures


@pytest.mark.parametrize("provider", [Provider.AWS, Provider.GCP, Provider.AZURE])
@pytest.mark.parametrize("pattern", ["poisson", "bursty", "diurnal"])
def test_trace_replay_matches_reference_semantics(provider, pattern):
    fast, reference, functions = _deploy_pair(provider, seed=11)
    trace = _build_trace(pattern, functions, seed=17)
    assert len(trace) > 200

    fast_result = fast.run_workload(trace)
    reference_result = reference.run_workload(trace)

    assert fast_result.invocations == reference_result.invocations
    assert fast_result.cold_start_count == reference_result.cold_start_count
    assert fast_result.peak_in_flight == reference_result.peak_in_flight
    assert _signatures(fast_result.records) == _signatures(reference_result.records)
    # Post-replay warm-pool state is identical too (exercises both
    # warm_container_count paths: incremental and full-scan application).
    for fname in functions:
        assert fast.warm_container_count(fname) == reference.warm_container_count(fname)


@pytest.mark.parametrize("provider", [Provider.AWS, Provider.GCP, Provider.AZURE])
def test_burst_path_matches_reference_semantics(provider):
    fast, reference, functions = _deploy_pair(provider, seed=23)
    fname = functions[0]

    fast_records = fast.invoke_batch(fname, 25)
    reference_records = reference.invoke_batch(fname, 25)

    # Let the eviction policy bite between bursts, then reuse what survives.
    fast.clock.advance(400.0)
    reference.clock.advance(400.0)
    fast_records += fast.invoke_batch(fname, 25)
    reference_records += reference.invoke_batch(fname, 25)
    assert _signatures(fast_records) == _signatures(reference_records)
    assert fast.warm_container_count(fname) == reference.warm_container_count(fname)


def test_mixed_sequential_and_stream_matches_reference():
    """Interleaving invoke(), bursts and streams keeps the paths in lockstep."""
    fast, reference, functions = _deploy_pair(Provider.AWS, seed=5)
    fname = functions[0]
    trace = _build_trace("poisson", functions, seed=29)

    fast_records = [fast.invoke(fname, payload={"size": "small"})]
    reference_records = [reference.invoke(fname, payload={"size": "small"})]
    fast_records += fast.invoke_batch(fname, 10)
    reference_records += reference.invoke_batch(fname, 10)
    fast_records += fast.run_workload(trace).records
    reference_records += reference.run_workload(trace).records
    fast_records += [fast.invoke(fname, payload={}) for _ in range(5)]
    reference_records += [reference.invoke(fname, payload={}) for _ in range(5)]
    assert _signatures(fast_records) == _signatures(reference_records)


@pytest.mark.parametrize("provider", [Provider.AWS, Provider.GCP])
def test_pool_replacement_keeps_eviction_incremental(provider):
    """delete_function + create_function under the same name gets a fresh
    pool; the incremental eviction trackers must ingest the new pool's
    sandboxes instead of resuming a stale creation-log cursor."""
    fast, reference, _ = _deploy_pair(provider, seed=41)
    for platform in (fast, reference):
        memory = 256 if platform.limits.memory_static else 0
        platform.invoke_batch("web", 4)  # populate the first pool's creation log
        platform.delete_function("web")
        deploy_benchmark(platform, "dynamic-html", memory_mb=memory, function_name="web")
        platform.invoke_batch("web", 4)
        platform.clock.advance(5000.0)
    assert fast.warm_container_count("web") == reference.warm_container_count("web")
    fast_records = fast.invoke_batch("web", 4)
    reference_records = reference.invoke_batch("web", 4)
    assert _signatures(fast_records) == _signatures(reference_records)
    assert [r.start_type for r in fast_records] == [r.start_type for r in reference_records]


def test_failed_invocation_releases_reservation():
    """An exception mid-invocation (raising kernel) must not leave the
    sandbox reserved: the next request should still reuse it warm."""
    platform = create_platform(Provider.AWS, SimulationConfig(seed=3))
    platform.execute_kernels = True
    fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
    first = platform.invoke(fname, payload={"username": "x", "random_len": 4})
    assert first.start_type is StartType.COLD

    with pytest.raises(Exception):
        platform.invoke(fname, payload={"truly": "malformed"})
    pool = platform._state[fname].pool
    assert pool.in_use_count(first.container_id) == 0

    again = platform.invoke(fname, payload={"username": "x", "random_len": 4})
    assert again.start_type is StartType.WARM
    assert again.container_id == first.container_id


def test_streaming_aggregation_matches_record_mode():
    """keep_records=False reproduces the exact counters of the record mode."""
    sim = SimulationConfig(seed=13)
    exact_platform = create_platform(Provider.AWS, sim)
    streaming_platform = create_platform(Provider.AWS, sim)
    functions = []
    for platform in (exact_platform, streaming_platform):
        functions = [deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="web")]
    trace = _build_trace("poisson", functions * 2, seed=31)

    exact = exact_platform.run_workload(trace, keep_records=True)
    streaming = streaming_platform.run_workload(trace, keep_records=False)

    assert streaming.records == []
    assert streaming.invocations == exact.invocations
    assert streaming.cold_start_count == exact.cold_start_count
    assert streaming.failure_count == exact.failure_count
    assert streaming.peak_in_flight == exact.peak_in_flight
    # The online peak tracked from the live completion heap must agree with
    # the post-hoc interval-overlap reference computation.
    assert exact.peak_in_flight == WorkloadEngine._peak_in_flight(exact.records)
    assert streaming.total_cost_usd == pytest.approx(exact.total_cost_usd, rel=1e-12)
    assert streaming.simulated_span_s == pytest.approx(exact.simulated_span_s)

    exact_summary = exact.per_function()["web"]
    streaming_summary = streaming.per_function()["web"]
    assert streaming_summary.invocations == exact_summary.invocations
    assert streaming_summary.cold_starts == exact_summary.cold_starts
    assert streaming_summary.total_cost_usd == pytest.approx(exact_summary.total_cost_usd, rel=1e-12)
    # Reservoir percentiles are estimates; on thousands of samples they
    # should sit within a few percent of the exact percentiles.
    assert streaming_summary.client_time.median == pytest.approx(
        exact_summary.client_time.median, rel=0.05
    )
    assert streaming_summary.client_time.percentiles[95.0] == pytest.approx(
        exact_summary.client_time.percentiles[95.0], rel=0.10
    )
