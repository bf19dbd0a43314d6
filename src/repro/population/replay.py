"""Sharded streaming replay of populations, with per-tenant cost attribution.

The scenario bridge (``population.scenario(seed)``) works for small
populations, but it builds one :class:`~repro.workload.scenario.FunctionTraffic`
object per member in the parent — a million-function population would spend
minutes (and gigabytes) before the first invocation replays.  This module is
the scale path:

* :func:`replay_population` requires an **empty** platform, whose
  :class:`~repro.parallel.snapshot.PlatformSnapshot` is then just the
  rebuild recipe (class, simulation config, clock, constructor kwargs) —
  deployment happens inside each worker, for that worker's members only;
* it plans member-disjoint shards
  (:meth:`~repro.parallel.plan.ShardPlanner.plan_population`) — more
  shards than workers, each of at most
  :data:`~repro.parallel.plan.MEMBER_BUDGET` members — and streams them
  through the same sharded-replay driver as trace replay (sequential or
  process backend, optional supervision), merging the streaming
  accumulators exactly like a sharded trace replay;
* each worker synthesizes its members' arrivals from their own
  ``(seed, "pop", fname)`` streams, builds the merged stream with one
  stable ``argsort`` (reproducing the serial heap-merge tie order:
  lower member index first), and folds it through the columnar hot
  path — the parent process stays O(shards).

Parent-side memory is O(functions) only where it must be: the shard plan
(one int per member) and the merged per-function accumulators.  No request
is ever materialised outside a worker.  A worker deploys one shard's
members at a time and drops its platform when the shard ends, so its peak
memory follows the member budget, not the population size.  The population
object reaches each worker process once, not once per shard.

Cost attribution folds the merged per-function summaries onto the
population's tenant assignment (:func:`tenant_attribution`), yielding the
top-k tenants by spend — the multi-tenant question (who is costing what?)
the flat per-function summaries cannot answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from ..config import DYNAMIC_MEMORY, DEFAULT_REGIONS, FunctionConfig
from ..exceptions import ConfigurationError
from ..faas.invocation import InvocationRequest
from ..parallel.executor import _run_sharded
from ..parallel.merge import TraceShardOutcome, merge_trace_outcomes
from ..parallel.plan import PopulationShard, ShardPlanner
from ..parallel.snapshot import PlatformSnapshot
from ..parallel.supervisor import SupervisorConfig
from ..workload.engine import WorkloadEngine, WorkloadResult, _ReplayAccumulator
from .spec import FunctionRecipe


@dataclass(frozen=True)
class TenantSpend:
    """One tenant's share of a population replay.

    Attributes
    ----------
    tenant:
        Tenant display name.
    cost_usd:
        Total billed cost (USD) across the tenant's functions.
    invocations:
        Total invocation count across the tenant's functions.
    """

    tenant: str
    cost_usd: float
    invocations: int

    def to_row(self) -> dict[str, Any]:
        """The spend as a flat report row."""
        return {
            "tenant": self.tenant,
            "cost_usd": round(self.cost_usd, 8),
            "invocations": self.invocations,
        }


def _resolve_memory(limits, requested_mb: int) -> int:
    """Map a profile's memory request onto a legal provider configuration.

    Dynamic-allocation providers (Azure) collapse every request to
    ``DYNAMIC_MEMORY``; discrete-size providers (GCP) round up to the
    smallest allowed size that fits (or the largest available); range
    providers (AWS) clamp into ``[min, max]``.
    """
    if not limits.memory_static:
        return DYNAMIC_MEMORY
    if limits.allowed_memory_mb is not None:
        sizes = sorted(size for size in limits.allowed_memory_mb if size != DYNAMIC_MEMORY)
        for size in sizes:
            if size >= requested_mb:
                return size
        return sizes[-1]
    return int(min(limits.memory_max_mb, max(limits.memory_min_mb, requested_mb)))


def deploy_population(platform, recipes: Iterable[FunctionRecipe]) -> int:
    """Deploy population members onto ``platform``; returns the count.

    ``recipes`` are the members' :class:`~repro.population.spec.FunctionRecipe`
    objects (``population.recipe(index, seed)``).  Code packages are built
    once per distinct app profile (packaging runs the benchmark registry and
    size validation — per-function packaging of a million members would
    dominate deployment).  Each member's requested memory is resolved
    against the provider's limits via :func:`_resolve_memory`.
    """
    packages: dict[tuple[str, Any], Any] = {}
    region = DEFAULT_REGIONS[platform.provider]
    deployed = 0
    for recipe in recipes:
        profile = recipe.profile
        key = (profile.benchmark, profile.language)
        package = packages.get(key)
        if package is None:
            package = packages[key] = platform.package_code(profile.benchmark, profile.language)
        config = FunctionConfig(
            memory_mb=_resolve_memory(platform.limits, recipe.memory_mb),
            timeout_s=min(profile.timeout_s, platform.limits.time_limit_s),
            language=profile.language,
            region=region,
        )
        platform.create_function(recipe.function_name, package, config)
        platform.set_input_size(recipe.function_name, profile.input_size)
        deployed += 1
    return deployed


def _shard_request_stream(
    recipes: list[FunctionRecipe], arrivals: list[np.ndarray]
) -> Iterator[InvocationRequest]:
    """Lazily yield the shard's merged, time-sorted request stream.

    ``recipes[i]`` drives the member whose arrival offsets are
    ``arrivals[i]``, members in ascending index order.  The arrival arrays
    are concatenated and merged with one stable ``argsort`` — exactly the
    tie order of the serial scenario path's stable heap merge (equal
    offsets resolve to the lower member index, and each member's offsets
    are already sorted).
    """
    counts = np.array([offsets.size for offsets in arrivals], dtype=np.int64)
    offsets = np.concatenate(arrivals)
    member_of = np.repeat(np.arange(len(recipes), dtype=np.int64), counts)
    order = np.argsort(offsets, kind="stable")
    # Requests are built positionally: (function_name, payload,
    # payload_bytes, trigger, submitted_at).
    members = [
        (recipe.function_name, dict(recipe.payload), int(recipe.payload_bytes), recipe.trigger)
        for recipe in recipes
    ]
    for member, submitted_at in zip(member_of[order].tolist(), offsets[order].tolist()):
        name, payload, payload_bytes, trigger = members[member]
        yield InvocationRequest(name, payload, payload_bytes, trigger, submitted_at)


def _replay_population_shard(
    snapshot: PlatformSnapshot, shard: PopulationShard, keep_records: bool
) -> TraceShardOutcome:
    """Worker entry point: deploy the shard's members, replay their traffic.

    ``snapshot`` is the recipe of an empty platform.  Streaming-only: a
    million-function record list defeats the point of the lazy recipe
    path, and the scenario bridge covers record-mode needs for small
    populations.
    """
    if keep_records:
        raise ConfigurationError(
            "population replay is streaming-only (keep_records=False); for "
            "record mode, bridge a small population via population.scenario()"
        )
    population = shard.population
    platform = snapshot.build()
    active: list[int] = []
    arrivals: list[np.ndarray] = []
    for index in shard.member_indices:
        offsets = population.arrivals(int(index), shard.seed)
        if offsets.size:
            active.append(int(index))
            arrivals.append(offsets)
    # Members with zero arrivals are never deployed: deployment is O(active),
    # and the name-keyed stream derivation guarantees their absence changes
    # nothing another member draws.
    recipes = [population.recipe(index, shard.seed) for index in active]
    deploy_population(platform, recipes)
    if not active:
        return TraceShardOutcome(
            shard_index=shard.index, sink=_ReplayAccumulator(), peak_in_flight=0
        )
    engine = WorkloadEngine(platform)
    requests = _shard_request_stream(recipes, arrivals)
    accumulator = engine.replay(requests, keep_records=False)
    return TraceShardOutcome(
        shard_index=shard.index,
        sink=accumulator,
        peak_in_flight=engine.last_peak_in_flight,
    )


def tenant_attribution(result: WorkloadResult, population, seed: int) -> list[TenantSpend]:
    """Fold per-function replay summaries onto the tenant assignment.

    Returns every tenant with at least one invocation, ranked by
    ``(-cost, tenant name)`` — deterministic, and the fold itself runs in
    ascending function-index order so float accumulation is reproducible.
    """
    summaries = result.per_function()
    tenants = population.tenant_of(seed)
    size = int(tenants.max()) + 1 if tenants.size else 0
    cost = np.zeros(size, dtype=float)
    invocations = np.zeros(size, dtype=np.int64)
    for index in range(population.n_functions):
        summary = summaries.get(population.function_name(index))
        if summary is None:
            continue
        tenant = int(tenants[index])
        cost[tenant] += summary.total_cost_usd
        invocations[tenant] += summary.invocations
    ranked = sorted(
        np.flatnonzero(invocations > 0),
        key=lambda tenant: (-cost[tenant], population.tenant_name(int(tenant))),
    )
    return [
        TenantSpend(
            tenant=population.tenant_name(int(tenant)),
            cost_usd=float(cost[tenant]),
            invocations=int(invocations[tenant]),
        )
        for tenant in ranked
    ]


@dataclass
class PopulationReplayResult:
    """A population replay's merged result plus tenant-level attribution.

    Attributes
    ----------
    result:
        The merged streaming :class:`~repro.workload.engine.WorkloadResult`.
    population_name:
        Label of the replayed population.
    seed:
        Seed the structure and arrivals derived from.
    functions_total:
        Population size (members planned, active or not).
    functions_active:
        Members that produced at least one invocation.
    top_tenants:
        Top-k tenants by spend (k set by ``replay_population``).
    """

    result: WorkloadResult
    population_name: str
    seed: int
    functions_total: int
    functions_active: int
    top_tenants: tuple[TenantSpend, ...]

    @property
    def invocations(self) -> int:
        """Total invocations replayed."""
        return self.result.invocations

    @property
    def throughput_per_s(self) -> float:
        """Invocations simulated per wall-clock second."""
        return self.result.throughput_per_s

    @property
    def total_cost_usd(self) -> float:
        """Total billed cost (USD) across the population."""
        return self.result.total_cost_usd

    def summary_row(self) -> dict[str, Any]:
        """One aggregate row describing the population replay."""
        row = self.result.summary_row()
        row.update(
            population=self.population_name,
            functions_total=self.functions_total,
            functions_active=self.functions_active,
            top_tenants=[spend.to_row() for spend in self.top_tenants],
        )
        return row


def replay_population(
    platform,
    population,
    *,
    seed: int | None = None,
    workers: int = 1,
    backend: str | None = None,
    supervision: SupervisorConfig | None = None,
    profile: bool = False,
    top_tenants: int = 10,
) -> PopulationReplayResult:
    """Sharded streaming replay of a population with tenant attribution.

    ``platform`` must be empty and fresh — each worker rebuilds it from
    its :class:`~repro.parallel.snapshot.PlatformSnapshot` and deploys its
    own members; a deployed parent would collide with (or silently diverge
    from) the worker-side deployments.  ``seed`` defaults to the
    platform's simulation seed and drives both the population structure and
    every member's arrival stream, so the same ``(population, seed)`` pair
    replays bit-identically at any worker count: members are
    function-disjoint across shards and every stream they touch is
    name-derived, the same argument that covers sharded scenario replay.

    ``workers`` / ``backend`` / ``supervision`` / ``profile`` behave as in
    :func:`~repro.parallel.executor.run_workload_sharded` (the same
    driver runs both); checkpointing is
    not offered (population shards carry live population objects, which the
    plan fingerprint machinery does not cover).  ``top_tenants`` bounds the
    attribution list on the result.
    """
    if top_tenants < 0:
        raise ConfigurationError("top_tenants must be non-negative")
    deployed = platform.functions()
    if deployed:
        raise ConfigurationError(
            "population replay deploys functions inside each worker; start "
            f"from an empty platform (found {len(deployed)} deployed functions)"
        )
    seed = platform.simulation.seed if seed is None else int(seed)
    spends: list[TenantSpend] = []

    def merge(provider, outcomes: list, keep_records: bool, wall_clock_s: float) -> WorkloadResult:
        """Merge the shard accumulators and attribute spend to tenants."""
        result = merge_trace_outcomes(provider, outcomes, keep_records, wall_clock_s)
        spends.extend(tenant_attribution(result, population, seed))
        return result

    result = _run_sharded(
        platform,
        lambda: ShardPlanner().plan_population(population, seed, workers),
        _replay_population_shard,
        merge,
        workers=workers,
        keep_records=False,
        backend=backend,
        supervision=supervision,
        profile=profile,
        shared=(population,),
    )
    return PopulationReplayResult(
        result=result,
        population_name=population.name,
        seed=seed,
        functions_total=int(population.n_functions),
        functions_active=len(result.per_function()),
        top_tenants=tuple(spends[:top_tenants]),
    )
