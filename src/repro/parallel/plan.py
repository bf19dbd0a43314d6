"""Shard planning: partition replays into function-disjoint units of work.

The shard unit is the **function** (for flat traces) or the **connected
component of workflow specs sharing a function** (for workflow arrivals).
That is the natural boundary because every piece of simulator state that an
invocation touches — the sandbox pool, the eviction timeout stream, the
compute/network/reliability jitter streams, the billing memo — is keyed per
function (:mod:`repro.simulator.platform_sim`), so two shards that share no
function cannot influence each other's numbers and replay bit-identically
to a serial pass.

The planner packs shard units into at most ``workers`` shards with a
longest-processing-time (LPT) greedy heuristic over a simple cost model:
the unit's **invocation count** — exact for materialised traces (counted
while partitioning), estimated from
:meth:`~repro.workload.arrivals.ArrivalProcess.expected_invocations` for
scenario traffic, and ``arrivals × stages`` for workflow components.  Tie
breaks are deterministic (unit name, then shard index), so the same input
always yields the same plan.

Populations are the exception: their workers deploy every member they
replay, so memory, not the worker count, sets the shard size.
:meth:`ShardPlanner.plan_population` over-decomposes — at least
:data:`SHARDS_PER_WORKER` shards per worker, none above
:data:`MEMBER_BUDGET` members — and the executor streams the shards
through the pool, one shard per worker at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..faas.invocation import InvocationRequest
from ..workload.scenario import FunctionTraffic, Scenario
from ..workflows.spec import WorkflowArrival


@dataclass(frozen=True)
class TraceShard:
    """A materialised partition of a trace: requests of one function group.

    ``requests`` carries ``(global_index, request)`` pairs — the index is
    the request's position in the full time-sorted stream, used to restore
    the exact serial record order when merging record-mode shards.
    """

    index: int
    functions: tuple[str, ...]
    weight: float
    requests: tuple[tuple[int, InvocationRequest], ...]


@dataclass(frozen=True)
class ScenarioShard:
    """A recipe partition: the worker synthesizes its own arrivals.

    Nothing is materialised in the parent — each worker rebuilds the
    per-source random streams from ``(seed, scenario_name, source_index)``
    exactly as :meth:`~repro.workload.scenario.Scenario.build_trace` does,
    so the shard's synthesized sub-trace is identical to the corresponding
    slice of the full trace.
    """

    index: int
    functions: tuple[str, ...]
    weight: float
    scenario_name: str
    duration_s: float
    seed: int
    #: ``(source_index_in_scenario, traffic)`` pairs, in scenario order.
    sources: tuple[tuple[int, FunctionTraffic], ...]


@dataclass(frozen=True)
class WorkflowShard:
    """A partition of workflow arrivals: whole function-disjoint components.

    ``arrivals`` carries ``(global_execution_index, arrival)`` pairs; the
    indices feed :meth:`repro.workflows.engine.WorkflowEngine.stream` so the
    hash-seeded per-edge trigger delays match serial replay exactly.
    """

    index: int
    functions: tuple[str, ...]
    weight: float
    arrivals: tuple[tuple[int, WorkflowArrival], ...]


@dataclass(frozen=True, eq=False)
class PopulationShard:
    """A population partition: the worker deploys and drives its members.

    The parent never materialises a request, a recipe or even a function
    name: the shard carries the population object plus the member indices,
    and the worker derives everything else from ``(population, seed,
    index)`` — deployment recipes, arrival streams, the merged request
    stream (see :mod:`repro.population.replay`).  Every shard of a plan
    refers to the same population object, which the process backend ships
    once per worker process rather than once per shard.

    ``functions`` is a short provenance *label*, not the member list — a
    million function names would bloat every supervisor error message and
    checkpoint fingerprint; the real membership is ``member_indices``.
    """

    index: int
    functions: tuple[str, ...]
    weight: float
    seed: int
    #: The population recipe object (``PopulationSpec`` / ``IngestedPopulation``).
    population: object
    #: Member indices owned by this shard, sorted ascending.
    member_indices: np.ndarray


#: Population shards cut per worker: more shards than workers keep the pool
#: busy while shards of uneven cost stream through it.
SHARDS_PER_WORKER = 8

#: Most members one population shard holds.  A worker holds one shard's
#: members at a time, so this bounds its memory at any population size.
MEMBER_BUDGET = 16_384


def _pack(weights: Mapping[str, float], workers: int) -> list[list[str]]:
    """LPT greedy: pack named units into at most ``workers`` buckets.

    Deterministic: units are processed heaviest-first (name tie-break) and
    land in the least-loaded bucket (lowest index tie-break).  Empty
    buckets are dropped.
    """
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    buckets: list[list[str]] = [[] for _ in range(min(workers, max(1, len(weights))))]
    load: list[tuple[float, int]] = [(0.0, i) for i in range(len(buckets))]
    heapq.heapify(load)
    for name in sorted(weights, key=lambda n: (-weights[n], n)):
        total, bucket = heapq.heappop(load)
        buckets[bucket].append(name)
        heapq.heappush(load, (total + weights[name], bucket))
    return [bucket for bucket in buckets if bucket]


class ShardPlanner:
    """Builds deterministic, load-balanced shard plans for parallel replay."""

    def plan_trace(
        self, requests: Iterable[InvocationRequest], workers: int
    ) -> list[TraceShard]:
        """Partition a time-sorted request stream into per-function shards.

        One O(n) pass assigns every request its global index and groups by
        function; the LPT packing then uses the *exact* per-function
        invocation counts as weights.
        """
        per_function: dict[str, list[tuple[int, InvocationRequest]]] = {}
        for global_index, request in enumerate(requests):
            per_function.setdefault(request.function_name, []).append((global_index, request))
        weights = {fname: float(len(items)) for fname, items in per_function.items()}
        shards = []
        for shard_index, fnames in enumerate(_pack(weights, workers)):
            merged: list[tuple[int, InvocationRequest]] = []
            for fname in fnames:
                merged.extend(per_function[fname])
            # Global-index order restores the serial arrival order (the
            # per-function lists are index-sorted subsequences of it).
            merged.sort(key=lambda pair: pair[0])
            shards.append(
                TraceShard(
                    index=shard_index,
                    functions=tuple(sorted(fnames)),
                    weight=sum(weights[f] for f in fnames),
                    requests=tuple(merged),
                )
            )
        return shards

    def plan_scenario(self, scenario: Scenario, seed: int, workers: int) -> list[ScenarioShard]:
        """Partition scenario traffic by function, without synthesizing it.

        Weights come from each arrival process's expected invocation count
        over the scenario duration — an estimate, so balance (not
        correctness) degrades when a process misreports.
        """
        if scenario.workflow_traffic:
            raise ConfigurationError(
                f"scenario {scenario.name!r} carries workflow traffic; shard its "
                "workflow arrivals with plan_workflows instead"
            )
        by_function: dict[str, list[tuple[int, FunctionTraffic]]] = {}
        weights: dict[str, float] = {}
        for source_index, traffic in enumerate(scenario.traffic):
            by_function.setdefault(traffic.function_name, []).append((source_index, traffic))
            weights[traffic.function_name] = weights.get(traffic.function_name, 0.0) + float(
                traffic.process.expected_invocations(scenario.duration_s)
            )
        shards = []
        for shard_index, fnames in enumerate(_pack(weights, workers)):
            sources: list[tuple[int, FunctionTraffic]] = []
            for fname in fnames:
                sources.extend(by_function[fname])
            sources.sort(key=lambda pair: pair[0])
            shards.append(
                ScenarioShard(
                    index=shard_index,
                    functions=tuple(sorted(fnames)),
                    weight=sum(weights[f] for f in fnames),
                    scenario_name=scenario.name,
                    duration_s=scenario.duration_s,
                    seed=seed,
                    sources=tuple(sources),
                )
            )
        return shards

    def plan_population(self, population, seed: int, workers: int) -> list[PopulationShard]:
        """Partition a population of ``n`` members into member-budgeted shards.

        Same LPT greedy as :func:`_pack`, but vectorized for million-member
        populations and over-decomposed: more shards than ``workers``, each
        of at most :data:`MEMBER_BUDGET` members, so the executor streams
        them through the worker pool and a worker holds one shard's members
        at a time.  Weights are the population's expected per-function
        invocation counts (exact for ingested traces, Zipf means for
        synthetic populations), processed heaviest-first with ascending
        member index as the deterministic tie-break; each member lands in
        the non-full shard with the least load, then the fewest members,
        then the lowest index.  Every shard receives a member, so a plan
        has exactly ``min(n, max(SHARDS_PER_WORKER * workers,
        ceil(n / MEMBER_BUDGET)))`` shards.  Shards own function-disjoint
        member sets, so the bit-identity argument of the module docstring
        applies unchanged.
        """
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        weights = np.asarray(population.expected_counts(), dtype=float)
        n = int(weights.shape[0])
        budget = MEMBER_BUDGET
        buckets = min(n, max(SHARDS_PER_WORKER * workers, -(-n // budget)))
        assignment = np.empty(n, dtype=np.int64)
        load: list[tuple[float, int, int]] = [(0.0, 0, bucket) for bucket in range(buckets)]
        heapq.heapify(load)
        weight_of = weights.tolist()
        for member in np.argsort(-weights, kind="stable").tolist():
            total, members, bucket = heapq.heappop(load)
            assignment[member] = bucket
            if members + 1 < budget:  # a full shard leaves the heap
                heapq.heappush(load, (total + weight_of[member], members + 1, bucket))
        # Stable sort by shard: each shard's members in ascending index order.
        by_shard = np.argsort(assignment, kind="stable")
        bounds = np.cumsum(np.bincount(assignment, minlength=buckets))
        return [
            PopulationShard(
                index=bucket,
                functions=(f"{population.name}[{members.size} functions]",),
                weight=float(weights[members].sum()),
                seed=int(seed),
                population=population,
                member_indices=members,
            )
            for bucket, members in enumerate(np.split(by_shard, bounds[:-1]))
        ]

    def plan_workflows(
        self, arrivals: Sequence[WorkflowArrival], workers: int
    ) -> list[WorkflowShard]:
        """Partition workflow arrivals into function-disjoint components.

        Two workflow specs that share a deployed function must replay in
        the same shard (their executions contend for the same sandbox pool
        and draw from the same per-function streams); union-find over the
        spec function sets computes those components.  Specs sharing a
        *name* are merged into one component too: per-workflow accumulators
        — and their reservoir tag streams — are keyed by workflow name, so
        splitting a name across shards would bias the merged percentiles.
        """
        parent: dict[str, str] = {}

        def find(fname: str) -> str:
            root = fname
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[fname] != root:  # path compression
                parent[fname], fname = root, parent[fname]
            return root

        specs: dict[int, tuple] = {}
        for arrival in arrivals:
            spec = arrival.workflow
            if id(spec) not in specs:
                specs[id(spec)] = (spec, spec.functions())
            fnames = specs[id(spec)][1]
            anchor = find(fnames[0])
            for fname in fnames[1:]:
                parent[find(fname)] = anchor
            # Pseudo-node per workflow name (the "\x00" prefix cannot
            # collide with a function name): same-named specs unify.
            parent[find(f"\x00workflow:{spec.name}")] = anchor

        component_arrivals: dict[str, list[tuple[int, WorkflowArrival]]] = {}
        component_functions: dict[str, set[str]] = {}
        weights: dict[str, float] = {}
        for global_index, arrival in enumerate(arrivals):
            spec, fnames = specs[id(arrival.workflow)]
            component = find(fnames[0])
            component_arrivals.setdefault(component, []).append((global_index, arrival))
            component_functions.setdefault(component, set()).update(fnames)
            weights[component] = weights.get(component, 0.0) + float(len(spec.stages))
        shards = []
        for shard_index, components in enumerate(_pack(weights, workers)):
            merged: list[tuple[int, WorkflowArrival]] = []
            functions: set[str] = set()
            for component in components:
                merged.extend(component_arrivals[component])
                functions.update(component_functions[component])
            merged.sort(key=lambda pair: pair[0])
            shards.append(
                WorkflowShard(
                    index=shard_index,
                    functions=tuple(sorted(functions)),
                    weight=sum(weights[c] for c in components),
                    arrivals=tuple(merged),
                )
            )
        return shards
