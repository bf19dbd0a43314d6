"""Workflow specifications: DAGs of function stages joined by async triggers.

The paper's application suite is dominated by multi-stage pipelines — a
thumbnailer feeding an uploader, video processing chains, ML inference
behind a pre-processing step — yet flat traces can only replay each function
in isolation.  A :class:`WorkflowSpec` describes how deployed functions
compose: a DAG of :class:`WorkflowStage` nodes whose edges are the
asynchronous trigger channels (queue messages, storage events) through which
one function's completion starts the next.

The model covers the four composition shapes middleware orchestrators
expose:

* **sequential chain** — ``Stage B after A``;
* **fan-out / fan-in** — several stages sharing an upstream, and a stage
  with several upstreams (it starts once *all* of them have completed and
  their trigger messages have propagated);
* **dynamic map** — a stage with ``map_items`` spawns one invocation per
  item (a static count or the length of a list in the execution payload),
  and completes when the slowest task finishes;
* **conditional branch** — a stage with ``run_if=(key, value)`` only runs
  when its payload matches; skipped stages propagate readiness
  downstream as zero-duration no-ops, so alternative branches converge on a
  common fan-in stage.

Specs are *declaration-order invariant*: two specs whose stage tuples are
permutations of each other describe the same DAG and replay identically
(the engine orders simultaneous events by stage name, never by declaration
position).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from ..config import TriggerType
from ..exceptions import ConfigurationError
from ..workload.arrivals import ArrivalProcess

#: Trigger types usable on edges *into* a non-root stage.  TIMER only makes
#: sense for workflow roots (a schedule fires the entry function); HTTP/SDK
#: model synchronous chaining where the upstream function re-invokes the
#: downstream one directly (no queue in between, zero extra edge latency).
_EDGE_TRIGGERS = (TriggerType.QUEUE, TriggerType.STORAGE, TriggerType.HTTP, TriggerType.SDK)


@dataclass(frozen=True)
class WorkflowStage:
    """One node of a workflow DAG.

    Attributes
    ----------
    name:
        Stage name, unique within the spec.  Used for canonical event
        ordering, so replay does not depend on declaration order.
    function_name:
        The deployed function this stage invokes.
    after:
        Names of the upstream stages.  Empty = root stage, triggered by the
        workflow arrival itself.
    trigger:
        Trigger channel of the stage's inbound edges (``QUEUE`` or
        ``STORAGE`` for async propagation with modelled latency, ``HTTP`` /
        ``SDK`` for synchronous chaining, ``TIMER`` for scheduled roots).
        ``None`` resolves to ``HTTP`` for roots and ``QUEUE`` otherwise.
    payload:
        Stage payload override; ``None`` uses the workflow execution's
        payload.
    payload_bytes:
        Explicit request size (as in :class:`~repro.faas.invocation.InvocationRequest`).
    map_items:
        Dynamic-map cardinality: an ``int`` spawns that many parallel tasks;
        a ``str`` names a payload key whose list length (or integer value)
        decides per execution; ``None`` = a single invocation.  The key is
        looked up in the payload the stage receives — its own ``payload``
        override if given, else the execution payload.
    run_if:
        Conditional guard ``(payload_key, expected_value)``; the stage is
        skipped unless the payload it receives matches.
    """

    name: str
    function_name: str
    after: tuple[str, ...] = ()
    trigger: TriggerType | None = None
    payload: Mapping[str, Any] | None = None
    payload_bytes: int | None = None
    map_items: int | str | None = None
    run_if: tuple[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("workflow stages need a non-empty name")
        if not self.function_name:
            raise ConfigurationError(f"stage {self.name!r} needs a function name")
        if isinstance(self.map_items, int) and self.map_items < 0:
            raise ConfigurationError(f"stage {self.name!r}: map_items must be non-negative")

    @property
    def is_root(self) -> bool:
        return not self.after

    def resolved_trigger(self) -> TriggerType:
        """The trigger channel, with the root/non-root default applied."""
        if self.trigger is not None:
            return self.trigger
        return TriggerType.HTTP if self.is_root else TriggerType.QUEUE

    def cardinality(self, payload: Mapping[str, Any]) -> int:
        """Number of parallel tasks this stage spawns for ``payload``.

        ``payload`` is the payload the stage receives (its own override if
        given, else the execution payload).  0 means the stage is skipped
        for this execution (an empty map).
        """
        if self.map_items is None:
            return 1
        if isinstance(self.map_items, int):
            return self.map_items
        value = payload.get(self.map_items)
        if value is None:
            return 1
        if isinstance(value, (list, tuple)):
            return len(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"stage {self.name!r}: map_items key {self.map_items!r} must hold "
                f"a list or a number, got {value!r}"
            )
        return max(0, int(value))

    def should_run(self, payload: Mapping[str, Any]) -> bool:
        """Evaluate the conditional guard against the stage's payload."""
        if self.run_if is None:
            return True
        key, expected = self.run_if
        return payload.get(key) == expected


@dataclass(frozen=True)
class WorkflowSpec:
    """An immutable, validated DAG of workflow stages."""

    name: str
    stages: tuple[WorkflowStage, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("workflows need a non-empty name")
        if not self.stages:
            raise ConfigurationError(f"workflow {self.name!r} needs at least one stage")
        names = [stage.name for stage in self.stages]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ConfigurationError(
                f"workflow {self.name!r} has duplicate stage names: {sorted(duplicates)}"
            )
        by_name = {stage.name: stage for stage in self.stages}
        for stage in self.stages:
            for upstream in stage.after:
                if upstream == stage.name:
                    raise ConfigurationError(f"stage {stage.name!r} depends on itself")
                if upstream not in by_name:
                    raise ConfigurationError(
                        f"stage {stage.name!r} depends on unknown stage {upstream!r}"
                    )
            if stage.resolved_trigger() is TriggerType.TIMER and not stage.is_root:
                raise ConfigurationError(
                    f"stage {stage.name!r}: TIMER triggers are only valid on root stages"
                )
            if not stage.is_root and stage.resolved_trigger() not in _EDGE_TRIGGERS:
                raise ConfigurationError(
                    f"stage {stage.name!r}: unsupported edge trigger {stage.resolved_trigger()!r}"
                )
        if not any(stage.is_root for stage in self.stages):
            raise ConfigurationError(f"workflow {self.name!r} has no root stage")
        # Cycle check (Kahn); also caches the topological order.
        order = self._topological_order(by_name)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_topo_order", order)
        downstream: dict[str, list[str]] = {name: [] for name in by_name}
        for stage in self.stages:
            for upstream in stage.after:
                downstream[upstream].append(stage.name)
        # Sorted by name: canonical, declaration-order-invariant fan-out order.
        object.__setattr__(
            self, "_downstream", {name: tuple(sorted(names)) for name, names in downstream.items()}
        )

    def _topological_order(self, by_name: dict[str, WorkflowStage]) -> tuple[str, ...]:
        remaining = {name: set(stage.after) for name, stage in by_name.items()}
        order: list[str] = []
        while remaining:
            # Canonical tie-break by name keeps the order independent of the
            # declaration order of the stage tuple.
            ready = sorted(name for name, deps in remaining.items() if not deps)
            if not ready:
                raise ConfigurationError(f"workflow {self.name!r} contains a dependency cycle")
            for name in ready:
                del remaining[name]
                order.append(name)
            for deps in remaining.values():
                deps.difference_update(ready)
        return tuple(order)

    # -------------------------------------------------------------- accessors
    def stage(self, name: str) -> WorkflowStage:
        return self._by_name[name]

    def stage_names(self) -> tuple[str, ...]:
        """Stage names in canonical (topological, name-tie-broken) order."""
        return self._topo_order

    def downstream(self, name: str) -> tuple[str, ...]:
        """Names of the stages triggered by ``name``, sorted canonically."""
        return self._downstream[name]

    def roots(self) -> tuple[str, ...]:
        return tuple(name for name in self._topo_order if self._by_name[name].is_root)

    def terminals(self) -> tuple[str, ...]:
        return tuple(name for name in self._topo_order if not self._downstream[name])

    def functions(self) -> list[str]:
        """Sorted names of the deployed functions the workflow invokes."""
        return sorted({stage.function_name for stage in self.stages})

    def __len__(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class WorkflowArrival:
    """One workflow execution request: a spec starting at a point in time."""

    workflow: WorkflowSpec
    submitted_at: float = 0.0
    payload: Mapping[str, Any] = field(default_factory=dict)
    payload_bytes: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.submitted_at < math.inf:
            raise ConfigurationError(
                "workflow arrival timestamps must be finite and non-negative "
                f"(got {self.submitted_at!r})"
            )


def synthesize_workflow_arrivals(
    workflow: WorkflowSpec,
    process: ArrivalProcess,
    duration_s: float,
    rng: np.random.Generator | int = 0,
    payload: Mapping[str, Any] | None = None,
    payload_bytes: int | None = None,
) -> list[WorkflowArrival]:
    """Generate time-sorted workflow arrivals from an arrival process.

    The workflow-level analogue of :meth:`~repro.workload.trace.WorkloadTrace.synthesize`:
    each arrival starts one end-to-end execution of ``workflow``.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    offsets = process.generate(duration_s, rng)
    resolved_payload = dict(payload or {})
    return [
        WorkflowArrival(
            workflow=workflow,
            submitted_at=float(offset),
            payload=resolved_payload,
            payload_bytes=payload_bytes,
        )
        for offset in offsets
    ]


def merge_workflow_arrivals(*groups: Iterable[WorkflowArrival]) -> list[WorkflowArrival]:
    """Merge several time-sorted arrival lists into one sorted stream."""
    merged: list[WorkflowArrival] = []
    for group in groups:
        merged.extend(group)
    merged.sort(key=lambda arrival: arrival.submitted_at)
    return merged
