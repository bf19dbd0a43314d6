"""Outside-in per-layer tracing of ``src/repro``.

The benchmark wraps module-level functions and methods of each
``repro.<module>`` layer from its own code; ``src/`` is never edited.  A
function is rebound in every loaded ``repro`` module that holds it, so the
wrapper sits where each caller looks the name up; a method is replaced on
its class (and, for ``subclasses`` hooks, on every subclass that defines
it).  Names are resolved at install time: a hook whose target is gone is
reported as missing, with the reason, and never stops the run.

Spans and counts live in memory.  A span's self time is its duration minus
the time its child spans cover, so the self times of all spans add up to
the time covered by spans, and ``trace.accounted_share`` is that sum over
the traced replay's wall time.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One layer boundary timed (``span``) or counted (``count``) from outside."""

    target: str  # "module:Name" or "module:Class.method"
    kind: str  # "span", "count", or "roundtrip" (pickle each shard outcome)
    time_metric: str | None = None
    calls_metric: str | None = None
    subclasses: bool = False


HOOKS = (
    Hook("repro.workload.trace:WorkloadTrace.synthesize", "span", "workload.synthesize_s"),
    Hook("repro.workload.engine:WorkloadEngine.stream", "span", "workload.stream_s"),
    Hook("repro.population.spec:PopulationSpec.arrivals", "span",
         "population.arrivals_s", "population.arrivals_calls"),
    Hook("repro.population.spec:PopulationSpec.recipe", "count",
         calls_metric="population.recipe_calls"),
    Hook("repro.population.replay:deploy_population", "span", "population.deploy_s"),
    Hook("repro.population.replay:tenant_attribution", "span", "population.attribution_s"),
    Hook("repro.simulator.platform_sim:SimulatedPlatform.create_function", "span",
         "simulator.create_function_s", "simulator.create_function_calls"),
    Hook("repro.simulator.eviction:EvictionPolicy.apply", "span",
         "simulator.eviction_apply_s", "simulator.eviction_apply_calls", subclasses=True),
    Hook("repro.simulator.containers:ContainerPool.prune", "count",
         calls_metric="simulator.pool_prune_calls"),
    Hook("repro.columnar.engine:run_columnar", "span", "columnar.replay_s"),
    Hook("repro.columnar.engine:replay_fold", "span", "columnar.replay_s"),
    Hook("repro.columnar.engine:_build_lane", "span",
         "columnar.lane_build_s", "columnar.lanes_built"),
    Hook("repro.columnar.draws:install_draw_blocks", "count",
         calls_metric="columnar.blocks_installed"),
    Hook("repro.workload.engine:_FunctionAccumulator.__init__", "count",
         calls_metric="stats.accumulators_built"),
    Hook("repro.stats.streaming:StreamingSummary.add_many", "span", "stats.add_many_s"),
    Hook("repro.workload.engine:_ReplayAccumulator.add", "span", "stats.record_fold_s"),
    Hook("repro.stats.streaming:MergeableReservoir.merge", "span",
         "stats.reservoir_merge_s", "stats.reservoir_merge_calls"),
    Hook("repro.stats.streaming:MergeableReservoir.percentiles", "span", "stats.percentiles_s"),
    Hook("repro.parallel.plan:ShardPlanner.plan_population", "span", "parallel.plan_s"),
    Hook("repro.parallel.merge:merge_trace_outcomes", "span", "parallel.merge_s"),
    # Installed after the merge span, so the round trip sits outside it.
    Hook("repro.parallel.merge:merge_trace_outcomes", "roundtrip"),
    Hook("repro.concurrency.limits:FunctionThrottle.try_admit", "span",
         "concurrency.try_admit_s", "concurrency.try_admit_calls"),
    Hook("repro.concurrency.retry:RetryPolicy.next_delay", "count",
         calls_metric="concurrency.retry_delay_calls", subclasses=True),
    Hook("repro.resilience.breaker:CircuitBreaker.allow", "span",
         "resilience.breaker_s", "resilience.breaker_calls"),
    Hook("repro.resilience.breaker:CircuitBreaker.on_outcome", "span",
         "resilience.breaker_s", "resilience.breaker_calls"),
    Hook("repro.faults.plane:FunctionFaultState.outage_at", "count",
         calls_metric="faults.outage_checks"),
)

#: Metrics the round-trip hook produces.
ROUNDTRIP_METRICS = ("parallel.outcome_bytes", "parallel.outcome_pickle_s", "parallel.outcome_unpickle_s")

#: Metrics read from the ``deploy_population`` return value.
RESULT_METRICS = {"repro.population.replay:deploy_population": "population.functions_deployed"}

#: Which end-to-end metric each layer metric should move, and on which workload.
SHOULD_MOVE = {
    "workload.synthesize_s": ("setup_s", "trace-hot, storm-controlled"),
    "workload.stream_s": ("replay_inv_per_s", "storm-controlled"),
    "population.arrivals_s": ("replay_inv_per_s", "population-wide"),
    "population.arrivals_calls": ("replay_inv_per_s", "population-wide"),
    "population.recipe_calls": ("replay_inv_per_s", "population-wide"),
    "population.deploy_s": ("replay_inv_per_s", "population-wide"),
    "population.functions_deployed": ("replay_inv_per_s", "population-wide"),
    "population.attribution_s": ("replay_inv_per_s", "population-wide"),
    "simulator.create_function_s": ("replay_inv_per_s", "population-wide"),
    "simulator.create_function_calls": ("replay_inv_per_s", "population-wide"),
    "simulator.eviction_apply_s": ("replay_inv_per_s", "trace-hot, storm-controlled"),
    "simulator.eviction_apply_calls": ("replay_inv_per_s", "trace-hot, storm-controlled"),
    "simulator.pool_prune_calls": ("replay_inv_per_s", "population-wide"),
    "columnar.replay_s": ("replay_inv_per_s", "trace-hot, population-wide"),
    "columnar.lane_build_s": ("replay_inv_per_s", "population-wide"),
    "columnar.lanes_built": ("replay_inv_per_s", "population-wide"),
    "columnar.blocks_installed": ("worker_peak_rss_mb, replay_inv_per_s", "population-wide"),
    "stats.accumulators_built": ("peak_rss_mb, worker_peak_rss_mb", "population-wide"),
    "stats.add_many_s": ("replay_inv_per_s", "trace-hot"),
    "stats.record_fold_s": ("replay_inv_per_s", "storm-controlled"),
    "stats.reservoir_merge_s": ("replay_inv_per_s", "population-wide"),
    "stats.reservoir_merge_calls": ("replay_inv_per_s", "population-wide"),
    "stats.percentiles_s": ("replay_inv_per_s", "population-wide"),
    "parallel.plan_s": ("replay_inv_per_s", "population-wide"),
    "parallel.merge_s": ("replay_inv_per_s, peak_rss_mb", "population-wide"),
    "parallel.outcome_bytes": ("replay_inv_per_s, peak_rss_mb", "population-wide"),
    "parallel.outcome_pickle_s": ("replay_inv_per_s, peak_rss_mb", "population-wide"),
    "parallel.outcome_unpickle_s": ("replay_inv_per_s, peak_rss_mb", "population-wide"),
    "concurrency.try_admit_s": ("replay_inv_per_s", "storm-controlled"),
    "concurrency.try_admit_calls": ("replay_inv_per_s", "storm-controlled"),
    "concurrency.retry_delay_calls": ("replay_inv_per_s", "storm-controlled"),
    "resilience.breaker_s": ("replay_inv_per_s", "storm-controlled"),
    "resilience.breaker_calls": ("replay_inv_per_s", "storm-controlled"),
    "faults.outage_checks": ("replay_inv_per_s", "storm-controlled"),
}


def layer_metrics() -> list[str]:
    """Every layer metric, in hook order."""
    names = []
    for hook in HOOKS:
        for name in (hook.time_metric, hook.calls_metric):
            if name is not None and name not in names:
                names.append(name)
        if hook.kind == "roundtrip":
            names.extend(ROUNDTRIP_METRICS)
        if hook.target in RESULT_METRICS and RESULT_METRICS[hook.target] not in names:
            names.append(RESULT_METRICS[hook.target])
    return names


class Tracer:
    """Self time per span name and exact counts, kept in memory."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}
        # One [covered-by-children seconds] cell per open span.
        self._stack: list[list[float]] = []

    def timed(self, name: str, call, *args, **kwargs):
        """Run ``call`` as a span named ``name``."""
        stack = self._stack
        cell = [0.0]
        stack.append(cell)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self.self_s[name] += duration - cell[0]
            if stack:
                stack[-1][0] += duration

    def timed_iter(self, name: str, iterator):
        """Time every step of a lazy iterator as a span named ``name``."""
        try:
            while True:
                try:
                    item = self.timed(name, next, iterator)
                except StopIteration:
                    return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap every hook target; record a reason for each one missing."""
        for hook in HOOKS:
            try:
                self._install(hook)
            except (ImportError, AttributeError, TypeError, LookupError) as error:
                reason = f"{hook.target}: {type(error).__name__}: {error}"
                for name in (hook.time_metric, hook.calls_metric, RESULT_METRICS.get(hook.target)):
                    if name is not None:
                        self.missing.setdefault(name, reason)
                if hook.kind == "roundtrip":
                    for name in ROUNDTRIP_METRICS:
                        self.missing.setdefault(name, reason)

    def _install(self, hook: Hook) -> None:
        module_name, _, qualname = hook.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            original = getattr(module, attr)
            _rebind_everywhere(original, self._wrap(hook, original))
            return
        root = getattr(module, owner_name)
        classes = _hierarchy(root) if hook.subclasses else [root]
        patched = 0
        for cls in classes:
            raw = cls.__dict__.get(attr)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(hook, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(hook, raw))
            patched += 1
        if not patched:
            raise AttributeError(f"no class under {owner_name} defines {attr}")

    def _wrap(self, hook: Hook, original):
        counts = self.counts
        calls = hook.calls_metric
        if hook.kind == "count":
            @functools.wraps(original)
            def counted(*args, **kwargs):
                counts[calls] += 1
                return original(*args, **kwargs)
            return counted
        if hook.kind == "roundtrip":
            return self._roundtrip(original)
        name = hook.time_metric
        returns = RESULT_METRICS.get(hook.target)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if calls is not None:
                counts[calls] += 1
            value = self.timed(name, original, *args, **kwargs)
            if returns is not None and isinstance(value, int):
                counts[returns] += value
            if isinstance(value, types.GeneratorType):
                # A lazy layer works while its caller iterates: time each step.
                return self.timed_iter(name, value)
            return value
        return spanned

    def _roundtrip(self, merge):
        """Ship each shard outcome through pickle before ``merge`` sees it,
        as the process backend does."""

        @functools.wraps(merge)
        def shipped(*args, **kwargs):
            if len(args) > 1 and isinstance(args[1], (list, tuple)):
                received = []
                for outcome in args[1]:
                    blob = self.timed("parallel.outcome_pickle_s", pickle.dumps, outcome)
                    self.counts["parallel.outcome_bytes"] += len(blob)
                    received.append(self.timed("parallel.outcome_unpickle_s", pickle.loads, blob))
                args = (args[0], received, *args[2:])
            return merge(*args, **kwargs)
        return shipped

    # ------------------------------------------------------------- report
    def metrics(self) -> dict[str, float]:
        """Every layer metric: self seconds or exact counts (0 when unused)."""
        return {
            name: self.self_s.get(name, 0.0) if name.endswith("_s") else self.counts.get(name, 0)
            for name in layer_metrics()
        }


def _hierarchy(root: type) -> list[type]:
    seen, pending = [], [root]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def _rebind_everywhere(original, wrapper) -> None:
    """Replace ``original`` in every loaded ``repro`` module that binds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
