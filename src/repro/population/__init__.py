"""Million-tenant workload populations and production-trace ingestion.

The paper's experiments drive a handful of hand-tuned benchmark deployments;
production FaaS platforms schedule millions of tenants whose functions have
heavy-tailed popularity, diurnal traffic and correlated bursts.  This package
closes that gap with two load sources that share one **lazy recipe**
abstraction:

* :class:`PopulationSpec` — a synthetic multi-tenant population: Zipf
  popularity over an app-profile catalog shaped like the SeBS suite,
  per-tenant diurnal phase offsets and correlated burst epochs.  Nothing is
  materialised up front: every function's arrivals derive from its own
  ``(seed, "pop", fname)`` stream, so any subset replays bit-identically.
* :class:`TraceIngest` — an adapter for the Azure Functions
  invocation-per-minute CSV trace format, mapping rows onto the same recipe
  abstraction (:class:`IngestedPopulation`).

Both plug into the existing machinery three ways: ``population.scenario(seed)``
bridges into :class:`repro.workload.scenario.Scenario`,
:meth:`repro.parallel.plan.ShardPlanner.plan_population` partitions members
across workers, and :func:`replay_population` runs the sharded streaming
replay through the columnar hot path with per-tenant cost attribution.
"""

from .profiles import SEBS_PROFILES, AppProfile
from .spec import FunctionRecipe, PopulationArrivals, PopulationSpec
from .ingest import IngestedPopulation, TraceIngest
from .replay import (
    PopulationReplayResult,
    TenantSpend,
    deploy_population,
    replay_population,
    tenant_attribution,
)

__all__ = [
    "AppProfile",
    "SEBS_PROFILES",
    "PopulationSpec",
    "PopulationArrivals",
    "FunctionRecipe",
    "TraceIngest",
    "IngestedPopulation",
    "PopulationReplayResult",
    "TenantSpend",
    "deploy_population",
    "replay_population",
    "tenant_attribution",
]
