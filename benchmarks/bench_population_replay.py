"""Million-function population replay: the ROADMAP item 2 scale-out.

The paper's experiments drive a handful of deployments; production FaaS
schedulers see millions of functions with Zipf popularity, diurnal tenants
and correlated bursts.  This target replays a **1M-function synthetic
population** (:mod:`repro.population`) through the sharded + columnar
streaming path: ≥10M invocations, recipe shards that synthesize their own
arrivals (the parent process never materialises a request), and per-tenant
cost attribution folded from the merged streaming summaries.

Two properties are asserted, not just measured:

* **scale** — 1M planned functions, ≥10M replayed invocations;
* **O(functions) parent memory** — the parent's peak RSS is recorded and
  gated; it holds the shard plan (one int per member) and the merged
  per-function accumulators, never the invocation stream.

``BENCH_population.json`` records throughput, parent peak RSS and the
top-tenant spend attribution; ``benchmarks/check_regression.py`` gates the
committed artifact against ``baselines.json``.  This is a multi-minute
target (like ``bench_parallel_replay``), so CI gates the committed artifact
rather than re-running it; refresh with ``make bench-population`` after an
intentional change and commit the diff.
"""

from __future__ import annotations

import resource
from pathlib import Path

from conftest import emit_bench_json, run_once

from repro.config import Provider, SimulationConfig
from repro.population import PopulationSpec, replay_population
from repro.simulator.providers import create_platform

FUNCTIONS = 1_000_000
DURATION_S = 1_000.0
AGGREGATE_RATE_PER_S = 10_500.0  # ~10.5M expected invocations
TARGET_INVOCATIONS = 10_000_000
WORKERS = 2
TOP_TENANTS = 10

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_population.json"


def _population() -> PopulationSpec:
    return PopulationSpec(
        n_functions=FUNCTIONS,
        duration_s=DURATION_S,
        aggregate_rate_per_s=AGGREGATE_RATE_PER_S,
        name="pop1m",
    )


def _platform():
    # A tight provider-log bound: at 10M invocations unbounded per-function
    # logs would dominate worker memory.
    return create_platform(Provider.AWS, SimulationConfig(seed=42, log_retention=8))


def test_population_replay_1m_functions(benchmark):
    population = _population()

    result = run_once(
        benchmark,
        lambda: replay_population(
            _platform(),
            population,
            workers=WORKERS,
            top_tenants=TOP_TENANTS,
            profile=True,
        ),
    )

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replay = result.result
    print(
        f"\npopulation replay: {result.functions_active:,}/{result.functions_total:,} "
        f"functions active, {result.invocations:,} invocations in "
        f"{replay.wall_clock_s:.1f}s ({result.throughput_per_s:,.0f}/s), "
        f"parent peak RSS {peak_rss_mb:,.0f} MB"
    )
    for spend in result.top_tenants[:3]:
        print(f"  {spend.tenant}: ${spend.cost_usd:.4f} over {spend.invocations:,} invocations")

    emit_bench_json(
        BENCH_JSON,
        {
            "benchmark": "population",
            "functions": result.functions_total,
            "functions_active": result.functions_active,
            "invocations": result.invocations,
            "workers": WORKERS,
            "duration_s": DURATION_S,
            "wall_clock_s": round(replay.wall_clock_s, 2),
            "throughput_per_s": round(result.throughput_per_s, 1),
            "parent_peak_rss_mb": round(peak_rss_mb, 1),
            "cost_usd": round(result.total_cost_usd, 4),
            "profile": {
                name: round(seconds, 2) for name, seconds in replay.profile.phases.items()
            }
            if replay.profile is not None
            else None,
            "top_tenants": [spend.to_row() for spend in result.top_tenants],
        },
    )

    assert result.functions_total == FUNCTIONS
    assert result.invocations >= TARGET_INVOCATIONS
    assert len(result.top_tenants) == TOP_TENANTS
    # Attribution is ranked by spend and covers real traffic.
    spends = [spend.cost_usd for spend in result.top_tenants]
    assert spends == sorted(spends, reverse=True)
    assert all(spend.invocations > 0 for spend in result.top_tenants)
