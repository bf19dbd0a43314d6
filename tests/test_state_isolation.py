"""Per-instance and per-function state isolation of the simulator.

The sharding work (PR 4) surfaced two latent state leaks, both fixed and
pinned here:

* **module-level container-id counter** — sandbox ids used to come from one
  process-wide ``itertools.count``, so a platform's container ids (and the
  eviction policies' ``(created_at, container_id)`` tie-break ordering past
  the six-digit rollover) depended on how many containers *other* platforms
  had created.  Ids are now minted per pool.
* **shared billing-model singletons** — ``billing_model_for`` used to hand
  out module-level instances whose mutable ``_static_costs`` memo was
  shared by every platform in the process.  The memo is gone (the compiled
  function classes hold the static costs), so billing models hold no
  mutable state and are safe to share.

The remaining tests pin the isolation properties sharded replay depends
on: identical replays on identical fresh instances are bit-identical, a
platform instance is deterministic across repeated use, and one function's
records do not change when other functions' traffic is added or removed.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import Provider, SimulationConfig
from repro.experiments.base import deploy_benchmark
from repro.faas.billing import billing_model_for
from repro.simulator.containers import ContainerPool
from repro.simulator.providers import create_platform
from repro.workload import PoissonArrivals, WorkloadTrace

PROVIDERS = (Provider.AWS, Provider.GCP, Provider.AZURE)


def _platform(provider: Provider, seed: int = 23):
    platform = create_platform(provider, SimulationConfig(seed=seed))
    for index, (benchmark, memory_mb) in enumerate(
        (("dynamic-html", 256), ("thumbnailer", 1024))
    ):
        deploy_benchmark(
            platform,
            benchmark,
            memory_mb=memory_mb if platform.limits.memory_static else 0,
            function_name=f"iso-{index}",
        )
    return platform


def _trace(duration_s: float = 40.0):
    return WorkloadTrace.merge(
        WorkloadTrace.synthesize("iso-0", PoissonArrivals(8.0), duration_s=duration_s, rng=51),
        WorkloadTrace.synthesize("iso-1", PoissonArrivals(8.0), duration_s=duration_s, rng=52),
    )


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_identical_fresh_platforms_replay_bit_identically(provider):
    """No module-level state: instance N and instance N+1 agree exactly.

    This is the test that caught the process-wide container-id counter —
    the second platform's records carried different ``container_id`` values
    purely because the first platform had already minted some.
    """
    trace = _trace()
    first = _platform(provider).run_workload(trace)
    second = _platform(provider).run_workload(trace)
    assert first.records == second.records


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_repeated_replay_on_one_instance_is_deterministic(provider):
    """Replaying the same trace twice on one platform instance produces the
    same pair of results as on any identically prepared instance — the
    second pass (warm pools, advanced streams) is a pure function of the
    instance's own history, never of process-global state."""
    trace = _trace()
    platform_a = _platform(provider)
    first_a = platform_a.run_workload(trace)
    second_a = platform_a.run_workload(trace)
    platform_b = _platform(provider)
    first_b = platform_b.run_workload(trace)
    second_b = platform_b.run_workload(trace)
    assert first_a.records == first_b.records
    assert second_a.records == second_b.records


def test_iaas_container_ids_are_pool_scoped():
    """The IaaS VM bookkeeping container must also mint pool-scoped ids."""
    platform = create_platform(Provider.IAAS, SimulationConfig(seed=5))
    for index, benchmark in enumerate(("dynamic-html", "thumbnailer")):
        deploy_benchmark(platform, benchmark, memory_mb=1024, function_name=f"vm-{index}")
    first = platform.invoke("vm-0", payload={})
    second = platform.invoke("vm-1", payload={})
    assert first.container_id == "vm-0-c00000001"
    assert second.container_id == "vm-1-c00000001"


def test_container_ids_are_pool_scoped():
    pool_a = ContainerPool("alpha")
    pool_b = ContainerPool("beta")
    assert pool_a.next_container_id() == "alpha-c00000001"
    assert pool_a.next_container_id() == "alpha-c00000002"
    # A different pool starts from 1 regardless of other pools' activity.
    assert pool_b.next_container_id() == "beta-c00000001"


def test_billing_models_hold_no_mutable_state():
    """A billing model is shared by every platform of its provider, so it
    must be frozen and hold only immutable scalars — no cache or memo that
    pricing calls could fill."""
    for provider in Provider:
        billing = billing_model_for(provider)
        names = {field.name for field in dataclasses.fields(billing)}
        for name in names:
            assert isinstance(getattr(billing, name), (bool, int, float, str, Provider)), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            billing.gb_second_price = 1.0
        billing.invocation_cost(0.2, 256, 100.0, output_bytes=1024)
        billing.compile(256, output_bytes=1024, storage_requests=3)
        assert set(vars(billing)) == names


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.value)
def test_function_records_independent_of_co_deployed_traffic(provider):
    """The per-function isolation sharding relies on: function iso-0's
    records are identical whether iso-1's traffic replays alongside it or
    not."""
    solo_platform = _platform(provider)
    solo_trace = WorkloadTrace.synthesize("iso-0", PoissonArrivals(8.0), duration_s=40.0, rng=51)
    solo = solo_platform.run_workload(solo_trace)
    mixed = _platform(provider).run_workload(_trace())
    mixed_records = [r for r in mixed.records if r.function_name == "iso-0"]
    assert mixed_records == solo.records
