"""Kernel-mode invocations pinned bit for bit.

With ``execute_kernels=True`` the real kernel's output replaces the
profile's output size in the response download time and in the static
(egress) costs, and a latency storm then scales those values like any
other.  The expected values are ``float.hex`` strings of a reference run,
so any change to the order of the arithmetic shows up here, not only a
change of magnitude.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmarks.base import BenchmarkContext, InputSize
from repro.benchmarks.registry import default_registry
from repro.config import Provider, SimulationConfig, StartType
from repro.experiments.base import deploy_benchmark
from repro.faas.invocation import InvocationRequest
from repro.faults import FaultPlaneConfig, LatencyStorm
from repro.simulator.providers import create_platform

#: The request, compute, storage and egress costs of a completed invocation.
_SUCCESS_STATICS = ("0x1.ad7f29abcaf49p-22", "0x1.4f8b588e368f1p-19", "0x0.0p+0", "0x1.0fae147ae147bp-24")


def _pinned(record) -> tuple:
    """Output size, then the hex of client time, billed duration, provider
    time, memory used and the four cost parts."""
    cost = record.cost
    return (
        record.output_bytes,
        record.client_time_s.hex(),
        record.billed_duration_s.hex(),
        record.provider_time_s.hex(),
        record.memory_used_mb.hex(),
        cost.request_cost.hex(),
        cost.compute_cost.hex(),
        cost.storage_cost.hex(),
        cost.egress_cost.hex(),
    )


def _graph_bfs(simulation: SimulationConfig, timeout_s: float | None = None):
    platform = create_platform(Provider.GCP, simulation=simulation, execute_kernels=True)
    fname = deploy_benchmark(platform, "graph-bfs", memory_mb=1024, timeout_s=timeout_s)
    context = BenchmarkContext(storage=platform.object_store, rng=np.random.default_rng(0))
    event = default_registry().get("graph-bfs").generate_input(InputSize.TEST, context)
    return platform, fname, event


@pytest.mark.parametrize(
    "timeout_s, expected",
    (
        pytest.param(
            None,
            (566, "0x1.c8372ce0fc1c7p+1", "0x1.999999999999ap-3", "0x1.b4e5ad458d248p-4",
             "0x1.212f739e20e4ep+6", *_SUCCESS_STATICS),
            id="completed",
        ),
        # The kernel ran, but the invocation hit its time limit: billed at
        # the limit, no response download and no egress.
        pytest.param(
            0.05,
            (566, "0x1.c0f373328b6f0p+1", "0x1.999999999999ap-4", "0x1.999999999999ap-5",
             "0x1.212f739e20e4ep+6", "0x1.ad7f29abcaf49p-22", "0x1.4f8b588e368f1p-20",
             "0x0.0p+0", "0x0.0p+0"),
            id="timeout",
        ),
    ),
)
def test_kernel_invoke_is_pinned(timeout_s, expected):
    platform, fname, event = _graph_bfs(SimulationConfig(seed=1), timeout_s)
    record = platform.invoke(fname, payload=event)
    assert record.output["num_vertices"] == 128
    assert record.success is (timeout_s is None)
    assert _pinned(record) == expected


def test_kernel_workload_through_a_storm_is_pinned():
    """Requests at t = 0, 1 and 3 s; a storm covers [0.5, 1.5) s, so the
    second (cold) invocation has its kernel-derived download time, its cold
    init and its compute scaled."""
    storm = LatencyStorm(start_s=0.5, duration_s=1.0, compute_multiplier=2.0, network_multiplier=3.0)
    simulation = SimulationConfig(seed=3, faults=FaultPlaneConfig(storms=(storm,)))
    platform, fname, event = _graph_bfs(simulation)
    requests = [InvocationRequest(fname, payload=event, submitted_at=t) for t in (0.0, 1.0, 3.0)]
    records = platform.run_workload(requests).records
    assert [(r.start_type, r.success) for r in records] == [
        (StartType.COLD, True),
        (StartType.COLD, True),
        (StartType.WARM, True),
    ]
    assert [_pinned(r) for r in records] == [
        (566, "0x1.ddb920d1b21cep+0", "0x1.999999999999ap-3", "0x1.a2e82f4da4821p-4",
         "0x1.14db1cbc170b7p+6", *_SUCCESS_STATICS),
        (566, "0x1.df528e9c2f379p+1", "0x1.999999999999ap-3", "0x1.7f32f5a1209fbp-3",
         "0x1.0fa475df327ccp+6", *_SUCCESS_STATICS),
        (566, "0x1.b3415bf3878fbp-3", "0x1.999999999999ap-3", "0x1.ab252014b8096p-4",
         "0x1.214690c07f238p+6", *_SUCCESS_STATICS),
    ]
