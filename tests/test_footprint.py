"""Start-up and footprint guard for replay processes.

Every replay process (the CLI, a population worker forked or spawned per
shard) pays for what ``import repro`` loads and for how its input is held.
A fresh interpreter must therefore run every kind of replay without SciPy,
which only median confidence intervals need, and a synthesized trace must
hold compact requests: slotted, picklable, sharing one payload mapping.
The replays run in a subprocess so that modules this test session already
imported cannot hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = r"""
import json
import pickle
import sys

import repro
from repro.concurrency import OverloadConfig
from repro.config import Provider, SimulationConfig
from repro.experiments.base import deploy_benchmark
from repro.faults import FaultPlaneConfig, OutageWindow
from repro.population import PopulationSpec, replay_population
from repro.resilience import CircuitBreakerConfig, ResilienceConfig
from repro.simulator.providers import create_platform
from repro.workload.arrivals import PoissonArrivals
from repro.workload.trace import WorkloadTrace

facts = {"scipy_after_import": "scipy" in sys.modules}
retry = dict(retry_policy="exponential", max_retries=3, retry_base_delay_s=0.5, retry_max_delay_s=4.0)
controlled = SimulationConfig(
    seed=1,
    overload=OverloadConfig(reserved_concurrency=4, **retry),
    resilience=ResilienceConfig(
        breaker=CircuitBreakerConfig(window=10, min_calls=3, cooldown_s=2.0),
        stale_after_s=1.5,
        **retry,
    ),
    faults=FaultPlaneConfig(outages=(OutageWindow(start_s=5.0, duration_s=3.0),)),
)
trace = WorkloadTrace.synthesize(
    "fn", PoissonArrivals(20.0), duration_s=20.0, rng=1, payload={"size": 1}
)
for simulation in (SimulationConfig(seed=1), controlled):
    platform = create_platform(Provider.AWS, simulation)
    deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="fn")
    platform.run_workload(trace, keep_records=False)
platform = create_platform(Provider.AWS, SimulationConfig(seed=1))
deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name="fn")
facts["streamed"] = sum(1 for _ in platform.invoke_stream(trace))
population = PopulationSpec(n_functions=40, duration_s=60.0, aggregate_rate_per_s=5.0, name="pop")
replay_population(
    create_platform(Provider.AWS, SimulationConfig(seed=1)),
    population,
    seed=1,
    workers=2,
    backend="sequential",
)
facts["scipy_after_replays"] = "scipy" in sys.modules

from repro.stats import nonparametric_ci

nonparametric_ci([1.0, 2.0, 3.0, 4.0, 5.0])
facts["scipy_after_ci"] = "scipy" in sys.modules

requests = list(trace)
facts["requests"] = len(requests)
facts["request_has_dict"] = hasattr(requests[0], "__dict__")
facts["pickle_round_trip"] = pickle.loads(pickle.dumps(requests)) == requests
facts["payload_objects"] = len({id(request.payload) for request in requests})
print(json.dumps(facts))
"""


@pytest.fixture(scope="module")
def facts() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_replays_run_without_scipy(facts: dict) -> None:
    """Import, streaming, controlled, invoke_stream and population replays load no SciPy."""
    assert not facts["scipy_after_import"]
    assert facts["streamed"] == facts["requests"] > 0
    assert not facts["scipy_after_replays"]


def test_confidence_interval_loads_scipy_on_first_use(facts: dict) -> None:
    assert facts["scipy_after_ci"]


def test_synthesized_requests_are_compact(facts: dict) -> None:
    """Requests are slotted and picklable, and one trace shares one payload."""
    assert not facts["request_has_dict"]
    assert facts["pickle_round_trip"]
    assert facts["payload_objects"] == 1
