"""The benchmark's replay workloads.

Each workload turns ``--seed`` into generated inputs and hands back a
:class:`Prepared` that builds empty AWS platforms for them.  The timed call
gives the whole generated input to the program in a single streaming replay
(``keep_records=False``).  A replay is a batch, neither an
open nor a closed loop, so the benchmark reports simulated client requests
per host second at the input size recorded with each run.

Only public entry points of :mod:`repro` are used here, so the workloads
keep running while the internals they exercise are renamed or deleted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

#: Seed whose simulated-output digests are recorded in ``digests.json``.
DEFAULT_SEED = 1

#: Replay parallelism of ``population-wide`` (shards; processes when untraced).
POPULATION_WORKERS = 2

# trace-hot: one function fed a long Poisson trace.
HOT_FUNCTION = "hot-html"
HOT_RATE_PER_S = 50.0
HOT_DURATION_S = 2_000.0  # ~100k invocations

# population-wide: many functions, ~15 invocations per active function.
POP_FUNCTIONS = 3_000
POP_DURATION_S = 300.0
POP_RATE_PER_S = 112.5  # ~34k invocations over ~2.5k active functions

# storm-controlled: reserved concurrency below the offered concurrency,
# an outage, a breaker, jittered client retries and stale resubmission.
STORM_FUNCTION = "storm-api"
STORM_RATE_PER_S = 200.0
STORM_DURATION_S = 100.0  # ~20k requests
STORM_RESERVED = 40
STORM_OUTAGE_START_S = 40.0
STORM_OUTAGE_S = 15.0
STORM_RETRY = dict(
    retry_policy="exponential",
    max_retries=6,
    retry_base_delay_s=0.5,
    retry_max_delay_s=8.0,
)


@dataclass
class Prepared:
    """A workload's generated inputs, ready to replay.

    ``fresh`` builds an empty platform for the inputs (untimed) and returns
    the timed call, which replays the whole input and returns the merged
    :class:`~repro.workload.engine.WorkloadResult`.  ``count_requests``
    recounts the generated input.  ``worker_processes`` is true when the
    replay forks shard workers.
    """

    fresh: Callable[[], Callable[[], object]]
    functions: int
    count_requests: Callable[[], int]
    worker_processes: bool = False


def _simulation(seed: int, **extra):
    """The shared simulation config, on the columnar path while it exists."""
    from repro.config import SimulationConfig

    if "columnar" in {field.name for field in dataclasses.fields(SimulationConfig)}:
        extra["columnar"] = True
    return SimulationConfig(seed=seed, log_retention=8, **extra)


def _single_function(name: str, rate_per_s: float, duration_s: float, seed: int, simulation):
    from repro.config import Provider
    from repro.experiments.base import deploy_benchmark
    from repro.simulator.providers import create_platform
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.trace import WorkloadTrace

    trace = WorkloadTrace.synthesize(
        name, PoissonArrivals(rate_per_s), duration_s=duration_s, rng=seed
    )

    def fresh():
        platform = create_platform(Provider.AWS, simulation)
        deploy_benchmark(platform, "dynamic-html", memory_mb=256, function_name=name)
        return lambda: platform.run_workload(trace, keep_records=False)

    return Prepared(fresh=fresh, functions=1, count_requests=lambda: len(trace))


def trace_hot(seed: int, in_process: bool) -> Prepared:
    """One 256 MB ``dynamic-html`` function, a long 50/s Poisson trace."""
    return _single_function(
        HOT_FUNCTION, HOT_RATE_PER_S, HOT_DURATION_S, seed, _simulation(seed)
    )


def storm_controlled(seed: int, in_process: bool) -> Prepared:
    """A throttled function through an outage, with breaker and retries."""
    from repro.concurrency import OverloadConfig
    from repro.faults import FaultPlaneConfig, OutageWindow
    from repro.resilience import CircuitBreakerConfig, ResilienceConfig

    breaker = CircuitBreakerConfig(
        window=20,
        min_calls=5,
        failure_threshold=0.5,
        cooldown_s=STORM_OUTAGE_S / 3.0,
        half_open_probes=3,
    )
    simulation = _simulation(
        seed,
        overload=OverloadConfig(reserved_concurrency=STORM_RESERVED, **STORM_RETRY),
        resilience=ResilienceConfig(breaker=breaker, stale_after_s=1.5, **STORM_RETRY),
        faults=FaultPlaneConfig(
            outages=(OutageWindow(start_s=STORM_OUTAGE_START_S, duration_s=STORM_OUTAGE_S),)
        ),
    )
    return _single_function(
        STORM_FUNCTION, STORM_RATE_PER_S, STORM_DURATION_S, seed, simulation
    )


def population_wide(seed: int, in_process: bool) -> Prepared:
    """A Zipf population replayed in shards, on worker processes or in-process."""
    from repro.config import Provider
    from repro.population import PopulationSpec, replay_population
    from repro.simulator.providers import create_platform

    population = PopulationSpec(
        n_functions=POP_FUNCTIONS,
        duration_s=POP_DURATION_S,
        aggregate_rate_per_s=POP_RATE_PER_S,
        name="pop",
    )
    simulation = _simulation(seed)
    # In-process replay (the traced run) keeps every layer call visible here;
    # the shard plan is the same, so the simulated outputs are too.
    backend = "sequential" if in_process else "process"

    def fresh():
        platform = create_platform(Provider.AWS, simulation)
        return lambda: replay_population(
            platform, population, seed=seed, workers=POPULATION_WORKERS, backend=backend
        ).result

    def count_requests() -> int:
        return sum(
            int(population.arrivals(index, seed).size)
            for index in range(population.n_functions)
        )

    return Prepared(
        fresh=fresh,
        functions=POP_FUNCTIONS,
        count_requests=count_requests,
        worker_processes=not in_process,
    )


WORKLOADS = {
    "trace-hot": trace_hot,
    "population-wide": population_wide,
    "storm-controlled": storm_controlled,
}
