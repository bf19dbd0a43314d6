"""Shared fixtures of the benchmark harness.

Every file in this directory regenerates one table or figure of the paper
with ``pytest --benchmark-only``.  The experiments run against the simulated
providers with a reduced-but-representative sample count so that the whole
harness completes in minutes; pass ``--paper-scale`` to use the paper's
full N = 200 samples and 50-invocation batches.

Each target both *times* the experiment (via pytest-benchmark) and *prints*
the regenerated rows/series (run with ``-s`` to see them), and asserts the
qualitative shape the paper reports — who wins, by roughly what factor,
where the crossovers fall.
"""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig, SimulationConfig


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="use the paper's full sample counts (N=200, batches of 50)",
    )


@pytest.fixture(scope="session")
def experiment_config(request) -> ExperimentConfig:
    if request.config.getoption("--paper-scale"):
        return ExperimentConfig(samples=200, batch_size=50, seed=42)
    return ExperimentConfig(samples=30, batch_size=10, seed=42)


@pytest.fixture(scope="session")
def simulation_config() -> SimulationConfig:
    return SimulationConfig(seed=42)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def emit_bench_json(path, payload):
    """Write a machine-readable ``BENCH_*.json`` perf record to ``path``.

    The previous run's figures are carried along as ``previous`` (one
    generation, not a chain) so the perf trajectory is tracked across PRs.
    Shared by every emitting target so the dance cannot drift between
    copies; ``benchmarks/check_regression.py`` consumes the output.  The
    write is atomic (tmp + rename), so an interrupted benchmark can never
    leave a truncated artifact for the regression gate to choke on.
    """
    import json

    from repro.utils.io import atomic_write_json

    previous = None
    if path.exists():
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
            previous.pop("previous", None)
        except (OSError, ValueError):
            previous = None
    atomic_write_json(path, {**payload, "previous": previous})


def generator_loop(platform, trace, keep_records: bool = True):
    """Replay an uncontrolled ``trace`` through the generator loop.

    Folds the records of ``WorkloadEngine._run`` — the reference the batch
    replay (the columnar engine) is checked and timed against; ``stream()``
    would pick the columnar loop itself for an uncontrolled trace — into a
    ``WorkloadResult``.  Uncontrolled records come out in arrival order.
    """
    import time

    from repro.workload.engine import (
        WorkloadEngine,
        _record_builder,
        _ReplayAccumulator,
        record_result,
        streaming_result,
    )

    engine = WorkloadEngine(platform)
    out = []
    records = engine._run(trace, None, _record_builder(platform, out.append), out)
    start = time.perf_counter()
    if not keep_records:
        accumulator = _ReplayAccumulator()
        for record in records:
            accumulator.add_record(record)
        return streaming_result(
            platform.provider,
            accumulator,
            wall_clock_s=time.perf_counter() - start,
            peak_in_flight=engine.last_peak_in_flight,
        )
    return record_result(
        platform.provider,
        list(records),
        wall_clock_s=time.perf_counter() - start,
        peak_in_flight=engine.last_peak_in_flight,
    )
