"""Golden-trace regression gate: replay summaries must not drift.

Two canned traces under ``tests/golden/`` have their exact (full float
precision) streaming replay summaries checked in.  Any behavioural change
to the simulator — RNG derivation, scheduler order, billing arithmetic,
float reduction order — fails here; if the change is intentional, run
``make regen-golden`` and commit the regenerated fixtures alongside it.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.workload import WorkloadTrace

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_builder():
    spec = importlib.util.spec_from_file_location("golden_builder", _GOLDEN_DIR / "builder.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("golden_builder", module)
    spec.loader.exec_module(module)
    return module


builder = _load_builder()


@pytest.mark.parametrize("name", sorted(builder.TRACES))
def test_golden_trace_summary_has_not_drifted(name):
    trace_file = builder.trace_path(name)
    expected_file = builder.expected_path(name)
    assert trace_file.exists() and expected_file.exists(), (
        f"golden fixtures for {name!r} missing — run `make regen-golden`"
    )
    trace = WorkloadTrace.from_json(trace_file)
    actual = builder.summarize_trace(trace)
    expected = json.loads(expected_file.read_text(encoding="utf-8"))
    assert actual == expected, (
        f"golden trace {name!r} drifted; if intentional, run `make regen-golden` "
        "and commit the regenerated fixtures"
    )


@pytest.mark.parametrize("name", sorted(builder.TRACES))
def test_golden_trace_matches_its_recipe(name):
    """The checked-in trace file equals its synthesis recipe (no bit rot)."""
    recipe = builder.TRACES[name]().materialize()
    stored = WorkloadTrace.from_json(builder.trace_path(name))
    assert list(stored) == list(recipe)


def test_golden_storm_summary_has_not_drifted():
    """The metastable-failure scenario (outage + naive retry storm) is
    pinned at full float precision — fault handling, stale-resubmission
    sagas and their cost folding cannot change silently."""
    trace_file = builder.trace_path(builder.STORM_NAME)
    expected_file = builder.expected_path(builder.STORM_NAME)
    assert trace_file.exists() and expected_file.exists(), (
        "golden storm fixtures missing — run `make regen-golden`"
    )
    trace = WorkloadTrace.from_json(trace_file)
    actual = builder.summarize_storm(trace)
    expected = json.loads(expected_file.read_text(encoding="utf-8"))
    assert actual == expected, (
        "golden storm scenario drifted; if intentional, run `make regen-golden` "
        "and commit the regenerated fixtures"
    )
    # Sanity of the pinned scenario itself: the outage faults or sheds work
    # and the post-outage retry herd produces stale failures somewhere.
    for summary in actual["providers"].values():
        assert summary["retries"] > 0
        assert summary["throttled"] + summary["faulted"] + summary["failures"] > 0


def test_golden_storm_timeseries_has_not_drifted():
    """The storm scenario's windowed time series is pinned exactly: window
    fold order, mergeable-reservoir percentile state and the prefix-summed
    in-flight/warm-pool levels cannot change silently."""
    expected_file = builder.expected_path(builder.STORM_TIMESERIES_NAME)
    assert expected_file.exists(), (
        "golden storm time-series fixture missing — run `make regen-golden`"
    )
    trace = WorkloadTrace.from_json(builder.trace_path(builder.STORM_NAME))
    actual = builder.summarize_storm_timeseries(trace)
    expected = json.loads(expected_file.read_text(encoding="utf-8"))
    assert actual == expected, (
        "golden storm time series drifted; if intentional, run `make regen-golden` "
        "and commit the regenerated fixtures"
    )
    # The scenario exercises the interesting columns: the outage window
    # registers faults/sheds and some window carries a latency percentile.
    for series in actual["providers"].values():
        rows = series["rows"]
        assert any(
            row["throttled"] + row["faulted"] + row["dropped"] > 0 for row in rows
        )
        assert any(row["p95_client_s"] is not None for row in rows)


def test_golden_storm_trace_matches_its_recipe():
    recipe = builder.storm_trace()
    stored = WorkloadTrace.from_json(builder.trace_path(builder.STORM_NAME))
    assert list(stored) == list(recipe)


def test_golden_mixed_generator_loop_matches_fixture():
    """The generator loop reproduces the mixed golden byte-identically —
    against the *same* expected file the batch replay (columnar engine) is
    pinned to."""
    trace = WorkloadTrace.from_json(builder.trace_path("mixed"))
    actual = builder.summarize_trace(trace, run=builder.generator_run)
    expected = json.loads(builder.expected_path("mixed").read_text(encoding="utf-8"))
    assert actual == expected, (
        "generator-loop replay of the mixed golden diverged from the fixture"
    )


def test_golden_storm_generator_loop_matches_fixture():
    """The storm golden runs the controlled overload/fault/resilience loop;
    folded straight from the generator loop it must match the fixture the
    batch replay is pinned to."""
    trace = WorkloadTrace.from_json(builder.trace_path(builder.STORM_NAME))
    actual = builder.summarize_storm(trace, run=builder.generator_run)
    expected = json.loads(
        builder.expected_path(builder.STORM_NAME).read_text(encoding="utf-8")
    )
    assert actual == expected, (
        "generator-loop replay of the storm golden diverged from the fixture"
    )


def test_golden_workflow_summary_has_not_drifted():
    """An uncontrolled fan-out/fan-in workflow replay is pinned per
    execution: end-to-end time, critical-path components and the
    per-workflow summary, all as ``float.hex``, on every provider."""
    expected_file = builder.expected_path(builder.WORKFLOW_NAME)
    assert expected_file.exists(), "golden workflow fixture missing — run `make regen-golden`"
    actual = builder.summarize_workflow(builder.workflow_arrivals())
    expected = json.loads(expected_file.read_text(encoding="utf-8"))
    assert actual == expected, (
        "golden workflow replay drifted; if intentional, run `make regen-golden` "
        "and commit the regenerated fixture"
    )
    for summary in actual["providers"].values():
        assert summary["summaries"]["fanout"]["executions"] == actual["executions"]


def test_golden_workflow_generator_loop_matches_fixture(monkeypatch):
    """An uncontrolled workflow replay runs on the columnar loop; forced
    onto the generator loop it must match the same fixture."""
    from repro.workload.engine import WorkloadEngine

    monkeypatch.setattr(WorkloadEngine, "_generator_loop", True)
    actual = builder.summarize_workflow(builder.workflow_arrivals())
    expected = json.loads(
        builder.expected_path(builder.WORKFLOW_NAME).read_text(encoding="utf-8")
    )
    assert actual == expected, (
        "generator-loop replay of the workflow golden diverged from the fixture"
    )


#: Every counter a replay reports, plus the float totals and the span.
_RESULT_AGGREGATES = (
    "invocations",
    "cold_start_count",
    "failure_count",
    "executed_count",
    "throttled_count",
    "dropped_count",
    "faulted_count",
    "short_circuited_count",
    "hedge_count",
    "retry_count",
    "queued_count",
    "queue_delay_s",
    "total_cost_usd",
    "simulated_span_s",
)


@pytest.mark.parametrize("provider", builder.PROVIDERS, ids=lambda provider: provider.value)
@pytest.mark.parametrize("name", sorted(builder.TRACES))
def test_record_and_streaming_modes_agree_exactly(name, provider):
    """Both aggregation modes fold one accumulator in arrival order, so an
    uncontrolled replay reports bit-identical totals whether or not its
    records are kept."""
    trace = WorkloadTrace.from_json(builder.trace_path(name))
    functions = trace.functions()
    kept = builder._deployed_platform(provider, functions).run_workload(trace, keep_records=True)
    streamed = builder._deployed_platform(provider, functions).run_workload(
        trace, keep_records=False
    )
    assert kept.records and not streamed.records
    for attribute in _RESULT_AGGREGATES:
        assert getattr(kept, attribute) == getattr(streamed, attribute), attribute
    kept_fns, streamed_fns = kept.per_function(), streamed.per_function()
    assert list(kept_fns) == list(streamed_fns)
    for fname, summary in kept_fns.items():
        assert summary.total_cost_usd == streamed_fns[fname].total_cost_usd, fname
        assert summary.invocations == streamed_fns[fname].invocations, fname
        assert summary.cold_starts == streamed_fns[fname].cold_starts, fname
