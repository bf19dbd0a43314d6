"""Tests for the constant-memory streaming statistics and replay plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Provider, SimulationConfig, TriggerType
from repro.exceptions import ConfigurationError
from repro.experiments.base import deploy_benchmark
from repro.faas.invocation import InvocationRequest
from repro.faas.platform import LogQueryType
from repro.simulator.providers import create_platform
from repro.stats import StreamingMoments, StreamingSummary
from repro.workload import PoissonArrivals, WorkloadTrace


class TestStreamingMoments:
    def test_matches_numpy_on_random_data(self):
        rng = np.random.default_rng(3)
        data = rng.lognormal(mean=0.0, sigma=0.7, size=5000)
        moments = StreamingMoments()
        for x in data:
            moments.add(float(x))
        assert moments.count == 5000
        assert moments.mean == pytest.approx(float(np.mean(data)), rel=1e-9)
        assert moments.std == pytest.approx(float(np.std(data, ddof=1)), rel=1e-9)
        assert moments.minimum == float(np.min(data))
        assert moments.maximum == float(np.max(data))

    def test_small_samples(self):
        moments = StreamingMoments()
        moments.add(2.0)
        assert moments.variance == 0.0
        moments.add(4.0)
        assert moments.mean == pytest.approx(3.0)
        assert moments.variance == pytest.approx(2.0)


class TestStreamingSummary:
    def test_to_summary_shape_and_accuracy(self):
        rng = np.random.default_rng(23)
        data = rng.gamma(shape=2.0, scale=0.1, size=8000)
        streaming = StreamingSummary()
        for x in data:
            streaming.add(float(x))
        summary = streaming.to_summary()
        assert summary.count == 8000
        assert summary.mean == pytest.approx(float(np.mean(data)), rel=1e-9)
        assert summary.median == pytest.approx(float(np.median(data)), rel=0.05)
        assert summary.percentiles[95.0] == pytest.approx(float(np.percentile(data, 95)), rel=0.05)
        assert summary.confidence_intervals == {}
        # Same whisker accessors as the exact summaries.
        assert summary.whisker_low <= summary.median <= summary.whisker_high

    def test_empty_summary_raises(self):
        with pytest.raises(ConfigurationError):
            StreamingSummary().to_summary()


class TestLogRetention:
    def test_history_is_bounded(self):
        platform = create_platform(Provider.AWS, SimulationConfig(seed=1, log_retention=50))
        fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
        for _ in range(120):
            platform.invoke(fname, payload={})
        times = platform.query_logs(fname, LogQueryType.TIME)
        assert len(times) == 50

    def test_unlimited_by_default(self):
        platform = create_platform(Provider.AWS, SimulationConfig(seed=1))
        fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
        for _ in range(120):
            platform.invoke(fname, payload={})
        assert len(platform.query_logs(fname, LogQueryType.TIME)) == 120

    def test_rejects_non_positive_retention(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(log_retention=0)


class TestStreamingReplayMode:
    def test_lazy_request_iterable(self):
        """keep_records=False accepts a generator — no trace materialisation."""
        platform = create_platform(Provider.AWS, SimulationConfig(seed=2, log_retention=100))
        fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)

        def requests():
            timestamp = 0.0
            for _ in range(500):
                timestamp += 0.05
                yield InvocationRequest(
                    function_name=fname, payload={}, trigger=TriggerType.HTTP, submitted_at=timestamp
                )

        result = platform.run_workload(requests(), keep_records=False)
        assert result.invocations == 500
        assert result.records == []
        assert result.total_cost_usd > 0
        assert result.per_function()[fname].invocations == 500

    def test_summary_row_works_without_records(self):
        platform = create_platform(Provider.GCP, SimulationConfig(seed=4))
        fname = deploy_benchmark(platform, "dynamic-html", memory_mb=256)
        trace = WorkloadTrace.synthesize(fname, PoissonArrivals(5.0), duration_s=120, rng=4)
        result = platform.run_workload(trace, keep_records=False)
        row = result.summary_row()
        assert row["invocations"] == len(trace)
        assert row["cold_starts"] == result.cold_start_count
        rows = result.to_rows()
        assert rows and rows[0]["function"] == fname
        assert "client_p50_ms" in rows[0]
