"""Tests for counters and streaming histograms."""

import numpy as np
import pytest

from repro.observability import Counter, Histogram, MetricsRegistry, Window


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("queries")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("queries").inc(-1)


class TestHistogram:
    def test_percentiles_match_numpy_on_fixed_sample(self):
        # Below the reservoir watermark every observation is retained, so
        # the sketch's percentiles must be *exact*.
        rng = np.random.default_rng(42)
        sample = rng.exponential(scale=10.0, size=300)
        histogram = Histogram("latency", reservoir_size=512)
        for value in sample:
            histogram.observe(value)
        for q in (50, 95, 99):
            assert histogram.percentile(q) == pytest.approx(
                float(np.percentile(sample, q))
            )
        assert histogram.mean == pytest.approx(float(sample.mean()))
        assert histogram.min == pytest.approx(float(sample.min()))
        assert histogram.max == pytest.approx(float(sample.max()))

    def test_reservoir_bounds_memory(self):
        histogram = Histogram("latency", reservoir_size=64)
        for value in range(1000):
            histogram.observe(float(value))
        assert len(histogram._reservoir) == 64
        assert histogram.count == 1000
        # min/max/mean track the full stream, not just the reservoir.
        assert histogram.min == 0.0
        assert histogram.max == 999.0
        assert histogram.mean == pytest.approx(499.5)

    def test_deterministic_given_name_and_stream(self):
        streams = []
        for _ in range(2):
            histogram = Histogram("latency", reservoir_size=16)
            for value in range(200):
                histogram.observe(float(value))
            streams.append(list(histogram._reservoir))
        assert streams[0] == streams[1]

    def test_empty_summary(self):
        summary = Histogram("latency").summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_validates_reservoir_size(self):
        with pytest.raises(ValueError):
            Histogram("latency", reservoir_size=0)


class TestWindow:
    def test_percentiles_match_numpy_below_capacity(self):
        rng = np.random.default_rng(7)
        sample = rng.exponential(scale=10.0, size=100)
        window = Window(128)
        for value in sample:
            window.observe(value)
        assert len(window) == 100
        for q in (50, 95, 100):
            assert window.percentile(q) == pytest.approx(
                float(np.percentile(sample, q))
            )
        assert window.mean == pytest.approx(float(sample.mean()))

    def test_evicts_oldest_first_at_capacity(self):
        window = Window(4)
        for value in range(10):
            window.observe(value)
        assert len(window) == 4
        # What is left is 6, 7, 8, 9: the stream's tail, not a sample of it.
        assert window.percentile(0) == 6.0
        assert window.percentile(100) == 9.0
        assert window.mean == 7.5

    def test_empty_reads_zero(self):
        window = Window(8)
        assert len(window) == 0
        assert window.percentile(95) == 0.0
        assert window.mean == 0.0


class TestMetricsRegistry:
    def test_creates_on_first_use(self):
        registry = MetricsRegistry()
        registry.inc("api.query")
        registry.observe("api.request_ms", 12.0)
        assert registry.counter_value("api.query") == 1.0
        assert registry.counter_value("never.touched") == 0.0
        assert registry.histogram("api.request_ms").count == 1

    def test_snapshot_round_trips_to_json(self):
        import json

        registry = MetricsRegistry()
        registry.inc("queries", 3)
        for value in (1.0, 2.0, 3.0):
            registry.observe("latency", value)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["counters"]["queries"] == 3
        assert snapshot["histograms"]["latency"]["count"] == 3
        assert snapshot["histograms"]["latency"]["p50"] == 2.0

    def test_histogram_summaries_strip_prefix(self):
        registry = MetricsRegistry()
        registry.observe("stage_ms.encode", 1.0)
        registry.observe("stage_ms.generation", 2.0)
        registry.observe("api.request_ms", 3.0)
        stages = registry.histogram_summaries("stage_ms.")
        assert set(stages) == {"encode", "generation"}
