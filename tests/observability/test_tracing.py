"""Tests for the tracer: span trees, the no-op default, determinism."""

import pytest

from repro.observability import (
    NOOP_SPAN,
    NOOP_TRACER,
    MetricsRegistry,
    NoopTracer,
    Tracer,
    trace_span,
)
from repro.observability.tracing import _ACTIVE


class FakeClock:
    """Deterministic clock advancing 1 ms per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


class TestTracer:
    def test_span_tree_shape(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("query", k=5):
            with trace_span("retrieval") as retrieval:
                retrieval.set(cache="miss")
                with trace_span("encode"):
                    pass
                with trace_span("index-search", modality="text"):
                    pass
            with trace_span("generation"):
                pass
        root = tracer.last_trace
        assert root.name == "query"
        assert [child.name for child in root.children] == ["retrieval", "generation"]
        retrieval = root.find("retrieval")
        assert [child.name for child in retrieval.children] == [
            "encode", "index-search",
        ]
        assert retrieval.attributes["cache"] == "miss"
        assert root.find("index-search").attributes["modality"] == "text"
        for span in root.walk():
            assert span.duration >= 0.0

    def test_durations_nest(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("query"):
            with trace_span("inner"):
                pass
        root = tracer.last_trace
        assert root.duration >= root.find("inner").duration > 0.0

    def test_capacity_evicts_oldest(self):
        tracer = Tracer(capacity=2, clock=FakeClock())
        for index in range(3):
            with tracer.trace("query", round=index):
                pass
        assert len(tracer.traces) == 2
        assert [t.attributes["round"] for t in tracer.traces] == [1, 2]

    def test_export_is_json_ready(self):
        import json

        tracer = Tracer(clock=FakeClock())
        with tracer.trace("query", k=3):
            with trace_span("encode"):
                pass
        exported = json.loads(json.dumps(tracer.export()))
        assert exported[0]["name"] == "query"
        assert exported[0]["attributes"]["k"] == 3
        assert exported[0]["children"][0]["name"] == "encode"
        assert exported[0]["duration_ms"] >= 0.0

    def test_export_limit(self):
        tracer = Tracer(clock=FakeClock())
        for index in range(4):
            with tracer.trace("query", round=index):
                pass
        limited = tracer.export(limit=2)
        assert [t["attributes"]["round"] for t in limited] == [2, 3]

    @pytest.mark.parametrize("limit", [0, -1, -3])
    def test_export_zero_or_negative_limit_is_empty(self, limit):
        tracer = Tracer(clock=FakeClock())
        for index in range(5):
            with tracer.trace("query", round=index):
                pass
        assert tracer.export(limit=limit) == []
        assert len(tracer.export()) == 5

    def test_exception_annotates_and_restores_context(self):
        tracer = Tracer(clock=FakeClock())
        try:
            with tracer.trace("query"):
                with trace_span("retrieval"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert _ACTIVE.get() is None
        root = tracer.last_trace
        assert root.attributes["error"] == "RuntimeError"
        assert root.find("retrieval").attributes["error"] == "RuntimeError"

    def test_feeds_stage_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry, clock=FakeClock())
        with tracer.trace("query"):
            with trace_span("encode"):
                pass
        assert registry.histogram("stage_ms.query").count == 1
        assert registry.histogram("stage_ms.encode").count == 1


class TestNoopPath:
    def test_trace_span_without_active_trace_is_noop(self):
        span = trace_span("index-search", modality="text")
        assert span is NOOP_SPAN
        with span as inner:
            inner.set(hops=3)  # silently ignored

    def test_noop_tracer_records_nothing(self):
        tracer = NoopTracer()
        with tracer.trace("query"):
            with trace_span("encode"):
                pass
        assert tracer.traces == []
        assert tracer.last_trace is None
        assert tracer.export() == []
        assert not tracer.enabled

    def test_noop_tracer_does_not_activate_ambient_state(self):
        with NOOP_TRACER.trace("query"):
            assert _ACTIVE.get() is None
            assert trace_span("encode") is NOOP_SPAN
