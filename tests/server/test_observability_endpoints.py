"""Tests for the observability endpoints: /trace and the enriched /metrics."""

import json

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.server import ApiServer

FAST_CONFIG_KWARGS = dict(
    dataset=DatasetSpec(domain="scenes", size=100, seed=7),
    weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
    index_params={"m": 6, "ef_construction": 32},
)


@pytest.fixture(scope="module")
def traced_server(scenes_kb):
    server = ApiServer(
        MQAConfig(tracing=True, **FAST_CONFIG_KWARGS), knowledge_base=scenes_kb
    )
    assert server.handle("POST", "/apply")["ok"]
    return server


class TestTraceEndpoint:
    def test_round_trip_span_tree(self, traced_server):
        assert traced_server.handle("POST", "/query", {"text": "foggy clouds"})["ok"]
        response = traced_server.handle("GET", "/trace")
        assert response["ok"]
        assert response["enabled"]
        # The payload is plain JSON-ready data.
        traces = json.loads(json.dumps(response["traces"]))
        assert traces
        root = traces[-1]
        assert root["name"] == "query"
        children = [child["name"] for child in root["children"]]
        assert "retrieval" in children
        assert "generation" in children
        assert root["duration_ms"] >= 0.0

    def test_limit(self, traced_server):
        for text in ("stars", "shoreline", "mountain pass"):
            assert traced_server.handle("POST", "/query", {"text": text})["ok"]
        response = traced_server.handle("GET", "/trace", {"limit": 2})
        assert len(response["traces"]) == 2

    @pytest.mark.parametrize("limit", [0, -2])
    def test_zero_or_negative_limit_returns_no_trace(self, traced_server, limit):
        assert traced_server.handle("POST", "/query", {"text": "stars"})["ok"]
        response = traced_server.handle("GET", "/trace", {"limit": limit})
        assert response["ok"] and response["traces"] == []
        assert traced_server.handle("GET", "/events", {"limit": limit})["events"] == []

    def test_disabled_by_default(self, scenes_kb):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS), knowledge_base=scenes_kb)
        assert server.handle("POST", "/apply")["ok"]
        assert server.handle("POST", "/query", {"text": "foggy"})["ok"]
        response = server.handle("GET", "/trace")
        assert response["ok"]
        assert not response["enabled"]
        assert response["traces"] == []

    def test_requires_apply(self):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS))
        response = server.handle("GET", "/trace")
        assert not response["ok"]

    def test_malformed_limit_is_error_response(self, traced_server):
        response = traced_server.handle("GET", "/trace", {"limit": "oops"})
        assert not response["ok"]
        assert "limit" in response["error"]


class TestMetricsEndpoint:
    @pytest.fixture(scope="class")
    def server(self, scenes_kb):
        server = ApiServer(
            MQAConfig(tracing=True, **FAST_CONFIG_KWARGS), knowledge_base=scenes_kb
        )
        assert server.handle("POST", "/apply")["ok"]
        assert server.handle("POST", "/query", {"text": "foggy clouds"})["ok"]
        assert server.handle("POST", "/select", {"rank": 0})["ok"]
        assert server.handle("POST", "/refine", {"text": "with more snow"})["ok"]
        return server

    def test_counts_both_dialogue_verbs(self, server):
        metrics = server.handle("GET", "/metrics")["metrics"]
        assert metrics["queries"] == 1
        assert metrics["refines"] == 1
        assert metrics["mean_query_ms"] > 0.0

    def test_latency_histogram_covers_both_verbs(self, server):
        metrics = server.handle("GET", "/metrics")["metrics"]
        latency = metrics["latency_ms"]
        # One /query plus one /refine.
        assert latency["count"] == 2
        assert latency["p50"] > 0.0
        assert latency["max"] >= latency["min"] > 0.0

    def test_stage_timings_present(self, server):
        metrics = server.handle("GET", "/metrics")["metrics"]
        stages = metrics["stages"]
        assert "retrieval" in stages
        assert "generation" in stages
        # Refinement rounds are traced too: two dialogue rounds so far.
        assert stages["query"]["count"] == 2

    def test_trace_section(self, server):
        metrics = server.handle("GET", "/metrics")["metrics"]
        assert metrics["trace"]["enabled"]
        # Index construction is traced too: one build + two dialogue rounds.
        assert metrics["trace"]["captured"] == 3

    def test_json_round_trip(self, server):
        metrics = server.handle("GET", "/metrics")["metrics"]
        assert json.loads(json.dumps(metrics)) == metrics


class TestCountsDescribeTheAppliedSystem:
    def test_metrics_and_health_agree_after_a_second_apply(self, scenes_kb):
        """``/metrics`` used to answer ``queries: 3`` beside
        ``latency_ms.count: 0`` (and ``/health`` ``total_requests: 0``) —
        server-held counts outlived the coordinator whose registry held the
        latencies."""
        server = ApiServer(
            MQAConfig(monitoring=True, **FAST_CONFIG_KWARGS), knowledge_base=scenes_kb
        )
        assert server.handle("POST", "/apply")["ok"]
        for text in ("foggy clouds", "stars", "shoreline"):
            assert server.handle("POST", "/query", {"text": text})["ok"]
        assert server.handle("POST", "/apply")["ok"]

        def totals():
            metrics = server.handle("GET", "/metrics")["metrics"]
            slo = server.handle("GET", "/health")["slo"]
            return (
                metrics["queries"], metrics["latency_ms"]["count"],
                slo["total_requests"],
            )

        assert totals() == (0, 0, 0)
        assert server.handle("POST", "/query", {"text": "mountain pass"})["ok"]
        assert totals() == (1, 1, 1)


class TestRefineWeights:
    def test_refine_passes_weights_through(self, scenes_kb):
        # JE rejects per-query weights; the error surfacing through
        # /refine proves the field is now plumbed to the session.
        server = ApiServer(
            MQAConfig(framework="je", **FAST_CONFIG_KWARGS), knowledge_base=scenes_kb
        )
        assert server.handle("POST", "/apply")["ok"]
        assert server.handle("POST", "/query", {"text": "foggy clouds"})["ok"]
        assert server.handle("POST", "/select", {"rank": 0})["ok"]
        response = server.handle(
            "POST",
            "/refine",
            {"text": "with snow", "weights": {"text": 2.0, "image": 0.5}},
        )
        assert not response["ok"]
        assert "per-query" in response["error"]

    def test_refine_with_weights_on_capable_framework(self, scenes_kb):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS), knowledge_base=scenes_kb)
        assert server.handle("POST", "/apply")["ok"]
        assert server.handle("POST", "/query", {"text": "foggy clouds"})["ok"]
        assert server.handle("POST", "/select", {"rank": 0})["ok"]
        response = server.handle(
            "POST",
            "/refine",
            {"text": "with snow", "weights": {"text": 2.0, "image": 0.5}},
        )
        assert response["ok"]
        assert response["answer"]["items"]


class TestPrometheusFormat:
    def test_exposition_body(self, traced_server):
        assert traced_server.handle("POST", "/query", {"text": "sunny dunes"})["ok"]
        response = traced_server.handle("GET", "/metrics", {"format": "prometheus"})
        assert response["ok"]
        assert response["content_type"].startswith("text/plain; version=0.0.4")
        body = response["body"]
        assert "# TYPE repro_api_query_total counter" in body
        assert 'repro_api_request_ms{quantile="0.95"}' in body
        assert body.endswith("\n")

    def test_unknown_format_is_error(self, traced_server):
        response = traced_server.handle("GET", "/metrics", {"format": "xml"})
        assert not response["ok"]
        assert "format" in response["error"]


class TestProfileEndpoint:
    def test_rows(self, traced_server):
        assert traced_server.handle("POST", "/query", {"text": "night sky"})["ok"]
        response = traced_server.handle("GET", "/profile")
        assert response["ok"]
        assert response["enabled"]
        assert response["traces"] >= 1
        paths = [row["path"] for row in response["profile"]]
        assert "query" in paths
        assert any(path.startswith("query;retrieval") for path in paths)

    def test_table_and_collapsed_formats(self, traced_server):
        table = traced_server.handle("GET", "/profile", {"format": "table"})
        assert "path" in table["table"].splitlines()[0]
        collapsed = traced_server.handle("GET", "/profile", {"format": "collapsed"})
        assert any(
            line.startswith("query") for line in collapsed["collapsed"].splitlines()
        )

    def test_unknown_format_is_error(self, traced_server):
        response = traced_server.handle("GET", "/profile", {"format": "svg"})
        assert not response["ok"]


class TestEventsPagination:
    def test_offset_limit_and_accounting(self, traced_server):
        full = traced_server.handle("GET", "/events")
        assert full["ok"]
        total = len(full["events"])
        assert total >= 2
        assert full["retained"] == total
        assert full["dropped"] == full["total_recorded"] - full["retained"]
        page = traced_server.handle("GET", "/events", {"offset": 1, "limit": 2})
        assert page["events"] == full["events"][1:3]
        assert page["offset"] == 1

    def test_malformed_offset_is_error(self, traced_server):
        response = traced_server.handle("GET", "/events", {"offset": "oops"})
        assert not response["ok"]
        assert "offset" in response["error"]


class FakeClock:
    """A clock advancing a fixed step per reading.

    ``_timed_verb`` reads it twice per request, so each request appears
    to take exactly ``step`` seconds regardless of real execution time.
    """

    def __init__(self, step: float = 0.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestHealthEndpoint:
    @pytest.fixture()
    def monitored(self, scenes_kb):
        clock = FakeClock()
        server = ApiServer(
            MQAConfig(
                monitoring=True,
                slo_latency_ms=50.0,
                slo_window=4,
                monitor_sample_rate=1,
                **FAST_CONFIG_KWARGS,
            ),
            knowledge_base=scenes_kb,
            clock=clock,
        )
        assert server.handle("POST", "/apply")["ok"]
        return server, clock

    def ask(self, server, n):
        for i in range(n):
            assert server.handle("POST", "/query", {"text": f"foggy clouds {i}"})["ok"]

    def test_slow_clock_walks_ok_degraded_breach(self, monitored):
        server, clock = monitored
        clock.step = 0.010  # 10 ms per round: inside the 50 ms target.
        self.ask(server, 4)
        assert server.handle("GET", "/health")["state"] == "ok"
        clock.step = 0.060  # over target, under the 2x breach factor.
        self.ask(server, 4)
        assert server.handle("GET", "/health")["state"] == "degraded"
        clock.step = 0.200  # over 2 x 50 ms: the window p95 breaches.
        self.ask(server, 4)
        response = server.handle("GET", "/health")
        assert response["state"] == "breach"
        assert response["monitoring"]
        assert response["slo"]["window_p95_ms"] == pytest.approx(200.0)
        assert response["slo"]["total_requests"] == 12

    def test_quality_section_scores_sampled_queries(self, monitored):
        server, _ = monitored
        self.ask(server, 2)
        quality = server.handle("GET", "/health")["quality"]
        assert quality["queries_seen"] == 2
        assert quality["sampled"] >= 1
        assert 0.0 <= quality["mean_recall_at_k"] <= 1.0

    def test_unmonitored_server_reports_ok(self, traced_server):
        response = traced_server.handle("GET", "/health")
        assert response["ok"]
        assert not response["monitoring"]
        assert response["state"] == "ok"
        assert response["slo"] is None
        assert response["quality"] is None

    def test_requires_apply(self):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS))
        assert not server.handle("GET", "/health")["ok"]
