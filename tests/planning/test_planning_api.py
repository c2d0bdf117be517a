"""Planning stack through the API server: admission, reporting, workers."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.server import ApiServer

FAST_KWARGS = dict(
    dataset=DatasetSpec(domain="scenes", size=100, seed=7),
    weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
    index_params={"m": 6, "ef_construction": 32},
)


def applied(**overrides) -> ApiServer:
    server = ApiServer(
        MQAConfig(**FAST_KWARGS, **overrides)
    )
    response = server.handle("POST", "/apply")
    assert response["ok"]
    return server


class TestAdmissionBoundary:
    def test_shed_is_a_structured_error_not_saturation(self):
        server = applied(admission=True, planner=True)
        admission = server._coordinator.layer("admission")
        # Report a deep live queue — the signal real overload produces.
        admission.queue_probe = lambda: 10_000
        response = server.handle("POST", "/query", {"text": "foggy clouds"})
        assert not response["ok"]
        assert response.get("shed") is True
        assert "saturated" not in response
        assert admission.snapshot()["shed"] >= 1

    def test_shed_is_recorded_as_a_fallback(self):
        server = applied(admission=True)
        admission = server._coordinator.layer("admission")
        admission.queue_probe = lambda: 10_000
        server.handle("POST", "/query", {"text": "foggy clouds"})
        health = server.handle("GET", "/health")
        assert health["resilience"]["fallbacks"].get("admission_shed", 0) >= 1

    def test_monitoring_routes_are_never_shed(self):
        server = applied(admission=True)
        admission = server._coordinator.layer("admission")
        admission.queue_probe = lambda: 10_000
        for method, path in (("GET", "/health"), ("GET", "/stats"), ("GET", "/status")):
            assert server.handle(method, path)["ok"]

    def test_wait_observer_feeds_the_controller(self):
        server = applied(admission=True)
        assert server.engine.wait_observer is not None
        server.handle("POST", "/query", {"text": "foggy clouds"})
        snap = server._coordinator.layer("admission").snapshot()
        assert snap["accepted"] >= 1

    def test_no_observer_without_admission(self):
        server = applied()
        assert server.engine.wait_observer is None

    def test_queue_probe_reads_the_live_engine(self):
        server = applied(admission=True)
        admission = server._coordinator.layer("admission")
        assert admission.queue_probe is not None
        assert admission.queue_probe() == server.engine.queue_depth == 0
        assert admission.snapshot()["queue_depth"] == 0


class TestReportingSurfaces:
    def test_health_and_stats_carry_planning_snapshots(self):
        server = applied(planner=True, semantic_cache=True, admission=True)
        server.handle("POST", "/query", {"text": "foggy clouds"})
        health = server.handle("GET", "/health")
        assert health["planner"]["plans"] >= 1
        assert health["admission"]["enabled"] is True
        assert health["cache"]["semantic"] is True
        stats = server.handle("GET", "/stats")
        assert stats["planner"] is not None
        assert stats["admission"] is not None
        assert stats["cache"] is not None

    def test_answer_payload_carries_the_plan(self):
        server = applied(planner=True)
        response = server.handle("POST", "/query", {"text": "foggy clouds"})
        plan = response["answer"]["plan"]
        assert plan["tier"] == 0
        assert plan["reason"] == "no-deadline"

    def test_answer_payload_has_no_plan_key_when_off(self):
        server = applied()
        response = server.handle("POST", "/query", {"text": "foggy clouds"})
        assert "plan" not in response["answer"]

    def test_disabled_stack_reports_none(self):
        server = applied()
        stats = server.handle("GET", "/stats")
        assert stats["planner"] is None
        assert stats["admission"] is None

    def test_metrics_cache_section_uses_one_snapshot(self):
        server = applied(semantic_cache=True)
        server.handle("POST", "/query", {"text": "foggy clouds"})
        metrics = server.handle("GET", "/metrics")
        cache = metrics["metrics"]["cache"]
        assert cache["enabled"]
        assert cache["misses"] >= 1
        assert "semantic_hits" in cache


class TestConcurrentDeterminism:
    def test_semantic_cache_under_concurrent_queries(self):
        server = applied(semantic_cache=True, workers=4)
        baseline = server.handle("POST", "/search", {"text": "foggy clouds"})
        assert baseline["ok"]
        expected = [item["object_id"] for item in baseline["result"]["items"]]
        texts = ["foggy clouds", "clouds foggy"] * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(
                pool.map(
                    lambda t: server.handle("POST", "/search", {"text": t}),
                    texts,
                )
            )
        for response in responses:
            assert response["ok"]
            ids = [item["object_id"] for item in response["result"]["items"]]
            assert ids == expected
        snap = server._coordinator.execution.cache.snapshot()
        assert snap["hits"] + snap["semantic_hits"] + snap["misses"] >= len(texts)
