"""Tests for the raw ``POST /search`` endpoint and its batching surface."""

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
def applied_server(scenes_kb):
    server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS), knowledge_base=scenes_kb)
    response = server.handle("POST", "/apply")
    assert response["ok"]
    return server


class TestSingleSearch:
    def test_text_search(self, applied_server):
        response = applied_server.handle(
            "POST", "/search", {"text": "foggy clouds", "k": 4}
        )
        assert response["ok"]
        result = response["result"]
        assert result["framework"] == "must"
        assert len(result["items"]) == 4
        assert [item["rank"] for item in result["items"]] == [0, 1, 2, 3]
        assert result["stats"]["distance_evaluations"] > 0

    def test_search_matches_dialogue_ranking(self, applied_server):
        searched = applied_server.handle("POST", "/search", {"text": "foggy clouds"})
        queried = applied_server.handle("POST", "/query", {"text": "foggy clouds"})
        assert searched["ok"] and queried["ok"]
        assert [item["object_id"] for item in searched["result"]["items"]] == [
            item["object_id"] for item in queried["answer"]["items"]
        ]

    def test_reference_object_search(self, applied_server):
        anchor = applied_server.handle("POST", "/search", {"text": "foggy clouds"})
        reference = anchor["result"]["items"][0]["object_id"]
        response = applied_server.handle(
            "POST",
            "/search",
            {"text": "foggy clouds", "reference_object_id": reference, "k": 3},
        )
        assert response["ok"]
        assert len(response["result"]["items"]) == 3

    def test_weights_reorder_modalities(self, applied_server):
        response = applied_server.handle(
            "POST",
            "/search",
            {"text": "foggy clouds", "weights": {"text": 2.0, "image": 0.25}},
        )
        assert response["ok"]
        assert response["result"]["items"]

    def test_missing_text_is_an_error(self, applied_server):
        response = applied_server.handle("POST", "/search", {"k": 3})
        assert not response["ok"]
        assert "text" in response["error"]

    def test_requires_apply(self):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS))
        response = server.handle("POST", "/search", {"text": "x"})
        assert not response["ok"]
        assert "apply" in response["error"]


class TestListSearch:
    def test_list_body_returns_one_result_per_query(self, applied_server):
        response = applied_server.handle(
            "POST",
            "/search",
            {"queries": [{"text": "foggy clouds"}, {"text": "sunny meadow"}], "k": 3},
        )
        assert response["ok"]
        assert len(response["results"]) == 2
        for result in response["results"]:
            assert len(result["items"]) == 3

    def test_list_matches_singles(self, applied_server):
        texts = ["foggy clouds", "sunny meadow", "quiet harbor"]
        singles = [
            applied_server.handle("POST", "/search", {"text": t, "k": 5})["result"]
            for t in texts
        ]
        listed = applied_server.handle(
            "POST", "/search", {"queries": [{"text": t} for t in texts], "k": 5}
        )["results"]
        assert [[i["object_id"] for i in r["items"]] for r in listed] == [
            [i["object_id"] for i in r["items"]] for r in singles
        ]

    def test_empty_queries_list_is_an_error(self, applied_server):
        response = applied_server.handle("POST", "/search", {"queries": []})
        assert not response["ok"]
        assert "non-empty" in response["error"]

    def test_non_list_queries_is_an_error(self, applied_server):
        response = applied_server.handle("POST", "/search", {"queries": "clouds"})
        assert not response["ok"]


class TestBatchingSurface:
    def test_health_reports_batching(self, applied_server):
        health = applied_server.handle("GET", "/health")
        assert health["ok"]
        batching = health["batching"]
        assert batching["enabled"] is False
        assert batching["max_batch"] == 1
        assert "histogram" in batching and "flushes" in batching

    def test_configure_resizes_batcher(self, scenes_kb):
        server = ApiServer(
            MQAConfig(**FAST_CONFIG_KWARGS), knowledge_base=scenes_kb
        )
        assert server.handle("POST", "/apply")["ok"]
        response = server.handle(
            "POST", "/configure", {"option": "max_batch", "value": 8}
        )
        assert response["ok"], response
        batching = server.handle("GET", "/health")["batching"]
        assert batching["enabled"] is True
        assert batching["max_batch"] == 8
        # Single searches still work (window flush path) after the resize.
        result = server.handle("POST", "/search", {"text": "foggy clouds"})
        assert result["ok"]


class TestWeightsCapability:
    def test_je_rejects_weights(self, scenes_kb):
        server = ApiServer(
            MQAConfig(**FAST_CONFIG_KWARGS, framework="je"),
            knowledge_base=scenes_kb,
        )
        assert server.handle("POST", "/apply")["ok"]
        response = server.handle(
            "POST",
            "/search",
            {"queries": [{"text": "foggy clouds"}], "weights": {"text": 2.0}},
        )
        assert not response["ok"]
        assert "weights" in response["error"]
