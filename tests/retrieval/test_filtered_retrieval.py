"""Tests for metadata-filtered retrieval across frameworks and indexes."""

import pytest

from repro.data import Modality, RawQuery
from repro.index import build_index
from repro.retrieval import MustRetrieval, build_framework


def concept_filter(kb, concept):
    """Admit only objects carrying ``concept``."""
    return lambda object_id: concept in kb.get(object_id).concepts


class TestFilteredMust:
    @pytest.mark.parametrize("index_name,params", [
        ("flat", {}),
        ("hnsw", {"m": 6, "ef_construction": 32}),
        ("nav-must", {"max_degree": 8, "candidate_pool": 16, "build_budget": 24}),
    ])
    def test_all_results_satisfy_filter(self, scenes_kb, clip_set, index_name, params):
        framework = MustRetrieval()
        framework.setup(scenes_kb, clip_set, lambda: build_index(index_name, params))
        admit = concept_filter(scenes_kb, "foggy")
        response = framework.retrieve(
            RawQuery.from_text("foggy clouds"), k=5, budget=96, filter_fn=admit
        )
        assert response.ids
        for object_id in response.ids:
            assert "foggy" in scenes_kb.get(object_id).concepts

    def test_filter_with_weights_combined(self, scenes_kb, clip_set):
        framework = MustRetrieval()
        framework.setup(
            scenes_kb,
            clip_set,
            lambda: build_index("nav-must", {"max_degree": 8, "candidate_pool": 16, "build_budget": 24}),
        )
        admit = concept_filter(scenes_kb, "clouds")
        response = framework.retrieve(
            RawQuery.from_text("foggy clouds"),
            k=3,
            budget=96,
            weights={Modality.TEXT: 1.5, Modality.IMAGE: 0.5},
            filter_fn=admit,
        )
        for object_id in response.ids:
            assert "clouds" in scenes_kb.get(object_id).concepts

    def test_impossible_filter_returns_empty(self, scenes_kb, clip_set):
        framework = MustRetrieval()
        framework.setup(scenes_kb, clip_set, lambda: build_index("flat"))
        response = framework.retrieve(
            RawQuery.from_text("foggy clouds"),
            k=5,
            filter_fn=lambda object_id: False,
        )
        assert response.ids == []


class TestFilteredMrJe:
    @pytest.mark.parametrize("name", ["mr", "je"])
    def test_filtered_streams(self, scenes_kb, clip_set, name):
        framework = build_framework(name)
        framework.setup(
            scenes_kb, clip_set, lambda: build_index("hnsw", {"m": 6, "ef_construction": 32})
        )
        admit = concept_filter(scenes_kb, "foggy")
        response = framework.retrieve(
            RawQuery.from_text("foggy clouds"), k=5, budget=96, filter_fn=admit
        )
        assert response.ids
        for object_id in response.ids:
            assert "foggy" in scenes_kb.get(object_id).concepts
