"""Behavioural tests shared by the three retrieval frameworks."""

import numpy as np
import pytest

from repro.data import Modality, RawQuery
from repro.errors import RetrievalError
from repro.retrieval import (
    JointEmbeddingRetrieval,
    MultiStreamedRetrieval,
    MustRetrieval,
)


@pytest.fixture(params=["mr", "je", "must"])
def framework(request, mr, je, must):
    return {"mr": mr, "je": je, "must": must}[request.param]


class TestCommonBehaviour:
    def test_returns_k_items(self, framework):
        response = framework.retrieve(RawQuery.from_text("foggy clouds"), k=5)
        assert len(response) == 5

    def test_items_ranked(self, framework):
        response = framework.retrieve(RawQuery.from_text("foggy clouds"), k=5)
        assert [item.rank for item in response.items] == list(range(5))

    def test_scores_sorted(self, framework):
        response = framework.retrieve(RawQuery.from_text("foggy clouds"), k=5)
        scores = [item.score for item in response.items]
        assert scores == sorted(scores)

    def test_text_query_finds_relevant_concepts(self, framework, scenes_kb):
        response = framework.retrieve(RawQuery.from_text("foggy clouds"), k=5, budget=64)
        hits = sum(
            1
            for object_id in response.ids
            if {"foggy", "clouds"} & set(scenes_kb.get(object_id).concepts)
        )
        assert hits >= 3

    def test_image_assisted_query(self, framework, scenes_kb):
        reference = scenes_kb.get(3)
        query = RawQuery.from_text_and_image("stars", reference.get(Modality.IMAGE))
        response = framework.retrieve(query, k=5, budget=64)
        assert len(response) == 5

    def test_bad_k_rejected(self, framework):
        with pytest.raises(RetrievalError):
            framework.retrieve(RawQuery.from_text("foggy"), k=0)

    def test_retrieve_before_setup_rejected(self):
        for cls in (MultiStreamedRetrieval, JointEmbeddingRetrieval, MustRetrieval):
            with pytest.raises(RetrievalError, match="set up"):
                cls().retrieve(RawQuery.from_text("x"), k=1)

    def test_describe_ready(self, framework):
        assert "ready" in framework.describe()


class TestMrSpecifics:
    def test_per_modality_rankings_exposed(self, mr):
        response = mr.retrieve(RawQuery.from_text("foggy clouds"), k=5)
        assert Modality.TEXT in response.per_modality_ids

    def test_bad_expansion(self):
        with pytest.raises(RetrievalError):
            MultiStreamedRetrieval(expansion=0)


class TestJeSpecifics:
    def test_rejects_unimodal_set(self, scenes_kb, uni_set, index_builder):
        framework = JointEmbeddingRetrieval()
        with pytest.raises(RetrievalError, match="joint"):
            framework.setup(scenes_kb, uni_set, index_builder)

    def test_joint_index_dim(self, je, clip_set):
        assert je._index.kernel.dim == clip_set.dims()[Modality.TEXT]


class TestMustSpecifics:
    def test_weights_applied(self, must):
        weights = must.weights
        assert weights[Modality.IMAGE] > weights[Modality.TEXT]
        assert sum(weights.values()) == pytest.approx(2.0)

    def test_schema_total_dim(self, must, clip_set):
        dims = clip_set.dims()
        assert must.schema.total_dim == sum(dims.values())

    def test_unimodal_encoders_supported(self, scenes_kb, uni_set, index_builder):
        framework = MustRetrieval()
        framework.setup(scenes_kb, uni_set, index_builder)
        response = framework.retrieve(RawQuery.from_text("foggy clouds"), k=3)
        assert len(response) == 3

    def test_flat_index_supported(self, scenes_kb, clip_set):
        from repro.index import build_index

        framework = MustRetrieval()
        framework.setup(scenes_kb, clip_set, lambda: build_index("flat"))
        response = framework.retrieve(RawQuery.from_text("foggy clouds"), k=3)
        assert len(response) == 3

    def test_weights_property_before_setup(self):
        with pytest.raises(RetrievalError):
            MustRetrieval().weights
