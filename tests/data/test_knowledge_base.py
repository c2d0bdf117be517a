"""Tests for the knowledge base."""

import numpy as np
import pytest

from repro.data import DatasetSpec, Modality, generate_knowledge_base
from repro.errors import DataError


class TestCreateObject:
    def test_renders_all_modalities(self, scenes_kb):
        obj = scenes_kb.get(0)
        assert obj.has(Modality.TEXT)
        assert obj.has(Modality.IMAGE)

    def test_latent_is_unit_norm(self, scenes_kb):
        for object_id in range(5):
            latent = scenes_kb.get(object_id).latent
            np.testing.assert_allclose(np.linalg.norm(latent), 1.0)

    def test_concepts_recorded_lowercase(self, scenes_kb):
        for object_id in range(10):
            for concept in scenes_kb.get(object_id).concepts:
                assert concept == concept.lower()


class TestGroundTruth:
    def test_self_latent_is_top(self, scenes_kb):
        obj = scenes_kb.get(4)
        top = scenes_kb.ground_truth_neighbors(obj.latent, 1)
        assert top == [4]

    def test_exclusion(self, scenes_kb):
        obj = scenes_kb.get(4)
        top = scenes_kb.ground_truth_neighbors(obj.latent, 1, exclude=[4])
        assert top != [4]

    def test_sorted_by_similarity(self, scenes_kb):
        latent = scenes_kb.space.compose(["foggy", "clouds"])
        ids = scenes_kb.ground_truth_neighbors(latent, 10)
        latents = scenes_kb.latent_matrix()
        scores = [latents[i] @ latent for i in ids]
        assert scores == sorted(scores, reverse=True)

    def test_concept_level_matches_latent_level(self, scenes_kb):
        concepts = ["foggy", "clouds"]
        by_concepts = scenes_kb.ground_truth_for_concepts(concepts, 5)
        by_latent = scenes_kb.ground_truth_neighbors(
            scenes_kb.space.compose(concepts), 5
        )
        assert by_concepts == by_latent

    def test_rejects_bad_k(self, scenes_kb):
        with pytest.raises(ValueError):
            scenes_kb.ground_truth_for_concepts(["foggy"], 0)


class TestRenderView:
    def test_view_differs_from_original(self, scenes_kb):
        obj = scenes_kb.get(0)
        view = scenes_kb.render_view(0, view_seed=1)
        assert not np.array_equal(view[Modality.IMAGE], obj.get(Modality.IMAGE))

    def test_views_deterministic(self, scenes_kb):
        a = scenes_kb.render_view(0, view_seed=1)
        b = scenes_kb.render_view(0, view_seed=1)
        assert a[Modality.TEXT] == b[Modality.TEXT]
        np.testing.assert_array_equal(a[Modality.IMAGE], b[Modality.IMAGE])

    def test_view_seeds_differ(self, scenes_kb):
        a = scenes_kb.render_view(0, view_seed=1)
        b = scenes_kb.render_view(0, view_seed=2)
        assert not np.array_equal(a[Modality.IMAGE], b[Modality.IMAGE])

    def test_view_keeps_latent_close(self, scenes_kb):
        obj = scenes_kb.get(3)
        view = scenes_kb.render_view(3, view_seed=9)
        estimate = scenes_kb.render_model.image.decode_batch([view[Modality.IMAGE]])[0]
        assert estimate @ obj.latent > 0.8


class TestDescribe:
    def test_mentions_core_facts(self, scenes_kb):
        text = scenes_kb.describe()
        assert "scenes" in text
        assert "120" in text
        assert "text+image" in text

    def test_empty_latent_matrix_raises(self):
        from repro.data.concepts import ConceptSpace
        from repro.data.knowledge_base import KnowledgeBase
        from repro.data.rendering import RenderModel

        space = ConceptSpace({"a": ["x", "y"]}, latent_dim=16)
        kb = KnowledgeBase("empty", space, RenderModel(space))
        with pytest.raises(DataError):
            kb.latent_matrix()
