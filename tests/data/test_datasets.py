"""Tests for the dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.data import DOMAINS, DatasetSpec, Modality, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.errors import DataError


class TestDomains:
    def test_expected_domains_present(self):
        assert {"fashion", "scenes", "food", "products", "movies"} <= set(DOMAINS)

    def test_paper_concepts_exist(self):
        # The figures' example requests must be expressible.
        assert "floral" in DOMAINS["fashion"]["pattern"]
        assert "long-sleeved" in DOMAINS["fashion"]["sleeve"]
        assert "foggy" in DOMAINS["scenes"]["weather"]
        assert "clouds" in DOMAINS["scenes"]["sky"]
        assert "moldy" in DOMAINS["food"]["condition"]
        assert "cheese" in DOMAINS["food"]["item"]
        assert "coat" in DOMAINS["products"]["item"]


class TestGeneration:
    def test_size(self):
        kb = generate_knowledge_base(DatasetSpec(domain="food", size=30, seed=1))
        assert len(kb) == 30

    def test_deterministic(self):
        spec = DatasetSpec(domain="food", size=10, seed=4)
        a = generate_knowledge_base(spec)
        b = generate_knowledge_base(spec)
        for object_id in range(10):
            assert a.get(object_id).concepts == b.get(object_id).concepts
            np.testing.assert_array_equal(
                a.get(object_id).get(Modality.IMAGE),
                b.get(object_id).get(Modality.IMAGE),
            )

    def test_seed_changes_content(self):
        a = generate_knowledge_base(DatasetSpec(domain="food", size=10, seed=1))
        b = generate_knowledge_base(DatasetSpec(domain="food", size=10, seed=2))
        concepts_a = [a.get(i).concepts for i in range(10)]
        concepts_b = [b.get(i).concepts for i in range(10)]
        assert concepts_a != concepts_b

    def test_concept_counts_respect_spec(self):
        spec = DatasetSpec(domain="scenes", size=40, seed=2, min_concepts=3, max_concepts=3)
        kb = generate_knowledge_base(spec)
        assert all(len(kb.get(i).concepts) == 3 for i in range(40))

    def test_audio_modality(self):
        spec = DatasetSpec(
            domain="movies",
            size=5,
            modalities=(Modality.TEXT, Modality.IMAGE, Modality.AUDIO),
        )
        kb = generate_knowledge_base(spec)
        assert kb.get(0).has(Modality.AUDIO)

    def test_unknown_domain_rejected(self):
        with pytest.raises(DataError, match="unknown domain"):
            generate_knowledge_base(DatasetSpec(domain="galaxies"))

    def test_more_concepts_than_categories_refused(self):
        # scenes has 5 categories; the count used to be capped to 5 silently.
        for low, high in ((9, 12), (2, 9), (2, 6)):
            with pytest.raises(DataError, match="max_concepts must be <= 5"):
                generate_knowledge_base(
                    DatasetSpec("scenes", size=20, min_concepts=low, max_concepts=high)
                )
        kb = generate_knowledge_base(DatasetSpec("scenes", size=40, min_concepts=5, max_concepts=5))
        assert all(len(obj.concepts) == 5 for obj in kb)

    def test_zero_size_rejected(self):
        with pytest.raises(DataError):
            generate_knowledge_base(DatasetSpec(domain="food", size=0))


def _content_digest(kb) -> str:
    digest = hashlib.sha256()
    for obj in kb:
        for modality in kb.modalities:
            content = obj.get(modality)
            if isinstance(content, str):
                digest.update(content.encode("utf-8"))
            else:
                digest.update(np.ascontiguousarray(content, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(obj.latent, dtype=np.float64).tobytes())
        digest.update("|".join(obj.concepts).encode("utf-8"))
    return digest.hexdigest()


def test_generated_content_digest():
    """What set-up is built on, pinned: every object's text, image (and
    audio) bytes, latent bytes and concepts, and the ``encode_corpus``
    matrices over them.  The digests were captured at 23a1e17, before the
    representation stage was made to encode once and the weight learner was
    vectorised — a change to either must leave all three alone — and retaken
    once, when set-up's keyed draws moved to ``repro.utils.rng.words``."""
    scenes = generate_knowledge_base(DatasetSpec("scenes", size=300, seed=7))
    assert _content_digest(scenes) == (
        "52a40d01d12933e07ea251a1327a0bd603c24bb05f2dd313b716c0331c6f03f4"
    )
    movies = generate_knowledge_base(
        DatasetSpec(
            domain="movies",
            size=150,
            seed=5,
            modalities=(Modality.TEXT, Modality.IMAGE, Modality.AUDIO),
        )
    )
    assert _content_digest(movies) == (
        "85714f6e0b8fefb8746a2487ad12011d889e30aada297fe7cf4d92df1664337f"
    )
    corpus = build_encoder_set("clip-joint", scenes).encode_corpus(list(scenes))
    digest = hashlib.sha256()
    for modality, matrix in corpus.items():
        digest.update(modality.value.encode("utf-8"))
        digest.update(np.ascontiguousarray(matrix, dtype=np.float64).tobytes())
    assert digest.hexdigest() == (
        "a25143ef0c79b2a717b63df0eb15c5d00b90449bc1d9a3a54a5aa4d92656babe"
    )
