"""Tests for the contrastive view-pair sampler."""

import numpy as np
import pytest

from repro.data import DatasetSpec, Modality, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.errors import DataError
from repro.utils import derive_rng
from repro.weights import VectorWeightLearner, ViewPairSampler


@pytest.fixture(scope="module")
def sampler(scenes_kb, uni_set):
    return ViewPairSampler(scenes_kb, uni_set, n_negatives=4, seed=0)


class TestSampling:
    def test_batch_shapes(self, sampler):
        batch = sampler.sample(8, step=0)
        assert batch.size == 8
        for modality in (Modality.TEXT, Modality.IMAGE):
            assert batch.positive[modality].shape == (8,)
            assert batch.negative[modality].shape == (8, 4)

    def test_deterministic_per_step(self, sampler):
        a = sampler.sample(4, step=3)
        b = sampler.sample(4, step=3)
        np.testing.assert_array_equal(
            a.positive[Modality.TEXT], b.positive[Modality.TEXT]
        )

    def test_steps_differ(self, sampler):
        a = sampler.sample(4, step=0)
        b = sampler.sample(4, step=1)
        assert not np.allclose(a.positive[Modality.TEXT], b.positive[Modality.TEXT])

    def test_positives_tighter_than_negatives(self, sampler):
        batch = sampler.sample(32, step=0)
        for modality in (Modality.TEXT, Modality.IMAGE):
            assert batch.positive[modality].mean() < batch.negative[modality].mean()

    def test_distances_non_negative(self, sampler):
        batch = sampler.sample(16, step=0)
        for modality in batch.positive:
            assert (batch.positive[modality] >= 0).all()
            assert (batch.negative[modality] >= 0).all()


def _reference_sample(sampler, batch_size, step):
    """The per-anchor loop ``sample`` was before it became array work, kept
    as the oracle: one ``encode`` per view and modality, one Python dot
    product per pair.  Returns ``(positive, negative)``."""
    rng = derive_rng(sampler.seed, "contrastive-batch", step)
    n = len(sampler.kb)
    anchors = rng.integers(0, n, size=batch_size)
    modalities = list(sampler._anchor_vectors)
    positive = {m: [] for m in modalities}
    negative = {m: [] for m in modalities}
    for anchor in anchors:
        anchor = int(anchor)
        content = sampler.kb.render_view(anchor, int(rng.integers(1 << 30)))
        view = {
            m: sampler.encoder_set.encoder_for(m).encode(m, content[m])
            for m in modalities
        }
        negatives = []
        while len(negatives) < sampler.n_negatives:
            candidate = int(rng.integers(n))
            if candidate != anchor:
                negatives.append(candidate)
        for m in modalities:
            anchor_vec = sampler._anchor_vectors[m][anchor]
            diff = anchor_vec - view[m]
            positive[m].append(float(diff @ diff))
            row = []
            for neg in negatives:
                diff = anchor_vec - sampler._anchor_vectors[m][neg]
                row.append(float(diff @ diff))
            negative[m].append(row)
    return (
        {m: np.asarray(v) for m, v in positive.items()},
        {m: np.asarray(v) for m, v in negative.items()},
    )


@pytest.fixture(scope="module")
def movie_world():
    """Text + image + audio, as tests/integration/test_three_modalities.py
    builds it."""
    spec = DatasetSpec(
        domain="movies",
        size=150,
        seed=5,
        modalities=(Modality.TEXT, Modality.IMAGE, Modality.AUDIO),
    )
    kb = generate_knowledge_base(spec)
    return kb, build_encoder_set("unimodal-strong", kb, seed=3)


class TestAgainstPerAnchorLoop:
    """The vectorised body draws what the loop drew and measures what it
    measured: views reach the encoder as one batch (gemm, not gemv), so the
    last ulp may move and nothing more."""

    @pytest.fixture(params=["clip-joint", "unimodal-strong", "three-modalities"])
    def world(self, request, scenes_kb, clip_set, uni_set, movie_world):
        if request.param == "three-modalities":
            return movie_world
        return scenes_kb, clip_set if request.param == "clip-joint" else uni_set

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("step", [0, 1, 7])
    def test_distances_match_the_loop(self, world, seed, step):
        kb, encoder_set = world
        sampler = ViewPairSampler(kb, encoder_set, n_negatives=4, seed=seed)
        batch = sampler.sample(8, step)
        positive, negative = _reference_sample(sampler, 8, step)
        assert set(batch.positive) == set(positive) == set(encoder_set.modalities)
        for modality in positive:
            assert batch.positive[modality].shape == positive[modality].shape == (8,)
            assert batch.negative[modality].shape == negative[modality].shape == (8, 4)
            np.testing.assert_allclose(
                batch.positive[modality], positive[modality], atol=1e-12, rtol=0
            )
            np.testing.assert_allclose(
                batch.negative[modality], negative[modality], atol=1e-12, rtol=0
            )

    def test_handed_corpus_changes_nothing(self, scenes_kb, clip_set):
        corpus = clip_set.encode_corpus(list(scenes_kb))
        own = ViewPairSampler(scenes_kb, clip_set, n_negatives=4, seed=1)
        handed = ViewPairSampler(
            scenes_kb, clip_set, n_negatives=4, seed=1, corpus=corpus
        )
        for step in (0, 5):
            a, b = own.sample(8, step), handed.sample(8, step)
            for modality in a.positive:
                np.testing.assert_array_equal(a.positive[modality], b.positive[modality])
                np.testing.assert_array_equal(a.negative[modality], b.negative[modality])

    def test_learned_weights_on_the_benchmark_corpus(self):
        # mqa_bench's corpus and learner (scenes / 2000 / seed 7, defaults);
        # the values are what the per-anchor loop learned at 23a1e17.
        kb = generate_knowledge_base(DatasetSpec("scenes", size=2000, seed=7))
        encoder_set = build_encoder_set("clip-joint", kb)
        weights = VectorWeightLearner().fit(kb, encoder_set).weights
        assert weights[Modality.TEXT] == pytest.approx(0.7845055693430139, abs=1e-12, rel=0)
        assert weights[Modality.IMAGE] == pytest.approx(1.2154944306569861, abs=1e-12, rel=0)


class TestValidation:
    def test_tiny_kb_rejected(self, uni_set):
        kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=1, seed=0))
        with pytest.raises(DataError):
            ViewPairSampler(kb, uni_set)

    def test_bad_negatives_rejected(self, scenes_kb, uni_set):
        with pytest.raises(ValueError):
            ViewPairSampler(scenes_kb, uni_set, n_negatives=0)

    def test_bad_batch_rejected(self, sampler):
        with pytest.raises(ValueError):
            sampler.sample(0, step=0)
