"""The bulk renderers against the per-object bodies they replaced.

``TextRenderer`` / ``ImageRenderer`` / ``AudioRenderer.render_many``,
``ConceptSpace.compose_many`` and ``KnowledgeBase.create_objects`` /
``render_views`` do in one call what the bodies below did one object at a
time.  Those bodies are kept here, as they were, as the oracles: every
string and every byte must come out the same, whether the noise streams are
seeded one key at a time or in one vectorised pass.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DatasetSpec, Modality, generate_knowledge_base
from repro.data.concepts import ConceptSpace
from repro.data.knowledge_base import KnowledgeBase
from repro.data.rendering import FILLER_WORDS, AudioSpec, ImageSpec, RenderModel
from repro.errors import DataError
from repro.utils import derive_rng, l2_normalize
from repro.utils.rng import BULK_SEEDING_MIN_KEYS
from tests.data.test_datasets import _content_digest

VOCAB = {
    "weather": ["foggy", "sunny", "stormy", "misty"],
    "sky": ["clouds", "stars", "sunset"],
    "landscape": ["mountains", "ocean", "desert"],
    "time": ["dawn", "dusk"],
}
NAMES = [name for names in VOCAB.values() for name in names]
MODALITIES = (Modality.TEXT, Modality.IMAGE, Modality.AUDIO)

#: Noise keys as the knowledge base makes them: an object id, or a view's
#: ``("view", object_id, view_seed)``.
KEYS = st.one_of(
    st.integers(0, 2**40),
    st.tuples(st.just("view"), st.integers(0, 5000), st.integers(0, (1 << 30) - 1)),
)


def _text_oracle(renderer, concepts, noise_key) -> str:
    rng = derive_rng(renderer.seed, "text", noise_key)
    kept: List[str] = [c for c in concepts if rng.random() >= renderer.drop_probability]
    if not kept:
        kept = [concepts[int(rng.integers(len(concepts)))]]
    fillers = [
        FILLER_WORDS[int(rng.integers(len(FILLER_WORDS)))]
        for _ in range(renderer.filler_count)
    ]
    tokens = kept + fillers
    order = rng.permutation(len(tokens))
    return " ".join(tokens[i] for i in order)


def _image_oracle(renderer, latent, noise_key) -> np.ndarray:
    rng = derive_rng(renderer.seed, "image-noise", noise_key)
    flat = renderer.projection @ latent
    flat = flat + renderer.spec.noise_sigma * rng.standard_normal(renderer.spec.pixels)
    return flat.reshape(renderer.spec.height, renderer.spec.width)


def _audio_oracle(renderer, latent, noise_key) -> np.ndarray:
    rng = derive_rng(renderer.seed, "audio-noise", noise_key)
    frames = renderer._projection @ latent
    if renderer.spec.smoothing > 1:
        kernel = np.ones(renderer.spec.smoothing) / renderer.spec.smoothing
        frames = np.convolve(frames, kernel, mode="same")
    return frames + renderer.spec.noise_sigma * rng.standard_normal(renderer.spec.frames)


def _compose_oracle(space, concepts, intensities) -> np.ndarray:
    weights = np.ones(len(concepts)) if intensities is None else np.asarray(intensities)
    stacked = np.stack([space.get(name).vector for name in concepts])
    return l2_normalize(weights @ stacked)


@pytest.fixture(scope="module")
def space():
    return ConceptSpace(VOCAB, latent_dim=32, seed=11)


def _model(space, drop_probability=0.15, smoothing=4):
    return RenderModel(
        space,
        seed=5,
        text_drop_probability=drop_probability,
        image_spec=ImageSpec(height=8, width=8, noise_sigma=0.3),
        audio_spec=AudioSpec(frames=48, noise_sigma=0.2, smoothing=smoothing),
    )


@st.composite
def batches(draw):
    """``(bags, keys)``: one concept bag (repeats allowed) per noise key."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=2 * BULK_SEEDING_MIN_KEYS + 3))
    bags = draw(
        st.lists(
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
            min_size=len(keys), max_size=len(keys),
        )
    )
    return bags, keys


class TestRenderersAgainstThePerObjectBodies:
    @settings(max_examples=40, deadline=None)
    @given(batch=batches(), drop=st.sampled_from([0.0, 0.15, 0.5, 0.99]))
    def test_text(self, space, batch, drop):
        bags, keys = batch
        renderer = _model(space, drop_probability=drop).text
        expected = [_text_oracle(renderer, bag, key) for bag, key in zip(bags, keys)]
        assert renderer.render_many(bags, keys) == expected
        assert renderer.render(bags[0], keys[0]) == expected[0]

    def test_text_when_every_concept_is_dropped(self, space):
        # At p = 0.99 nearly every bag loses all its concepts and takes the
        # fallback draw; the batch crosses the seeding crossover.
        renderer = _model(space, drop_probability=0.99).text
        bags = [NAMES[i % 5:i % 5 + 3] for i in range(3 * BULK_SEEDING_MIN_KEYS)]
        keys = list(range(len(bags)))
        expected = [_text_oracle(renderer, bag, key) for bag, key in zip(bags, keys)]
        fallbacks = sum(
            len([t for t in text.split() if t in NAMES]) == 1 for text in expected
        )
        assert fallbacks >= len(bags) - 2
        assert renderer.render_many(bags, keys) == expected

    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(KEYS, min_size=1, max_size=2 * BULK_SEEDING_MIN_KEYS + 3),
           seed=st.integers(0, 2**32 - 1))
    def test_image(self, space, keys, seed):
        renderer = _model(space).image
        latents = np.random.default_rng(seed).standard_normal((len(keys), 32))
        images = renderer.render_many(latents, keys)
        assert images.shape == (len(keys), 8, 8)
        for image, latent, key in zip(images, latents, keys):
            assert np.array_equal(image, _image_oracle(renderer, latent, key))
        assert np.array_equal(
            renderer.render(latents[0], keys[0]), _image_oracle(renderer, latents[0], keys[0])
        )

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(KEYS, min_size=1, max_size=2 * BULK_SEEDING_MIN_KEYS + 3),
           seed=st.integers(0, 2**32 - 1), smoothing=st.sampled_from([1, 4]))
    def test_audio(self, space, keys, seed, smoothing):
        renderer = _model(space, smoothing=smoothing).audio
        latents = np.random.default_rng(seed).standard_normal((len(keys), 32))
        clips = renderer.render_many(latents, keys)
        assert clips.shape == (len(keys), 48)
        for clip, latent, key in zip(clips, latents, keys):
            assert np.array_equal(clip, _audio_oracle(renderer, latent, key))

    @settings(max_examples=40, deadline=None)
    @given(batch=batches(), weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_compose(self, space, batch, weighted, seed):
        bags, _ = batch
        rng = np.random.default_rng(seed)
        intensities = [0.5 + rng.random(len(bag)) if weighted else None for bag in bags]
        latents = space.compose_many(bags, intensities)
        for latent, bag, given_ in zip(latents, bags, intensities):
            assert np.array_equal(latent, _compose_oracle(space, bag, given_))
        assert np.array_equal(space.compose(bags[0], intensities[0]), latents[0])

    def test_mismatched_lengths_and_empty_bags_are_refused(self, space):
        model = _model(space)
        with pytest.raises(DataError):
            model.text.render_many([["foggy"], ["sunny"]], [1])
        with pytest.raises(DataError):
            model.text.render_many([[]], [1])
        with pytest.raises(DataError):
            model.image.render_many(np.zeros((2, 32)), [1])
        with pytest.raises(DataError):
            model.image.render_many(np.zeros((2, 31)), [1, 2])
        with pytest.raises(DataError):
            space.compose_many([["foggy"], []])
        with pytest.raises(DataError):
            space.compose_many([["foggy"]], [[-1.0]])


def _empty_kb(space, modalities=MODALITIES):
    return KnowledgeBase("bulk", space, _model(space), modalities=modalities)


def _assert_same_objects(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.object_id == b.object_id
        assert a.concepts == b.concepts
        assert a.metadata == b.metadata
        assert np.array_equal(a.latent, b.latent)
        assert a.modalities == b.modalities
        for modality in a.modalities:
            x, y = a.get(modality), b.get(modality)
            if isinstance(x, str):
                assert x == y
            else:
                assert x.shape == y.shape and np.array_equal(x, y)


class TestKnowledgeBaseInBulk:
    @pytest.mark.parametrize("count", [1, BULK_SEEDING_MIN_KEYS - 1, 3 * BULK_SEEDING_MIN_KEYS])
    def test_create_objects_is_repeated_create_object(self, space, count):
        rng = np.random.default_rng(count)
        bags = [
            [str(c) for c in rng.choice(NAMES, size=1 + i % 4, replace=False)]
            for i in range(count)
        ]
        intensities = [0.5 + rng.random(len(bag)) if i % 2 else None for i, bag in enumerate(bags)]
        metadata = [{"i": i} if i % 3 else None for i in range(count)]
        one, bulk = _empty_kb(space), _empty_kb(space)
        for kb in (one, bulk):  # the new ids follow existing objects
            kb.create_object(["foggy", "clouds"])
        singles = [
            one.create_object(bag, intensities=w, metadata=m)
            for bag, w, m in zip(bags, intensities, metadata)
        ]
        made = bulk.create_objects(bags, intensities, metadata)
        _assert_same_objects(made, singles)
        _assert_same_objects(list(bulk), list(one))

    def test_render_views_is_repeated_render_view(self, space):
        kb = _empty_kb(space)
        kb.create_objects([["foggy", "clouds"], ["sunny"], ["misty", "ocean", "dusk"]])
        ids = [i % 3 for i in range(2 * BULK_SEEDING_MIN_KEYS + 1)]
        seeds = [7 * i for i in range(len(ids))]
        views = kb.render_views(ids, seeds)
        for view, object_id, seed in zip(views, ids, seeds):
            single = kb.render_view(object_id, seed)
            assert list(view) == list(single) == list(MODALITIES)
            assert view[Modality.TEXT] == single[Modality.TEXT]
            assert np.array_equal(view[Modality.IMAGE], single[Modality.IMAGE])
            assert np.array_equal(view[Modality.AUDIO], single[Modality.AUDIO])
            obj, key = kb.get(object_id), ("view", object_id, seed)
            text = _text_oracle(kb.render_model.text, list(obj.concepts), key)
            assert view[Modality.TEXT] == text
            assert np.array_equal(
                view[Modality.IMAGE], _image_oracle(kb.render_model.image, obj.latent, key)
            )

    def test_benchmark_corpus_digest(self):
        """The benchmark's corpus (scenes / 2000 / seed 7), rendered in bulk:
        sha256 of every object's text, image, latent and concepts, captured
        at e634851 when each object was rendered on its own."""
        kb = generate_knowledge_base(DatasetSpec("scenes", size=2000, seed=7))
        assert _content_digest(kb) == (
            "0f76472c7a8ff15cbdf02df131d9856bdcb8fe26ca449fa239889a977a7a48f3"
        )
