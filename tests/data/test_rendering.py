"""Tests for the modality renderers."""

import numpy as np
import pytest

from repro.data.concepts import ConceptSpace
from repro.data.rendering import (
    AudioRenderer,
    AudioSpec,
    ImageRenderer,
    ImageSpec,
    RenderModel,
    TextRenderer,
)
from repro.errors import DataError

VOCAB = {"weather": ["foggy", "sunny", "stormy"], "sky": ["clouds", "stars"]}


@pytest.fixture(scope="module")
def space():
    return ConceptSpace(VOCAB, latent_dim=16, seed=2)


class TestTextRenderer:
    def test_contains_at_least_one_concept(self, space):
        renderer = TextRenderer(space, drop_probability=0.9, seed=0)
        for key in range(30):
            tokens = TextRenderer.tokenize(renderer.render(["foggy", "clouds"], key))
            assert any(t in ("foggy", "clouds") for t in tokens)

    def test_deterministic_per_key(self, space):
        renderer = TextRenderer(space, seed=0)
        assert renderer.render(["foggy"], 7) == renderer.render(["foggy"], 7)

    def test_different_keys_vary(self, space):
        renderer = TextRenderer(space, seed=0, drop_probability=0.4)
        outputs = {renderer.render(["foggy", "clouds", "stars"], key) for key in range(10)}
        assert len(outputs) > 1

    def test_filler_count_respected(self, space):
        renderer = TextRenderer(space, drop_probability=0.0, filler_count=2, seed=0)
        tokens = TextRenderer.tokenize(renderer.render(["foggy"], 0))
        assert len(tokens) == 3  # 1 concept + 2 fillers

    def test_rejects_empty_concepts(self, space):
        with pytest.raises(DataError):
            TextRenderer(space).render([], 0)

    def test_rejects_bad_drop_probability(self, space):
        with pytest.raises(ValueError):
            TextRenderer(space, drop_probability=1.0)
        for bad in ({"filler_count": True}, {"filler_count": 2.5}, {"filler_count": -1},
                    {"drop_probability": float("nan")}):
            with pytest.raises(ValueError):
                TextRenderer(space, **bad)

    def test_tokenize_lowercases(self):
        assert TextRenderer.tokenize("Foggy  CLOUDS") == ["foggy", "clouds"]


class TestImageRenderer:
    def test_shape(self, space):
        renderer = ImageRenderer(space, seed=0)
        latent = space.compose(["foggy"])
        image = renderer.render(latent, 0)
        assert image.shape == (16, 16)

    def test_decode_recovers_latent(self, space):
        renderer = ImageRenderer(space, ImageSpec(noise_sigma=0.01), seed=0)
        latent = space.compose(["foggy", "clouds"])
        estimate = renderer.decode(renderer.render(latent, 3))
        assert estimate @ latent > 0.98

    def test_noise_degrades_decoding(self, space):
        latent = space.compose(["foggy", "clouds"])
        clean = ImageRenderer(space, ImageSpec(noise_sigma=0.01), seed=0)
        noisy = ImageRenderer(space, ImageSpec(noise_sigma=1.5), seed=0)
        cos_clean = clean.decode(clean.render(latent, 3)) @ latent
        cos_noisy = noisy.decode(noisy.render(latent, 3)) @ latent
        assert cos_clean > cos_noisy

    def test_rejects_undersized_image_spec(self, space):
        with pytest.raises(DataError, match="rank"):
            ImageRenderer(space, ImageSpec(height=2, width=2))

    def test_rejects_wrong_latent_shape(self, space):
        renderer = ImageRenderer(space, seed=0)
        with pytest.raises(DataError):
            renderer.render(np.zeros(3), 0)

    def test_decode_rejects_wrong_size(self, space):
        renderer = ImageRenderer(space, seed=0)
        with pytest.raises(DataError):
            renderer.decode(np.zeros(10))


class TestAudioRenderer:
    def test_shape(self, space):
        renderer = AudioRenderer(space, seed=0)
        frames = renderer.render(space.compose(["foggy"]), 0)
        assert frames.shape == (128,)

    def test_decode_recovers_latent_direction(self, space):
        renderer = AudioRenderer(space, AudioSpec(noise_sigma=0.01, smoothing=1), seed=0)
        latent = space.compose(["foggy", "stars"])
        estimate = renderer.decode(renderer.render(latent, 1))
        assert estimate @ latent > 0.95

    def test_smoothing_loses_information(self, space):
        latent = space.compose(["foggy", "stars"])
        crisp = AudioRenderer(space, AudioSpec(noise_sigma=0.01, smoothing=1), seed=0)
        smooth = AudioRenderer(space, AudioSpec(noise_sigma=0.01, smoothing=16), seed=0)
        cos_crisp = crisp.decode(crisp.render(latent, 1)) @ latent
        cos_smooth = smooth.decode(smooth.render(latent, 1)) @ latent
        assert cos_crisp > cos_smooth

    def test_rejects_undersized_spec(self, space):
        with pytest.raises(DataError):
            AudioRenderer(space, AudioSpec(frames=8))


class TestRenderModel:
    def test_bundles_all_modalities(self, space):
        model = RenderModel(space, seed=4)
        assert model.text.space is space
        assert model.image.space is space
        assert model.audio.space is space
