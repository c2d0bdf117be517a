"""Tests for the simulated CLIP encoder."""

import numpy as np
import pytest

from repro.data import Modality
from repro.encoders import SimulatedClipEncoder
from repro.errors import EncodingError
from repro.utils import l2_normalize


@pytest.fixture(scope="module")
def clip(scenes_kb):
    return SimulatedClipEncoder(scenes_kb.render_model.image, seed=1)


class TestSharedSpace:
    def test_text_and_image_of_same_object_close(self, clip, scenes_kb):
        obj = scenes_kb.get(0)
        text_vec = clip.encode(Modality.TEXT, obj.get(Modality.TEXT))
        image_vec = clip.encode(Modality.IMAGE, obj.get(Modality.IMAGE))
        strangers = [
            clip.encode(Modality.IMAGE, scenes_kb.get(i).get(Modality.IMAGE))
            for i in range(1, 8)
        ]
        cross = text_vec @ image_vec
        assert sum(cross > text_vec @ s for s in strangers) >= 6

    def test_modality_gap_exists(self, clip, scenes_kb):
        # Mean text vector and mean image vector should sit apart (the cone
        # structure of real CLIP spaces).
        texts = []
        images = []
        for i in range(20):
            obj = scenes_kb.get(i)
            texts.append(clip.encode(Modality.TEXT, obj.get(Modality.TEXT)))
            images.append(clip.encode(Modality.IMAGE, obj.get(Modality.IMAGE)))
        gap = np.linalg.norm(np.mean(texts, axis=0) - np.mean(images, axis=0))
        assert gap > 0.05

    def test_unit_norm(self, clip, scenes_kb):
        obj = scenes_kb.get(0)
        for modality in (Modality.TEXT, Modality.IMAGE):
            vector = clip.encode(modality, obj.get(modality))
            np.testing.assert_allclose(np.linalg.norm(vector), 1.0)

    def test_output_compressed(self, clip, scenes_kb):
        assert clip.output_dim < scenes_kb.space.latent_dim


class TestBatchedTextBranch:
    """``encode_batch`` gathers concept-table rows by group instead of
    calling ``_encode_text`` per item; the latents must be the same floats."""

    def test_same_floats_as_per_item_latents(self, clip, scenes_kb):
        names = scenes_kb.space.names
        texts = [
            names[0],
            f"a {names[1]} scene with {names[2]}",
            f"{names[3]} {names[4]} {names[5]}",
            f"{names[0]} {names[2]} {names[4]} {names[6]} filler words",
            "qwerty zxcvb",  # no concept token: pseudo-embedding fallback
            f"{names[1]} {names[1]} {names[7]}",  # a repeated token counts twice
            f"{names[5].upper()}   {names[6]}",
            names[0],
        ]
        latents = np.stack([clip._encode_text(text) for text in texts])
        expected = l2_normalize(
            latents @ clip._projection.T + clip.modality_gap * clip._gap[Modality.TEXT]
        )
        np.testing.assert_array_equal(clip.encode_batch(Modality.TEXT, texts), expected)

    def test_same_floats_on_a_rendered_corpus(self, clip, scenes_kb):
        texts = [obj.get(Modality.TEXT) for obj in scenes_kb]
        np.testing.assert_array_equal(
            clip._text_latents(texts),
            np.stack([clip._encode_text(text) for text in texts]),
        )

    @pytest.mark.parametrize("bad", ["   ", "", 7, None, ["foggy"]])
    def test_bad_items_still_raise(self, clip, scenes_kb, bad):
        good = scenes_kb.get(0).get(Modality.TEXT)
        with pytest.raises(EncodingError):
            clip.encode_batch(Modality.TEXT, [good, bad])


class TestValidation:
    def test_rejects_audio(self, clip):
        with pytest.raises(EncodingError):
            clip.encode(Modality.AUDIO, np.zeros(128))

    def test_conceptless_text_gets_fallback_embedding(self, clip):
        # "more like this one" carries no concept; CLIP must still embed it.
        vector = clip.encode(Modality.TEXT, "qwerty zxcvb")
        np.testing.assert_allclose(np.linalg.norm(vector), 1.0)
        np.testing.assert_array_equal(
            vector, clip.encode(Modality.TEXT, "qwerty zxcvb")
        )

    def test_rejects_empty_text(self, clip):
        with pytest.raises(EncodingError, match="empty"):
            clip.encode(Modality.TEXT, "   ")

    def test_rejects_wrong_image_size(self, clip):
        with pytest.raises(EncodingError):
            clip.encode(Modality.IMAGE, np.zeros((3, 3)))

    def test_rejects_oversized_output_dim(self, scenes_kb):
        with pytest.raises(ValueError):
            SimulatedClipEncoder(scenes_kb.render_model.image, output_dim=1000)

    def test_rejects_negative_gap(self, scenes_kb):
        with pytest.raises(ValueError):
            SimulatedClipEncoder(scenes_kb.render_model.image, modality_gap=-1)


class TestJointFusion:
    def test_encode_joint_unit_norm(self, clip, scenes_kb):
        obj = scenes_kb.get(0)
        vectors = {
            Modality.TEXT: clip.encode(Modality.TEXT, obj.get(Modality.TEXT)),
            Modality.IMAGE: clip.encode(Modality.IMAGE, obj.get(Modality.IMAGE)),
        }
        joint = clip.encode_joint(vectors)
        np.testing.assert_allclose(np.linalg.norm(joint), 1.0)

    def test_encode_joint_rejects_empty(self, clip):
        with pytest.raises(EncodingError):
            clip.encode_joint({})
