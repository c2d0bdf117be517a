"""Tests for the patch-pooling image encoder."""

import numpy as np
import pytest

from repro.data import Modality
from repro.encoders import PatchPoolingImageEncoder
from repro.errors import EncodingError
from repro.utils import l2_normalize


@pytest.fixture(scope="module")
def encoder(scenes_kb):
    return PatchPoolingImageEncoder(scenes_kb.render_model.image, seed=1)


class TestEncoding:
    def test_unit_norm(self, encoder, scenes_kb):
        vector = encoder.encode(Modality.IMAGE, scenes_kb.get(0).get(Modality.IMAGE))
        np.testing.assert_allclose(np.linalg.norm(vector), 1.0)

    def test_same_object_views_close(self, encoder, scenes_kb):
        original = encoder.encode(
            Modality.IMAGE, scenes_kb.get(0).get(Modality.IMAGE)
        )
        view = scenes_kb.render_view(0, view_seed=5)
        re_encoded = encoder.encode(Modality.IMAGE, view[Modality.IMAGE])
        others = [
            encoder.encode(Modality.IMAGE, scenes_kb.get(i).get(Modality.IMAGE))
            for i in range(1, 6)
        ]
        view_similarity = original @ re_encoded
        assert all(view_similarity > original @ other for other in others)

    def test_rejects_text(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode(Modality.TEXT, "hello")

    def test_rejects_wrong_pixel_count(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode(Modality.IMAGE, np.zeros((4, 4)))


class TestConstruction:
    def test_patch_size_must_divide(self, scenes_kb):
        with pytest.raises(ValueError):
            PatchPoolingImageEncoder(scenes_kb.render_model.image, patch_size=5)

    def test_negative_ridge_rejected(self, scenes_kb):
        with pytest.raises(ValueError):
            PatchPoolingImageEncoder(scenes_kb.render_model.image, ridge=-0.1)

    def test_pooling_matrix_rows_average(self):
        matrix = PatchPoolingImageEncoder._pooling_matrix(4, 4, 2)
        assert matrix.shape == (4, 16)
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(4))

    def test_coarser_patches_lose_more(self, scenes_kb):
        """Pooling discards within-patch detail: over the fixture's objects,
        the latent a coarse encoder recovers from an image is further from
        the object's own latent than a fine encoder's (mean cosine ≈ 0.83
        at 2-pixel patches, ≈ 0.21 at 8)."""
        fine = PatchPoolingImageEncoder(scenes_kb.render_model.image, patch_size=2, seed=1)
        coarse = PatchPoolingImageEncoder(scenes_kb.render_model.image, patch_size=8, seed=1)
        images = np.stack([obj.get(Modality.IMAGE).reshape(-1) for obj in scenes_kb])
        latents = scenes_kb.latent_matrix()

        def recovered(enc):
            estimates = l2_normalize(images @ enc._pool.T @ enc._decoder.T)
            return float(np.einsum("nd,nd->n", estimates, latents).mean())

        assert recovered(fine) > recovered(coarse) + 0.3
