"""Image encoder (the ResNet stand-in).

Pools the pixel grid into patch means — the lossy spatial abstraction a CNN
backbone performs — and decodes the pooled signal back toward latent space
with the pseudo-inverse of the pooled generative projection (its
"pretrained weights").  Pooling discards within-patch detail, so this
encoder is strictly noisier than the CLIP image branch, which decodes at
full resolution.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.modality import Modality
from repro.data.rendering import ImageRenderer
from repro.encoders.base import Encoder
from repro.utils import derive_rng, l2_normalize


class PatchPoolingImageEncoder(Encoder):
    """Patch-pooling image encoder over the synthetic pixel grid."""

    name = "patch-resnet"

    def __init__(
        self,
        renderer: ImageRenderer,
        output_dim: int = 96,
        patch_size: int = 2,
        ridge: float = 0.03,
        seed: int = 0,
    ) -> None:
        if output_dim <= 0:
            raise ValueError(f"output_dim must be positive, got {output_dim}")
        spec = renderer.spec
        if patch_size <= 0 or spec.height % patch_size or spec.width % patch_size:
            raise ValueError(
                f"patch_size {patch_size} must evenly divide the "
                f"{spec.height}x{spec.width} image"
            )
        self.renderer = renderer
        self.patch_size = patch_size
        self._output_dim = output_dim
        self.seed = seed

        # Pooling is linear, so compose it with the generative projection and
        # invert the composition once: latent -> pooled is (n_patches, latent).
        if ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {ridge}")
        pool = self._pooling_matrix(spec.height, spec.width, patch_size)
        pooled_projection = pool @ renderer.projection
        self._pool = pool
        # Pooling a random projection yields a badly-conditioned operator;
        # ridge-regularised decoding keeps pixel noise from being amplified
        # past the signal ("pretraining" would learn the same trade-off).
        latent_dim = renderer.space.latent_dim
        self._decoder = np.linalg.solve(
            pooled_projection.T @ pooled_projection + ridge * np.eye(latent_dim),
            pooled_projection.T,
        )
        rng = derive_rng(seed, "patch-resnet-projection")
        self._projection = rng.standard_normal((output_dim, latent_dim))
        self._projection /= np.sqrt(latent_dim)

    @staticmethod
    def _pooling_matrix(height: int, width: int, patch: int) -> np.ndarray:
        """Linear operator averaging each patch of a flattened image."""
        rows = (height // patch) * (width // patch)
        matrix = np.zeros((rows, height * width))
        row = 0
        for top in range(0, height, patch):
            for left in range(0, width, patch):
                for dy in range(patch):
                    for dx in range(patch):
                        pixel = (top + dy) * width + (left + dx)
                        matrix[row, pixel] = 1.0 / (patch * patch)
                row += 1
        return matrix

    @property
    def output_dim(self) -> int:
        return self._output_dim

    @property
    def modalities(self) -> Tuple[Modality, ...]:
        return (Modality.IMAGE,)

    def row_bytes(self, modality: Modality) -> int:
        """A block stacks raw pixels."""
        return 8 * self.renderer.spec.pixels

    def _encode_rows(self, modality: Modality, contents) -> np.ndarray:
        """One block as three gemms (pool, decode, project)."""
        images = self._numeric_rows(modality, contents, self.renderer.spec.pixels)
        pooled = images @ self._pool.T
        latent_estimates = l2_normalize(pooled @ self._decoder.T)
        return l2_normalize(latent_estimates @ self._projection.T)
