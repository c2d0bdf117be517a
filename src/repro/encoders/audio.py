"""Audio encoder: decodes smoothed frame sequences back toward latent space."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.modality import Modality
from repro.data.rendering import AudioRenderer
from repro.encoders.base import Encoder
from repro.utils import derive_rng, l2_normalize


class SpectralAudioEncoder(Encoder):
    """Decoder-based audio encoder over the synthetic frame sequence.

    The renderer's temporal smoothing is not inverted (its kernel is treated
    as unknown, as a real model would), so the latent estimate carries the
    smoothing loss — audio is inherently the noisiest modality here.
    """

    name = "spectral-audio"

    def __init__(self, renderer: AudioRenderer, output_dim: int = 64, seed: int = 0) -> None:
        if output_dim <= 0:
            raise ValueError(f"output_dim must be positive, got {output_dim}")
        self.renderer = renderer
        self._output_dim = output_dim
        self.seed = seed
        rng = derive_rng(seed, "spectral-audio-projection")
        latent_dim = renderer.space.latent_dim
        self._projection = rng.standard_normal((output_dim, latent_dim))
        self._projection /= np.sqrt(latent_dim)

    @property
    def output_dim(self) -> int:
        return self._output_dim

    @property
    def modalities(self) -> Tuple[Modality, ...]:
        return (Modality.AUDIO,)

    def row_bytes(self, modality: Modality) -> int:
        """A block stacks raw frames."""
        return 8 * self.renderer.spec.frames

    def _encode_rows(self, modality: Modality, contents) -> np.ndarray:
        """One block as two gemms (decode, project)."""
        frames = self._numeric_rows(modality, contents, self.renderer.spec.frames)
        latent_estimates = self.renderer.decode_batch(frames)
        return l2_normalize(latent_estimates @ self._projection.T)
