"""The simulated CLIP encoder: one shared space for text and images.

Both branches first estimate the latent concept vector of their content —
text by averaging concept-table embeddings of recognised tokens, images by
decoding the pixel grid at full resolution — and then apply the *same*
orthonormal projection into the shared output space.  Two views of the same
underlying object therefore land close together, which is precisely the
contract of a jointly-trained vision/language encoder and what the Joint
Embedding retrieval framework depends on.

The joint space is still imperfect: each branch keeps its modality's noise
(dropped tokens, pixel noise), so joint vectors collapse modality-specific
detail — the weakness Figure 5 of the paper shows for JE.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.data.modality import Modality
from repro.data.rendering import ImageRenderer, TextRenderer
from repro.encoders.base import Encoder
from repro.errors import EncodingError
from repro.utils import derive_rng, l2_normalize


class SimulatedClipEncoder(Encoder):
    """Joint text/image encoder with a shared orthonormal output space."""

    name = "sim-clip"

    def __init__(
        self,
        image_renderer: ImageRenderer,
        output_dim: int = 32,
        modality_gap: float = 0.25,
        seed: int = 0,
    ) -> None:
        space = image_renderer.space
        if output_dim <= 0 or output_dim > space.latent_dim:
            raise ValueError(
                f"output_dim must be in [1, latent_dim={space.latent_dim}], "
                f"got {output_dim}"
            )
        if modality_gap < 0:
            raise ValueError(f"modality_gap must be >= 0, got {modality_gap}")
        self.space = space
        self.image_renderer = image_renderer
        self._output_dim = output_dim
        self.modality_gap = modality_gap
        self.seed = seed
        rng = derive_rng(seed, "clip-shared-projection")
        # Orthonormal rows: the shared projection preserves latent geometry,
        # which is what makes the joint space meaningful across modalities.
        # Keeping output_dim < latent_dim models the lossy compression of a
        # jointly trained space — the root of JE's accuracy ceiling.
        random_matrix = rng.standard_normal((space.latent_dim, space.latent_dim))
        q, _ = np.linalg.qr(random_matrix)
        self._projection = q[:output_dim, :]
        # Real CLIP spaces exhibit a "modality gap": text and image
        # embeddings occupy distinct cones.  A fixed per-modality offset
        # reproduces it.
        gap_rng = derive_rng(seed, "clip-modality-gap")
        self._gap = {
            Modality.TEXT: l2_normalize(gap_rng.standard_normal(output_dim)),
            Modality.IMAGE: l2_normalize(gap_rng.standard_normal(output_dim)),
        }
        # The concept table as one matrix: the batched text branch gathers
        # rows of it instead of stacking ``Concept.vector`` objects per item.
        names = space.names
        self._concept_row = {name: row for row, name in enumerate(names)}
        self._concept_table = np.stack([space.get(name).vector for name in names])

    @property
    def output_dim(self) -> int:
        return self._output_dim

    @property
    def modalities(self) -> Tuple[Modality, ...]:
        return (Modality.TEXT, Modality.IMAGE)

    # ------------------------------------------------------------------
    # branches
    # ------------------------------------------------------------------
    def _encode_text(self, content: object) -> np.ndarray:
        if not isinstance(content, str):
            raise EncodingError(
                f"{self.name} text branch expects a string, got {type(content).__name__}"
            )
        tokens = TextRenderer.tokenize(content)
        if not tokens:
            raise EncodingError(f"{self.name} cannot encode empty text")
        known = self.space.known_tokens(tokens)
        if known:
            stacked = np.stack([self.space.get(token).vector for token in known])
            return l2_normalize(stacked.mean(axis=0))
        # No recognised concept ("more like this one"): a real CLIP still
        # returns *some* embedding.  Hash tokens into pseudo-embeddings so
        # the vector is deterministic but carries no concept signal — the
        # other query modalities must do the work.
        from repro.encoders.text import _token_pseudo_embedding

        stacked = np.stack(
            [
                _token_pseudo_embedding(token, self.space.latent_dim, self.seed)
                for token in tokens
            ]
        )
        return l2_normalize(stacked.mean(axis=0))

    def _text_latents(self, contents) -> np.ndarray:
        """``_encode_text`` of every item, to the bit, in a few array steps.

        Texts are grouped by how many concept tokens they carry; a group's
        token rows are gathered from the concept table as one ``(g, c, d)``
        block whose ``mean(axis=1)`` adds the same ``c`` rows in the same
        order as the per-item ``np.stack(...).mean(axis=0)``.  An item with
        no concept token (or that is no string at all) goes through
        ``_encode_text``, which raises or falls back to pseudo-embeddings.
        """
        latents = np.empty((len(contents), self.space.latent_dim))
        row_of = self._concept_row
        groups: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        for position, content in enumerate(contents):
            tokens = TextRenderer.tokenize(content) if isinstance(content, str) else ()
            rows = [row_of[token] for token in tokens if token in row_of]
            if rows:
                positions, gathered = groups.setdefault(len(rows), ([], []))
                positions.append(position)
                gathered.append(rows)
            else:
                latents[position] = self._encode_text(content)
        for positions, gathered in groups.values():
            latents[positions] = l2_normalize(self._concept_table[gathered].mean(axis=1))
        return latents

    def row_bytes(self, modality: Modality) -> int:
        """A block stacks raw pixels (images) or latents (text)."""
        if self._require_support(modality) is Modality.IMAGE:
            return 8 * self.image_renderer.spec.pixels
        return 8 * self.space.latent_dim

    def _encode_rows(self, modality: Modality, contents) -> np.ndarray:
        """One block: latents by concept-table gather (text) or one gemm
        (images), then one shared projection gemm and a broadcast
        modality-gap add."""
        if modality is Modality.TEXT:
            latents = self._text_latents(contents)
        else:
            images = self._numeric_rows(modality, contents, self.image_renderer.spec.pixels)
            latents = self.image_renderer.decode_batch(images)
        projected = latents @ self._projection.T
        return l2_normalize(projected + self.modality_gap * self._gap[modality])
