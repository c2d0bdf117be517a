"""Text encoders.

Both encoders turn a token string into a latent estimate and then project it
into an encoder-specific output space.  The latent estimate runs a decaying
sum over the concept-table vectors of recognised tokens (the "pretrained
vocabulary"); unrecognised tokens contribute hashed pseudo-embeddings, so
filler words act as noise exactly the way out-of-distribution words degrade
a real encoder.  The bag-of-tokens baseline is the same recurrence at decay
1: a plain sum.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.concepts import ConceptSpace
from repro.data.modality import Modality
from repro.data.rendering import TextRenderer
from repro.encoders.base import Encoder
from repro.errors import EncodingError
from repro.utils import derive_rng, l2_normalize


def _token_pseudo_embedding(token: str, dim: int, seed: int) -> np.ndarray:
    """A fixed random unit vector for an out-of-vocabulary token."""
    rng = derive_rng(seed, "oov-token", token)
    return l2_normalize(rng.standard_normal(dim))


class SequenceTextEncoder(Encoder):
    """Recurrent text encoder (the LSTM stand-in, the stronger option).

    Runs a fixed echo-state recurrence over token embeddings, which keeps it
    order-sensitive, but gates out unrecognised tokens almost entirely —
    modelling a well-trained sequence model that learned to ignore filler.
    """

    name = "sequence-lstm"
    _projection_scope = "sequence-projection"

    def __init__(
        self,
        space: ConceptSpace,
        output_dim: int = 48,
        oov_weight: float = 0.05,
        recurrence_decay: float = 0.7,
        seed: int = 0,
    ) -> None:
        if output_dim <= 0:
            raise ValueError(f"output_dim must be positive, got {output_dim}")
        if oov_weight < 0:
            raise ValueError(f"oov_weight must be >= 0, got {oov_weight}")
        if not 0.0 < recurrence_decay <= 1.0:
            raise ValueError(
                f"recurrence_decay must be in (0, 1], got {recurrence_decay}"
            )
        self.space = space
        self._output_dim = output_dim
        self.oov_weight = oov_weight
        self.recurrence_decay = recurrence_decay
        self.seed = seed
        rng = derive_rng(seed, self._projection_scope)
        self._projection = rng.standard_normal((output_dim, space.latent_dim))
        self._projection /= np.sqrt(space.latent_dim)

    @property
    def output_dim(self) -> int:
        return self._output_dim

    @property
    def modalities(self) -> Tuple[Modality, ...]:
        return (Modality.TEXT,)

    def _latent(self, content: object) -> np.ndarray:
        if not isinstance(content, str):
            raise EncodingError(
                f"{self.name} expects a string, got {type(content).__name__}"
            )
        tokens = TextRenderer.tokenize(content)
        if not tokens:
            raise EncodingError(f"{self.name} cannot encode empty text")
        state = np.zeros(self.space.latent_dim)
        for token in tokens:
            if token in self.space:
                step = self.space.get(token).vector
            else:
                step = self.oov_weight * _token_pseudo_embedding(
                    token, self.space.latent_dim, self.seed
                )
            state = self.recurrence_decay * state + step
        return l2_normalize(state)

    def row_bytes(self, modality: Modality) -> int:
        """A block stacks latents."""
        return 8 * self.space.latent_dim

    def _encode_rows(self, modality: Modality, contents) -> np.ndarray:
        """The recurrence stays per-string; a block's projection is one gemm."""
        latents = np.stack([self._latent(content) for content in contents])
        return l2_normalize(latents @ self._projection.T)


class BagOfTokensEncoder(SequenceTextEncoder):
    """Order-free summing text encoder (the weaker baseline).

    The recurrence at decay 1 — a plain sum of *all* token embeddings,
    concept tokens through the concept table, everything else through
    hashing — so filler words dilute the signal.  ``oov_weight`` controls
    how much they hurt.
    """

    name = "bag-of-tokens"
    _projection_scope = "bag-of-tokens-projection"

    def __init__(
        self,
        space: ConceptSpace,
        output_dim: int = 48,
        oov_weight: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(
            space, output_dim=output_dim, oov_weight=oov_weight,
            recurrence_decay=1.0, seed=seed,
        )
