"""Rendering latents into modality content (and decoding them back).

Each renderer owns the fixed generative parameters for one modality:

* :class:`TextRenderer` — emits the object's concept names as tokens, with a
  drop probability (descriptions are incomplete in real corpora) plus filler
  words drawn from a domain-neutral vocabulary.
* :class:`ImageRenderer` — projects the latent through a fixed random matrix
  into a 2-D pixel grid and adds Gaussian noise.
* :class:`AudioRenderer` — projects the latent into a 1-D frame sequence with
  temporal smoothing and noise.

Renderers also expose ``decode`` methods (the pseudo-inverse of the
projection).  Encoders use these the way a pretrained model uses its learned
weights: they are public "model parameters" of the world, not the per-object
ground truth, which stays hidden behind noise and dropped tokens.

A renderer renders many items at once (``render_many``; ``render`` is a
batch of one), each under its own noise key, with the keys' streams seeded
together by :func:`~repro.utils.rng.derive_rngs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.concepts import ConceptSpace
from repro.errors import DataError
from repro.utils import (
    BULK_SEEDING_MIN_KEYS,
    derive_rng,
    derive_rngs,
    derive_words,
    l2_normalize,
    row_blocks,
)
from repro.utils.replay import StreamBlock

FILLER_WORDS: Tuple[str, ...] = (
    "a", "an", "the", "photo", "picture", "image", "of", "with", "some",
    "very", "style", "item", "shown", "featuring", "and", "quite", "nice",
)
"""Non-concept tokens mixed into descriptions, shared across domains."""

#: Raw words a text key's replay holds beyond its expected draws.  A key
#: that needs more is rendered again on its ``Generator`` (rare: the
#: shuffle's redraws are the only unbounded part).
TEXT_SURPLUS_WORDS = 2


class TextRenderer:
    """Render an object's concepts as a noisy textual description."""

    def __init__(
        self,
        space: ConceptSpace,
        drop_probability: float = 0.15,
        filler_count: int = 3,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(f"drop_probability must be in [0, 1), got {drop_probability}")
        if filler_count < 0:
            raise ValueError(f"filler_count must be >= 0, got {filler_count}")
        self.space = space
        self.drop_probability = drop_probability
        self.filler_count = filler_count
        self.seed = seed

    def render(self, concepts: Sequence[str], noise_key: object) -> str:
        """Produce a token string for ``concepts``.

        At least one concept always survives the drop step so no object ends
        up with an empty description.
        """
        return self.render_many([concepts], [noise_key])[0]

    def render_many(
        self, bags: Sequence[Sequence[str]], noise_keys: Sequence[object]
    ) -> List[str]:
        """One description per concept bag, bag ``i`` under ``noise_keys[i]``.

        Each key's stream is drawn in one fixed order: one uniform per
        concept for the drop step, the fallback concept when every one was
        dropped, one integer per filler, then the token order
        (:meth:`_render_drawn`).  From :data:`~repro.utils.rng.
        BULK_SEEDING_MIN_KEYS` keys on, those draws are replayed from each
        key's raw words for all keys at once (:meth:`_replay`); below it
        each key's ``Generator`` makes them.
        """
        _check_keys(len(bags), noise_keys)
        if not all(bags):
            raise DataError("cannot render text for zero concepts")
        if len(bags) < BULK_SEEDING_MIN_KEYS:
            streams = derive_rngs(self.seed, "text", keys=noise_keys)
            return [self._render_drawn(bag, rng) for bag, rng in zip(bags, streams)]
        top = max(map(len, bags))
        most = top + self.filler_count  # tokens
        # A word per uniform, and the 32-bit draws (two a word) for the
        # fallback, the fillers and a shuffle's partners at two tries each.
        width = top + (1 + self.filler_count + 2 * (most - 1) + 1) // 2 + TEXT_SURPLUS_WORDS
        # A key's words, cursor and buffer, its draws, and the lists of its
        # kept flags, fillers and order that its text is joined from.
        row_bytes = 8 * (2 * width + 4 * most + 32)
        texts: List[str] = []
        for block in row_blocks(len(bags), row_bytes):
            texts += self._replay(bags[block], noise_keys[block], width)
        return texts

    def _render_drawn(self, concepts: Sequence[str], rng: np.random.Generator) -> str:
        """One description, its draws made on its ``Generator``."""
        kept = [c for c in concepts if rng.random() >= self.drop_probability]
        if not kept:
            kept = [concepts[int(rng.integers(len(concepts)))]]
        fillers = range(self.filler_count)
        tokens = kept + [FILLER_WORDS[int(rng.integers(len(FILLER_WORDS)))] for _ in fillers]
        order = rng.permutation(len(tokens)).tolist()
        return " ".join([tokens[i] for i in order])

    def _replay(
        self, bags: Sequence[Sequence[str]], noise_keys: Sequence[object], width: int
    ) -> List[str]:
        """:meth:`_render_drawn` for every bag, the draws computed from the
        first ``width`` raw words of each key's stream as array operations
        across keys; a key whose draws need more words is rendered again on
        its ``Generator``."""
        streams = StreamBlock(derive_words(self.seed, "text", keys=noise_keys, width=width))
        everyone = np.arange(len(bags))
        lengths = np.array([len(bag) for bag in bags])
        kept = np.zeros((len(bags), int(lengths.max())), dtype=bool)
        for j in range(kept.shape[1]):
            rows = np.flatnonzero(lengths > j)
            kept[rows, j] = streams.random(rows) >= self.drop_probability
        counts = kept.sum(axis=1)
        empty = np.flatnonzero(counts == 0)
        kept[empty, streams.integers(empty, lengths[empty]).astype(np.intp)] = True
        counts[empty] = 1
        fillers = np.empty((len(bags), self.filler_count), dtype=np.uint64)
        for f in range(self.filler_count):
            fillers[:, f] = streams.integers(everyone, len(FILLER_WORDS))
        sizes = counts + self.filler_count
        orders = streams.permutations(everyone, sizes)
        texts: List[str] = []
        for bag, keep, filler, order, size in zip(
            bags, kept.tolist(), fillers.tolist(), orders.tolist(), sizes.tolist()
        ):
            tokens = [c for c, k in zip(bag, keep) if k] + [FILLER_WORDS[f] for f in filler]
            texts.append(" ".join([tokens[i] for i in order[:size]]))
        redo = np.flatnonzero(streams.overrun).tolist()
        rngs = derive_rngs(self.seed, "text", keys=[noise_keys[i] for i in redo])
        for i, rng in zip(redo, rngs):
            texts[i] = self._render_drawn(bags[i], rng)
        return texts

    @staticmethod
    def tokenize(text: str) -> List[str]:
        """Split a description into lower-case tokens."""
        return [token for token in text.lower().split() if token]


@dataclass(frozen=True)
class ImageSpec:
    """Shape and noise level of the synthetic image modality."""

    height: int = 16
    width: int = 16
    noise_sigma: float = 0.05

    @property
    def pixels(self) -> int:
        return self.height * self.width


class ImageRenderer:
    """Render latents into pixel grids via a fixed random projection."""

    def __init__(self, space: ConceptSpace, spec: ImageSpec = ImageSpec(), seed: int = 0) -> None:
        if spec.pixels < space.latent_dim:
            raise DataError(
                f"image has {spec.pixels} pixels but latent_dim is {space.latent_dim}; "
                "the projection would lose rank"
            )
        self.space = space
        self.spec = spec
        self.seed = seed
        rng = derive_rng(seed, "image-projection")
        self._projection = rng.standard_normal((spec.pixels, space.latent_dim))
        self._projection /= np.sqrt(space.latent_dim)
        self._decoder = np.linalg.pinv(self._projection)

    @property
    def projection(self) -> np.ndarray:
        """The (pixels, latent_dim) generative projection matrix."""
        return self._projection

    def render(self, latent: np.ndarray, noise_key: object) -> np.ndarray:
        """Project ``latent`` into an image grid and add pixel noise."""
        return self.render_many([latent], [noise_key])[0]

    def render_many(self, latents: np.ndarray, noise_keys: Sequence[object]) -> np.ndarray:
        """Render ``(n, latent_dim)`` latents into ``(n, height, width)``
        images, latent ``i`` under ``noise_keys[i]``.

        Each row is ``projection @ latent + sigma * noise``, a matrix-vector
        product per row, built in place: the noise is drawn into the row,
        scaled, and the product added (both operations commute, so the
        bits are the expression's).  (One gemm ``latents @ projection.T``
        would round differently, by up to 3.6e-15.)
        """
        latents = _check_latents(latents, self.space.latent_dim, noise_keys)
        spec, sigma = self.spec, self.spec.noise_sigma
        images = np.empty((len(latents), spec.pixels))
        streams = derive_rngs(self.seed, "image-noise", keys=noise_keys)
        for row, latent, rng in zip(images, latents, streams):
            rng.standard_normal(out=row)
            row *= sigma
            row += self._projection @ latent
        return images.reshape(len(latents), spec.height, spec.width)

    def decode(self, image: np.ndarray) -> np.ndarray:
        """Recover a latent estimate from an image (least-squares inverse)."""
        flat = np.asarray(image, dtype=np.float64).reshape(-1)
        if flat.size != self.spec.pixels:
            raise DataError(
                f"image has {flat.size} pixels, renderer expects {self.spec.pixels}"
            )
        return l2_normalize(self._decoder @ flat)

    def decode_batch(self, images: np.ndarray) -> np.ndarray:
        """Decode ``(n, pixels)`` (or ``(n, h, w)``) images in one gemm."""
        flat = np.asarray(images, dtype=np.float64).reshape(len(images), -1)
        if flat.shape[1] != self.spec.pixels:
            raise DataError(
                f"images have {flat.shape[1]} pixels, renderer expects {self.spec.pixels}"
            )
        return l2_normalize(flat @ self._decoder.T)


@dataclass(frozen=True)
class AudioSpec:
    """Shape and noise level of the synthetic audio modality."""

    frames: int = 128
    noise_sigma: float = 0.1
    smoothing: int = 4


class AudioRenderer:
    """Render latents into 1-D frame sequences with temporal smoothing."""

    def __init__(self, space: ConceptSpace, spec: AudioSpec = AudioSpec(), seed: int = 0) -> None:
        if spec.frames < space.latent_dim:
            raise DataError(
                f"audio has {spec.frames} frames but latent_dim is {space.latent_dim}"
            )
        self.space = space
        self.spec = spec
        self.seed = seed
        rng = derive_rng(seed, "audio-projection")
        self._projection = rng.standard_normal((spec.frames, space.latent_dim))
        self._projection /= np.sqrt(space.latent_dim)
        self._decoder = np.linalg.pinv(self._projection)

    def render(self, latent: np.ndarray, noise_key: object) -> np.ndarray:
        """Project ``latent`` into frames, smooth, and add noise."""
        return self.render_many([latent], [noise_key])[0]

    def render_many(self, latents: np.ndarray, noise_keys: Sequence[object]) -> np.ndarray:
        """Render ``(n, latent_dim)`` latents into ``(n, frames)`` clips,
        latent ``i`` under ``noise_keys[i]``, as :meth:`ImageRenderer.
        render_many` does, with each projection smoothed by ``np.convolve``
        before the noise is added."""
        latents = _check_latents(latents, self.space.latent_dim, noise_keys)
        clips = np.empty((len(latents), self.spec.frames))
        streams = derive_rngs(self.seed, "audio-noise", keys=noise_keys)
        kernel = np.ones(self.spec.smoothing) / self.spec.smoothing
        for row, latent, rng in zip(clips, latents, streams):
            frames = self._projection @ latent
            if self.spec.smoothing > 1:
                frames = np.convolve(frames, kernel, mode="same")
            rng.standard_normal(out=row)
            row *= self.spec.noise_sigma
            row += frames
        return clips

    def decode(self, audio: np.ndarray) -> np.ndarray:
        """Recover a latent estimate from audio frames."""
        frames = np.asarray(audio, dtype=np.float64).reshape(-1)
        if frames.size != self.spec.frames:
            raise DataError(
                f"audio has {frames.size} frames, renderer expects {self.spec.frames}"
            )
        return l2_normalize(self._decoder @ frames)

    def decode_batch(self, audios: np.ndarray) -> np.ndarray:
        """Decode ``(n, frames)`` clips in one gemm."""
        frames = np.asarray(audios, dtype=np.float64).reshape(len(audios), -1)
        if frames.shape[1] != self.spec.frames:
            raise DataError(
                f"audio has {frames.shape[1]} frames, renderer expects {self.spec.frames}"
            )
        return l2_normalize(frames @ self._decoder.T)


def _check_keys(count: int, noise_keys: Sequence[object]) -> None:
    if len(noise_keys) != count:
        raise DataError(f"got {count} items to render but {len(noise_keys)} noise keys")


def _check_latents(
    latents: np.ndarray, latent_dim: int, noise_keys: Sequence[object]
) -> np.ndarray:
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[1] != latent_dim:
        raise DataError(f"latents have shape {latents.shape}, expected (n, {latent_dim})")
    _check_keys(len(latents), noise_keys)
    return latents


class RenderModel:
    """Bundle of per-modality renderers for one knowledge base."""

    def __init__(
        self,
        space: ConceptSpace,
        seed: int = 0,
        text_drop_probability: float = 0.15,
        image_spec: ImageSpec = ImageSpec(),
        audio_spec: AudioSpec = AudioSpec(),
    ) -> None:
        self.space = space
        self.seed = seed
        self.text = TextRenderer(space, drop_probability=text_drop_probability, seed=seed)
        self.image = ImageRenderer(space, spec=image_spec, seed=seed)
        self.audio = AudioRenderer(space, spec=audio_spec, seed=seed)
