"""Rendering latents into modality content (and decoding them back).

Each renderer owns the fixed generative parameters for one modality:

* :class:`TextRenderer` — emits the object's concept names as tokens, with a
  drop probability (descriptions are incomplete in real corpora) plus filler
  words drawn from a domain-neutral vocabulary.
* :class:`ImageRenderer` — projects the latent through a fixed random matrix
  into a 2-D pixel grid and adds Gaussian noise.
* :class:`AudioRenderer` — projects the latent into a 1-D frame sequence with
  temporal smoothing and noise.

Renderers also expose ``decode_batch`` methods (the pseudo-inverse of the
projection).  Encoders use these the way a pretrained model uses its learned
weights: they are public "model parameters" of the world, not the per-object
ground truth, which stays hidden behind noise and dropped tokens.

A renderer renders many items at once (``render_many``; ``render`` is a
batch of one), each under its own noise key: an item's draws are its key's
row of the keyed generator (:func:`~repro.utils.rng.words`), so they do not
depend on the other items of the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.concepts import ConceptSpace
from repro.errors import DataError
from repro.utils import check_integer, check_real, derive_rng, l2_normalize
from repro.utils.rng import KEY_BLOCK, normals, unit_interval, words

FILLER_WORDS: Tuple[str, ...] = (
    "a", "an", "the", "photo", "picture", "image", "of", "with", "some",
    "very", "style", "item", "shown", "featuring", "and", "quite", "nice",
)
"""Non-concept tokens mixed into descriptions, shared across domains."""


class TextRenderer:
    """Render an object's concepts as a noisy textual description."""

    def __init__(
        self,
        space: ConceptSpace,
        drop_probability: float = 0.15,
        filler_count: int = 3,
        seed: int = 0,
    ) -> None:
        check_real("drop_probability", drop_probability, 0.0, 1.0)
        check_integer("filler_count", filler_count, 0)
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

        A key's row of :func:`~repro.utils.rng.words` under ``(seed,
        "text")``, with ``f`` the filler count: column 0 picks the concept
        kept when every one was dropped; filler ``k`` takes a word at
        ``1 + 2k`` and a sort key at ``2 + 2k``; concept ``j`` a drop
        uniform at ``1 + 2f + 2j`` and a sort key at ``2 + 2f + 2j``.  The
        text is the kept concepts and the fillers in the stable order of
        their sort keys (a column's top 32 bits).  Keys go
        :data:`~repro.utils.rng.KEY_BLOCK` at a time.
        """
        _check_keys(len(bags), noise_keys)
        if not all(bags):
            raise DataError("cannot render text for zero concepts")
        top = max(map(len, bags), default=0)
        texts: List[str] = []
        for start in range(0, len(bags), KEY_BLOCK):
            block = slice(start, start + KEY_BLOCK)
            texts += self._render_block(bags[block], noise_keys[block], top)
        return texts

    def _render_block(
        self, bags: Sequence[Sequence[str]], noise_keys: Sequence[object], top: int
    ) -> List[str]:
        # Only bools and small ints reach Python objects: a sort key or a
        # word per token would be an int object each, and that churn
        # fragments the small-object heap that the texts themselves live in.
        fill = self.filler_count
        drawn = words(self.seed, ("text",), noise_keys, 1 + 2 * (fill + top))
        high = drawn >> np.uint64(32)
        lengths = np.array([len(bag) for bag in bags], dtype=np.uint64)
        fallbacks = ((high[:, 0] * lengths) >> np.uint64(32)).tolist()
        fillers = ((high[:, 1:2 * fill:2] * np.uint64(len(FILLER_WORDS))) >> np.uint64(32)).tolist()
        kept = (unit_interval(drawn[:, 1 + 2 * fill::2]) >= self.drop_probability).tolist()
        # Every position's stable order: concepts 0 .. top - 1, then fillers.
        orders = np.argsort(
            np.concatenate([high[:, 2 + 2 * fill::2], high[:, 2:1 + 2 * fill:2]], axis=1),
            axis=1, kind="stable",
        ).tolist()
        texts: List[str] = []
        for bag, keep, fallback, filler, order in zip(bags, kept, fallbacks, fillers, orders):
            present = [j for j in range(len(bag)) if keep[j]] or [fallback]
            tokens = [bag[j] if j in present else None for j in range(top)]
            tokens += [FILLER_WORDS[f] for f in filler]
            texts.append(" ".join([tokens[i] for i in order if tokens[i] is not None]))
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

        Each row is ``projection @ latent + sigma * noise``, the noise the
        key's :func:`~repro.utils.rng.normals` row under ``(seed,
        "image-noise")``, and a matrix-vector product per row added in
        place.  (One gemm ``latents @ projection.T`` would round
        differently, by up to 3.6e-15, and a row's bits would depend on
        the rows beside it.)
        """
        latents = _check_latents(latents, self.space.latent_dim, noise_keys)
        spec = self.spec
        images = normals(self.seed, ("image-noise",), noise_keys, spec.pixels)
        images *= spec.noise_sigma
        for row, latent in zip(images, latents):
            row += self._projection @ latent
        return images.reshape(len(latents), spec.height, spec.width)

    def decode_batch(self, images: np.ndarray) -> np.ndarray:
        """Recover latent estimates from ``(n, pixels)`` (or ``(n, h, w)``)
        images in one gemm (least-squares inverse); one image is a batch of
        one."""
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
        clips = normals(self.seed, ("audio-noise",), noise_keys, self.spec.frames)
        clips *= self.spec.noise_sigma
        kernel = np.ones(self.spec.smoothing) / self.spec.smoothing
        for row, latent in zip(clips, latents):
            frames = self._projection @ latent
            if self.spec.smoothing > 1:
                frames = np.convolve(frames, kernel, mode="same")
            row += frames
        return clips

    def decode_batch(self, audios: np.ndarray) -> np.ndarray:
        """Recover latent estimates from ``(n, frames)`` clips in one gemm;
        one clip is a batch of one."""
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
