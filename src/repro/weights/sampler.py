"""Contrastive pair sampling for the weight learner.

Positives are *augmented views*: the same object re-rendered with fresh
modality noise and re-encoded.  Negatives are other objects drawn uniformly.
Neither uses the hidden ground-truth latent, so the learner sees exactly
what a practitioner with an unlabelled corpus would see.

A step is array work, not a loop over views: set-up trains on ``steps *
batch_size`` views (1 920 at the defaults), so an encoder entry per view and
a Python dot product per pair would be the bulk of its representation stage,
and so would rendering (and seeding the noise of) each view on its own —
the views of a group of steps are rendered in one call, as many steps as
fit the set-up scratch budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.encoders.base import EncoderSet
from repro.errors import DataError
from repro.utils import SCRATCH_BYTES
from repro.utils.rng import below, words


@dataclass
class ContrastiveBatch:
    """One training batch of per-modality distance features.

    For each modality ``m``, ``positive[m]`` holds the anchor-to-positive
    squared distances (shape ``(batch,)``) and ``negative[m]`` the
    anchor-to-negative distances (shape ``(batch, n_negatives)``).  The loss
    only needs these per-modality distances, never the vectors themselves.
    """

    positive: Dict[Modality, np.ndarray]
    negative: Dict[Modality, np.ndarray]

    @property
    def size(self) -> int:
        first = next(iter(self.positive.values()))
        return int(first.shape[0])


class ViewPairSampler:
    """Samples contrastive batches from a knowledge base + encoder set.

    ``corpus`` is the encoded ``kb`` (``encode_corpus``'s per-modality
    views, row ``i`` = object ``i``) when the caller holds it — set-up
    encodes once and hands the same corpus here and to index construction;
    without it the sampler encodes.  The rows are the anchors and the
    negatives.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        n_negatives: int = 8,
        seed: int = 0,
        corpus: "Mapping[Modality, np.ndarray] | None" = None,
    ) -> None:
        if len(kb) < 2:
            raise DataError("contrastive sampling needs at least two objects")
        if n_negatives < 1:
            raise ValueError(f"n_negatives must be >= 1, got {n_negatives}")
        self.kb = kb
        self.encoder_set = encoder_set
        self.n_negatives = n_negatives
        self.seed = seed
        if corpus is None:
            corpus = encoder_set.encode_corpus(list(kb))
        self._anchor_vectors = corpus

    def sample(self, batch_size: int, step: int) -> ContrastiveBatch:
        """Draw a deterministic batch for training step ``step``."""
        return next(self.sample_many(batch_size, [step]))

    def sample_many(self, batch_size: int, steps: Iterable[int]) -> Iterator[ContrastiveBatch]:
        """One deterministic batch per training step in ``steps``, in order.

        Each step draws from its own key (:meth:`_draws`); since no draw
        depends on a view, the steps go in groups whose views fit
        :data:`repro.utils.SCRATCH_BYTES` — a view's rows counted as its
        encoders' :meth:`~repro.encoders.base.Encoder.row_bytes`, 8 steps
        of 32 on text + 256-pixel images — and a group's draws come first,
        then its views in one render call.  Encoding stays per step — one
        ``encode_batch`` per modality over the step's views, as a batch of
        ``batch_size`` rows rounds — and the negatives are one gather over
        the anchor matrix.  The batches are yielded as they are made, so
        the caller holds one group's views at a time, never the run's.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        view_bytes = batch_size * sum(
            self.encoder_set.encoder_for(modality).row_bytes(modality)
            for modality in self._anchor_vectors
        )
        group = max(1, SCRATCH_BYTES // view_bytes)
        steps = list(steps)
        for first in range(0, len(steps), group):
            anchors, seeds, negatives = self._draws(batch_size, steps[first:first + group])
            views = self.kb.render_views(anchors.ravel().tolist(), seeds.ravel().tolist())
            for index, (step_anchors, step_negatives) in enumerate(zip(anchors, negatives)):
                step_views = views[index * batch_size:(index + 1) * batch_size]
                positive: Dict[Modality, np.ndarray] = {}
                negative: Dict[Modality, np.ndarray] = {}
                for modality, matrix in self._anchor_vectors.items():
                    encoder = self.encoder_set.encoder_for(modality)
                    view_rows = encoder.encode_batch(
                        modality, [view[modality] for view in step_views]
                    )
                    anchor_rows = matrix[step_anchors]
                    diff = anchor_rows - view_rows
                    positive[modality] = np.einsum("bd,bd->b", diff, diff)
                    diff = anchor_rows[:, None, :] - matrix[step_negatives]
                    negative[modality] = np.einsum("bnd,bnd->bn", diff, diff)
                yield ContrastiveBatch(positive=positive, negative=negative)

    def _draws(
        self, batch_size: int, steps: List[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each step's anchors ``(len(steps), batch_size)``, view seeds (the
        same shape) and negatives ``(len(steps), batch_size, n_negatives)``.

        A step's row of :func:`~repro.utils.rng.words` under ``(seed,
        "contrastive-batch")``, keyed by the step: ``batch_size`` anchors,
        then per anchor a view seed below ``2**30`` and ``n_negatives``
        draws below ``n - 1``, each shifted up by one at or past its
        anchor — uniform over the other objects, with no redraw.
        """
        n, stride = len(self.kb), self.n_negatives + 1
        drawn = words(self.seed, ("contrastive-batch",), steps, batch_size * (1 + stride))
        anchors = below(drawn[:, :batch_size], n)
        per_anchor = drawn[:, batch_size:].reshape(len(steps), batch_size, stride)
        seeds = below(per_anchor[:, :, 0], 1 << 30)
        negatives = below(per_anchor[:, :, 1:], n - 1)
        negatives += negatives >= anchors[:, :, None]
        return anchors, seeds, negatives
