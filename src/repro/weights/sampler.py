"""Contrastive pair sampling for the weight learner.

Positives are *augmented views*: the same object re-rendered with fresh
modality noise and re-encoded.  Negatives are other objects drawn uniformly.
Neither uses the hidden ground-truth latent, so the learner sees exactly
what a practitioner with an unlabelled corpus would see.

A step is array work, not a loop over views: set-up trains on ``steps *
batch_size`` views (1 920 at the defaults), so an encoder entry per view and
a Python dot product per pair would be the bulk of its representation stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.encoders.base import EncoderSet
from repro.errors import DataError
from repro.utils import derive_rng


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

    ``corpus`` is the encoded ``kb`` (``encode_corpus`` matrices, row ``i`` =
    object ``i``) when the caller holds it — set-up encodes once and hands
    the same matrices here and to index construction; without it the sampler
    encodes.  The rows are the anchors and the negatives.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        n_negatives: int = 8,
        seed: int = 0,
        corpus: "Dict[Modality, np.ndarray] | None" = None,
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
        """Draw a deterministic batch for training step ``step``.

        The draws are scalar and in a fixed order (the anchors, then per
        anchor one view seed and a rejection loop for its negatives); what
        follows them is array work — one ``encode_batch`` per modality over
        the step's views, one gather over the anchor matrix for negatives.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        rng = derive_rng(self.seed, "contrastive-batch", step)
        n = len(self.kb)
        anchors = rng.integers(0, n, size=batch_size)

        views: List[dict] = []
        negatives: List[List[int]] = []
        for anchor in anchors.tolist():
            views.append(self.kb.render_view(anchor, int(rng.integers(1 << 30))))
            drawn: List[int] = []
            while len(drawn) < self.n_negatives:
                candidate = int(rng.integers(n))
                if candidate != anchor:
                    drawn.append(candidate)
            negatives.append(drawn)

        positive: Dict[Modality, np.ndarray] = {}
        negative: Dict[Modality, np.ndarray] = {}
        for modality, matrix in self._anchor_vectors.items():
            encoder = self.encoder_set.encoder_for(modality)
            view_rows = encoder.encode_batch(modality, [view[modality] for view in views])
            anchor_rows = matrix[anchors]
            diff = anchor_rows - view_rows
            positive[modality] = np.einsum("bd,bd->b", diff, diff)
            diff = anchor_rows[:, None, :] - matrix[negatives]
            negative[modality] = np.einsum("bnd,bnd->bn", diff, diff)
        return ContrastiveBatch(positive=positive, negative=negative)
