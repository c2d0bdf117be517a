"""Component 2: vector representation.

Builds the configured encoder set, encodes the knowledge base once into
one schema-ordered matrix (read per modality through column views), and
produces the modality weights — learned through
contrastive training over those matrices, fixed from user input, or equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import MQAConfig, WeightMode
from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.encoders import EncodedCorpus, EncoderSet, build_encoder_set
from repro.weights import (
    VectorWeightLearner,
    WeightLearningConfig,
    WeightLearningReport,
    equal_weights,
    fixed_weights,
)


@dataclass
class RepresentationOutcome:
    """What the representation stage hands to index construction.

    Attributes:
        encoder_set: The modality -> encoder assignment.
        weights: Modality weights for the multi-vector distance.
        learning_report: The contrastive run's report (None unless
            weight_mode is LEARNED).
        corpus: The encoded knowledge base (``encode_corpus``, row ``i`` =
            object ``i``) — the one encode of a set-up: the weight learner
            reads its anchors from the per-modality views, and index
            construction builds over the same memory.  The coordinator
            drops this reference once the index is built: an ingest would
            make it stale, and the index holds the rows it needs.
    """

    encoder_set: EncoderSet
    weights: Dict[Modality, float]
    learning_report: Optional[WeightLearningReport] = None
    corpus: Optional[EncodedCorpus] = None


class VectorRepresentation:
    """Encodes the knowledge base's modalities and weighs them."""

    name = "vector representation"

    def run(self, config: MQAConfig, kb: KnowledgeBase) -> RepresentationOutcome:
        """Build encoders, encode ``kb`` once and weigh its modalities."""
        encoder_set = build_encoder_set(config.encoder_set, kb)
        corpus = encoder_set.encode_corpus(list(kb))
        report = None
        mode = config.weight_mode
        if mode is WeightMode.EQUAL:
            weights = equal_weights(encoder_set.modalities)
        elif mode is WeightMode.FIXED:
            assert config.fixed_weights is not None  # validated by MQAConfig
            weights = fixed_weights(encoder_set.modalities, config.fixed_weights)
        else:
            learner = VectorWeightLearner(WeightLearningConfig(**config.weight_learning))
            report = learner.fit(kb, encoder_set, corpus=corpus)
            weights = report.weights
        return RepresentationOutcome(
            encoder_set=encoder_set,
            weights=weights,
            learning_report=report,
            corpus=corpus,
        )
