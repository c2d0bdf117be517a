"""Component 2: vector representation.

Builds the configured encoder set and produces the modality weights —
learned through contrastive training, fixed from user input, or equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import MQAConfig, WeightMode
from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.encoders import EncoderSet, build_encoder_set
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
    """

    encoder_set: EncoderSet
    weights: Dict[Modality, float]
    learning_report: Optional[WeightLearningReport] = None


class VectorRepresentation:
    """Encodes the knowledge base's modalities and weighs them."""

    name = "vector representation"

    def run(self, config: MQAConfig, kb: KnowledgeBase) -> RepresentationOutcome:
        """Build encoders and weights for ``kb`` per ``config``."""
        encoder_set = build_encoder_set(config.encoder_set, kb)
        mode = config.weight_mode
        if mode is WeightMode.EQUAL:
            return RepresentationOutcome(
                encoder_set=encoder_set,
                weights=equal_weights(encoder_set.modalities),
            )
        if mode is WeightMode.FIXED:
            assert config.fixed_weights is not None  # validated by MQAConfig
            return RepresentationOutcome(
                encoder_set=encoder_set,
                weights=fixed_weights(encoder_set.modalities, config.fixed_weights),
            )
        learner = VectorWeightLearner(WeightLearningConfig(**config.weight_learning))
        report = learner.fit(kb, encoder_set)
        return RepresentationOutcome(
            encoder_set=encoder_set,
            weights=report.weights,
            learning_report=report,
        )
