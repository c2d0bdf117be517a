"""The contrastive vector-weight-learning model.

Learns per-modality weights ``w`` for the distance

    d_w(a, x) = sum_m  w_m * d_m(a, x)

by minimising an InfoNCE-style loss over (anchor, positive-view, negatives)
triples:

    L = d_w(a, p) / tau + log sum_x exp(-d_w(a, x) / tau)

where ``x`` ranges over the positive and the negatives.  Because ``d_w`` is
linear in ``w``, the gradient has the closed form

    dL/dw_m = ( d_m(a, p) - sum_x softmax_x(-d_w/tau) * d_m(a, x) ) / tau

so training is plain SGD with momentum, followed by projection onto the
scaled simplex (weights non-negative, summing to the modality count).  A
noisy modality inflates ``d_m(a, p)`` relative to its negatives' spread, so
its weight is pushed down — exactly the behaviour the paper describes for
"capturing individual modality importance through contrastive learning".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

import numpy as np

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.encoders.base import EncoderSet
from repro.utils import check_fields, param, project_to_simplex
from repro.weights.sampler import ContrastiveBatch, ViewPairSampler


@dataclass(frozen=True)
class WeightLearningConfig:
    """Hyper-parameters of the weight learner.

    Attributes:
        steps: Number of SGD steps.
        batch_size: Anchors per step.
        n_negatives: Negatives per anchor.
        learning_rate: SGD step size.
        momentum: Heavy-ball momentum coefficient.
        temperature: Softmax temperature ``tau`` of the InfoNCE loss.
        uniform_pull: Strength of the regulariser pulling weights toward the
            uniform weighting.  The raw InfoNCE objective is linear in the
            weights, so its simplex optimum is a vertex (one modality takes
            everything); the quadratic pull ``uniform_pull * |w - 1|^2 / 2``
            yields interior solutions that still order modalities by
            informativeness.
        seed: Sampling seed.
    """

    steps: int = param(60, ge=1)
    batch_size: int = param(32, ge=1)
    n_negatives: int = param(8, ge=1)
    learning_rate: float = param(0.05, gt=0)
    momentum: float = param(0.8, ge=0, lt=1)
    temperature: float = param(0.5, gt=0)
    uniform_pull: float = param(0.15, ge=0)
    seed: int = 0

    def __post_init__(self) -> None:
        """Refuse what the learner cannot run on — a non-integer count, a
        ``bool`` or a non-finite rate — here, so ``MQAConfig`` refuses it
        at configuration time rather than set-up failing at indexing."""
        check_fields(self)


@dataclass
class WeightLearningReport:
    """Outcome of a training run.

    Attributes:
        weights: Learned modality -> weight mapping (sums to modality count).
        loss_curve: Mean batch loss per step.
        steps: Steps actually executed.
    """

    weights: Dict[Modality, float]
    loss_curve: List[float] = field(default_factory=list)
    steps: int = 0

    @property
    def converged(self) -> bool:
        """Heuristic: loss in the last quarter is below the first quarter."""
        if len(self.loss_curve) < 8:
            return False
        quarter = len(self.loss_curve) // 4
        return float(np.mean(self.loss_curve[-quarter:])) < float(
            np.mean(self.loss_curve[:quarter])
        )


class VectorWeightLearner:
    """Trains modality weights for one knowledge base + encoder set."""

    def __init__(self, config: WeightLearningConfig = WeightLearningConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # loss and gradient
    # ------------------------------------------------------------------
    def _loss_and_gradient(
        self,
        weights: np.ndarray,
        batch: ContrastiveBatch,
        modalities: List[Modality],
    ) -> "tuple[float, np.ndarray]":
        tau = self.config.temperature
        # Weighted distances: positive (batch,), negatives (batch, n_neg).
        pos = np.zeros_like(batch.positive[modalities[0]])
        neg = np.zeros_like(batch.negative[modalities[0]])
        for w, modality in zip(weights, modalities):
            pos += w * batch.positive[modality]
            neg += w * batch.negative[modality]

        # Log-sum-exp over {positive} ∪ negatives, numerically stabilised.
        all_d = np.concatenate([pos[:, None], neg], axis=1)
        logits = -all_d / tau
        max_logit = logits.max(axis=1, keepdims=True)
        log_z = max_logit[:, 0] + np.log(np.exp(logits - max_logit).sum(axis=1))
        loss = float(np.mean(pos / tau + log_z))

        softmax = np.exp(logits - max_logit)
        softmax /= softmax.sum(axis=1, keepdims=True)

        gradient = np.zeros(len(modalities))
        for i, modality in enumerate(modalities):
            d_all = np.concatenate(
                [batch.positive[modality][:, None], batch.negative[modality]], axis=1
            )
            expected = (softmax * d_all).sum(axis=1)
            gradient[i] = float(np.mean(batch.positive[modality] - expected)) / tau
        pull = self.config.uniform_pull
        if pull:
            loss += 0.5 * pull * float(((weights - 1.0) ** 2).sum())
            gradient += pull * (weights - 1.0)
        return loss, gradient

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self, kb: KnowledgeBase, encoder_set: EncoderSet,
        corpus: "Mapping[Modality, np.ndarray] | None" = None,
    ) -> WeightLearningReport:
        """Learn modality weights for ``kb`` under ``encoder_set``; ``corpus``
        is the already-encoded ``kb``, when the caller holds it."""
        sampler = ViewPairSampler(
            kb, encoder_set, self.config.n_negatives, self.config.seed, corpus
        )
        modalities = list(encoder_set.modalities)
        count = len(modalities)
        weights = np.ones(count)
        velocity = np.zeros(count)
        loss_curve: List[float] = []

        for batch in sampler.sample_many(self.config.batch_size, range(self.config.steps)):
            loss, gradient = self._loss_and_gradient(weights, batch, modalities)
            velocity = self.config.momentum * velocity - self.config.learning_rate * gradient
            weights = project_to_simplex(weights + velocity, total=float(count))
            loss_curve.append(loss)

        learned = {m: float(w) for m, w in zip(modalities, weights)}
        return WeightLearningReport(weights=learned, loss_curve=loss_curve, steps=self.config.steps)
