"""The learner's steps drawn first and their views rendered in one call.

``ViewPairSampler.sample_many`` draws every step's anchors, view seeds and
negatives from the step's own stream, renders all the views at once and
encodes them step by step; ``sample`` is a batch of one step.  Nothing a
step draws or measures may change, and neither may what is learned.
"""

import hashlib

import numpy as np
import pytest

from repro.data import DatasetSpec, Modality, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.utils import derive_rng
from repro.weights import VectorWeightLearner, ViewPairSampler


def _loop_draws(sampler, batch_size, step):
    """The draws as the per-anchor loop made them: a scalar per negative,
    redrawn while it equals the anchor."""
    rng = derive_rng(sampler.seed, "contrastive-batch", step)
    n = len(sampler.kb)
    anchors = rng.integers(0, n, size=batch_size).tolist()
    seeds, negatives = [], []
    for anchor in anchors:
        seeds.append(int(rng.integers(1 << 30)))
        drawn = []
        while len(drawn) < sampler.n_negatives:
            candidate = int(rng.integers(n))
            if candidate != anchor:
                drawn.append(candidate)
        negatives.append(drawn)
    return anchors, seeds, negatives


@pytest.mark.parametrize("size, n_negatives", [(2, 8), (5, 4), (300, 8)])
@pytest.mark.parametrize("step", [0, 3, 59])
def test_draws_match_the_per_anchor_loop(uni_set, size, n_negatives, step):
    # Two objects: half the negative draws hit the anchor and are redrawn.
    kb = generate_knowledge_base(DatasetSpec("scenes", size=size, seed=3))
    sampler = ViewPairSampler(kb, uni_set, n_negatives=n_negatives, seed=4)
    assert sampler._draw(32, step) == _loop_draws(sampler, 32, step)


def test_sample_many_is_sample_per_step(scenes_kb, clip_set):
    sampler = ViewPairSampler(scenes_kb, clip_set, n_negatives=4, seed=2)
    steps = [4, 0, 9, 9, 2]
    for step, batch in zip(steps, sampler.sample_many(8, steps)):
        single = sampler.sample(8, step)
        for modality in single.positive:
            assert np.array_equal(batch.positive[modality], single.positive[modality])
            assert np.array_equal(batch.negative[modality], single.negative[modality])


def test_learned_weights_and_loss_curve_are_bit_identical():
    # mqa_bench's corpus and learner (scenes / 2000 / seed 7, defaults); the
    # hex weights and the loss curve's sha256 were captured at e634851,
    # where every step rendered and drew its own views.
    kb = generate_knowledge_base(DatasetSpec("scenes", size=2000, seed=7))
    report = VectorWeightLearner().fit(kb, build_encoder_set("clip-joint", kb))
    assert report.weights[Modality.TEXT].hex() == "0x1.91aab6c7b7598p-1"
    assert report.weights[Modality.IMAGE].hex() == "0x1.372aa49c24535p+0"
    curve = np.asarray(report.loss_curve, dtype=np.float64).tobytes()
    assert hashlib.sha256(curve).hexdigest() == (
        "a7376d0f518e940bac7065cc1b83a9bc316d2815cb5f205b596cb762a9a5dfdb"
    )
