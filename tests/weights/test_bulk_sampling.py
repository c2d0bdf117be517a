"""The learner's steps drawn first and their views rendered in one call.

``ViewPairSampler.sample_many`` draws every step's anchors, view seeds and
negatives from the step's own key, renders a group's views at once and
encodes them step by step; ``sample`` is a batch of one step.  Nothing a
step draws or measures may depend on the steps beside it.
"""

import hashlib

import numpy as np
import pytest

from repro.data import DatasetSpec, Modality, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.utils.rng import words
from repro.weights import VectorWeightLearner, ViewPairSampler


def _loop_draws(sampler, batch_size, step):
    """The draws read off the step's row one word at a time: the anchors,
    then per anchor a view seed and its negatives, each negative picked from
    the list of the other objects."""
    n, k = len(sampler.kb), sampler.n_negatives
    width = batch_size * (2 + k)
    row = iter([int(w) for w in words(sampler.seed, ("contrastive-batch",), [step], width)[0]])

    def draw(bound):
        return ((next(row) >> 32) * bound) >> 32

    anchors = [draw(n) for _ in range(batch_size)]
    seeds, negatives = [], []
    for anchor in anchors:
        seeds.append(draw(1 << 30))
        others = [i for i in range(n) if i != anchor]
        negatives.append([others[draw(n - 1)] for _ in range(k)])
    return anchors, seeds, negatives


@pytest.mark.parametrize("size, n_negatives", [(2, 8), (5, 4), (300, 8)])
@pytest.mark.parametrize("step", [0, 3, 59])
def test_draws_match_the_per_anchor_loop(uni_set, size, n_negatives, step):
    # Two objects: every negative is the other one.
    kb = generate_knowledge_base(DatasetSpec("scenes", size=size, seed=3))
    sampler = ViewPairSampler(kb, uni_set, n_negatives=n_negatives, seed=4)
    anchors, seeds, negatives = sampler._draws(32, [step])
    drawn = (anchors[0].tolist(), seeds[0].tolist(), negatives[0].tolist())
    assert drawn == _loop_draws(sampler, 32, step)


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
    # where every step rendered and drew its own views, and retaken when
    # set-up's keyed draws moved to repro.utils.rng.words.  The loss curve
    # goes through np.exp / np.log, whose bytes depend on the SIMD dispatch
    # level; the weights do not.
    kb = generate_knowledge_base(DatasetSpec("scenes", size=2000, seed=7))
    report = VectorWeightLearner().fit(kb, build_encoder_set("clip-joint", kb))
    assert report.weights[Modality.TEXT].hex() == "0x1.764c304c5683ep-1"
    assert report.weights[Modality.IMAGE].hex() == "0x1.44d9e7d9d4be1p+0"
    curve = np.asarray(report.loss_curve, dtype=np.float64).tobytes()
    assert hashlib.sha256(curve).hexdigest() == (
        "4f7b9acd061c3cb1de5de0ed873a6520dccfba661cb5dbf4f84d12034181f832"
    )
