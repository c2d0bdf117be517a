"""The learner's views go a group of steps at a time.

``ViewPairSampler.sample_many`` yields its batches step by step, drawing
and rendering as many steps together as fit the set-up scratch budget
(8 steps of 32 on text + 256-pixel images), so the views held at once do
not grow with the run.  Checked here: a group's size changes no batch, the
groups are the budget's, and the traced-allocation peak does not grow from
60 to 120 steps (rendering every step's views first grew it ≈ 6.5 → 13 MB).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.weights.sampler as sampler_module
from repro.data import DatasetSpec, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.utils import SCRATCH_BYTES
from repro.weights import ViewPairSampler


@pytest.fixture(scope="module")
def sampler():
    kb = generate_knowledge_base(DatasetSpec("scenes", size=500, seed=7))
    return ViewPairSampler(kb, build_encoder_set("clip-joint", kb), n_negatives=8, seed=0)


def _render_calls(sampler, monkeypatch):
    calls = []
    real = sampler.kb.render_views

    def spy(object_ids, view_seeds):
        calls.append(len(object_ids))
        return real(object_ids, view_seeds)

    monkeypatch.setattr(sampler.kb, "render_views", spy)
    return calls


def test_the_budget_sets_the_group(sampler, monkeypatch):
    calls = _render_calls(sampler, monkeypatch)
    batches = list(sampler.sample_many(32, range(20)))
    assert len(batches) == 20
    # A view is a 256-pixel image (2 048 bytes) and a text (64 latents,
    # 512 bytes): 640 KiB holds 8 steps of 32.
    assert SCRATCH_BYTES // (32 * (2048 + 512)) == 8
    assert calls == [8 * 32, 8 * 32, 4 * 32]


@pytest.mark.parametrize("budget", [1, 3 * 32 * 2560, 1 << 30], ids=["one", "three", "all"])
def test_a_group_changes_no_batch(sampler, monkeypatch, budget):
    steps = [4, 0, 9, 9, 2, 17, 5]
    reference = [sampler.sample(16, step) for step in steps]
    monkeypatch.setattr(sampler_module, "SCRATCH_BYTES", budget)
    calls = _render_calls(sampler, monkeypatch)
    for batch, single in zip(sampler.sample_many(16, steps), reference, strict=True):
        for modality in single.positive:
            assert np.array_equal(batch.positive[modality], single.positive[modality])
            assert np.array_equal(batch.negative[modality], single.negative[modality])
    group = max(1, budget // (16 * 2560))
    assert calls == [16 * len(steps[i:i + group]) for i in range(0, len(steps), group)]


def _traced_peak(sampler, steps):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in sampler.sample_many(32, range(steps)):
            pass
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sample_many_peak_does_not_grow_with_the_steps(sampler):
    short, long = _traced_peak(sampler, 60), _traced_peak(sampler, 120)
    assert long <= short + 64 * 1024, (short, long)
    assert long <= 4 * SCRATCH_BYTES, long
