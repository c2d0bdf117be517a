"""``encode_batch`` in blocks of the set-up scratch budget.

Every encoder decodes a block of rows at a time into one preallocated
output (``repro.utils.row_blocks`` over its ``row_bytes``), so encoding a
corpus holds one block of stacked content beside the result, never the
whole corpus's.  Checked here:

* **parity** — the blocked form is byte-equal to the one-call form it
  replaced, kept *here* as oracles (the whole corpus stacked, then the same
  GEMMs), at corpus sizes on both sides of the 64-row alignment and at the
  benchmark's 2 000 rows plus one, for the CLIP branches, the patch image
  encoder and the audio encoder — also with a budget small enough that
  every size is many blocks;
* **bound** — the traced-allocation peak of ``encode_corpus`` beyond the
  matrices it returns does not grow from 2 000 to 8 000 objects (the
  one-call form's grew with the corpus: ≈ 6.3 → 24.8 MB).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import DatasetSpec, Modality, generate_knowledge_base
from repro.encoders import (
    PatchPoolingImageEncoder,
    SimulatedClipEncoder,
    SpectralAudioEncoder,
    build_encoder_set,
)
from repro.utils import SCRATCH_BYTES, l2_normalize, scratch

SIZES = [1, 63, 64, 65, 2000, 2001]


@pytest.fixture(scope="module")
def corpus():
    """2 001 objects carrying all three modalities."""
    spec = DatasetSpec(
        "scenes", size=max(SIZES), seed=7,
        modalities=(Modality.TEXT, Modality.IMAGE, Modality.AUDIO),
    )
    return generate_knowledge_base(spec)


def _stacked(contents):
    return np.stack([np.asarray(c, dtype=np.float64).reshape(-1) for c in contents])


def _clip_one_call(clip, modality, contents):
    """CLIP's ``encode_batch`` before blocking: every row's latent (the
    per-item text branch, which the grouped gather equals to the bit, or one
    decode GEMM over every image), then one projection GEMM."""
    if modality is Modality.TEXT:
        latents = np.stack([clip._encode_text(content) for content in contents])
    else:
        latents = clip.image_renderer.decode_batch(_stacked(contents))
    return l2_normalize(latents @ clip._projection.T + clip.modality_gap * clip._gap[modality])


def _patch_one_call(encoder, contents):
    pooled = _stacked(contents) @ encoder._pool.T
    return l2_normalize(l2_normalize(pooled @ encoder._decoder.T) @ encoder._projection.T)


def _audio_one_call(encoder, contents):
    latents = encoder.renderer.decode_batch(_stacked(contents))
    return l2_normalize(latents @ encoder._projection.T)


def _cases(kb):
    clip = SimulatedClipEncoder(kb.render_model.image, seed=1)
    patch = PatchPoolingImageEncoder(kb.render_model.image, seed=1)
    audio = SpectralAudioEncoder(kb.render_model.audio, seed=1)
    return {
        "clip-text": (clip, Modality.TEXT, lambda c: _clip_one_call(clip, Modality.TEXT, c)),
        "clip-image": (clip, Modality.IMAGE, lambda c: _clip_one_call(clip, Modality.IMAGE, c)),
        "patch-image": (patch, Modality.IMAGE, lambda c: _patch_one_call(patch, c)),
        "audio": (audio, Modality.AUDIO, lambda c: _audio_one_call(audio, c)),
    }


CASE_NAMES = ["clip-text", "clip-image", "patch-image", "audio"]


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("size", SIZES)
def test_blocked_encode_is_the_one_call_bytes(corpus, name, size):
    encoder, modality, one_call = _cases(corpus)[name]
    contents = [obj.get(modality) for obj in list(corpus)[:size]]
    blocked = encoder.encode_batch(modality, contents)
    assert blocked.shape == (size, encoder.output_dim)
    assert blocked.tobytes() == one_call(contents).tobytes()


@pytest.mark.parametrize("name", CASE_NAMES)
def test_many_small_blocks_are_the_one_call_bytes(corpus, monkeypatch, name):
    """At a budget of one 64-row block of the widest row, 2 001 rows are
    thirty blocks and a remainder; 65 rows are one block (a remainder under
    64 rows joins the block before it)."""
    encoder, modality, one_call = _cases(corpus)[name]
    monkeypatch.setattr(scratch, "SCRATCH_BYTES", 64 * encoder.row_bytes(modality))
    calls = []
    real = encoder._encode_rows

    def spy(modality, contents):
        calls.append(len(contents))
        return real(modality, contents)

    monkeypatch.setattr(encoder, "_encode_rows", spy)
    objects = list(corpus)
    for size in (65, 127, 128, 2001):
        calls.clear()
        contents = [obj.get(modality) for obj in objects[:size]]
        assert encoder.encode_batch(modality, contents).tobytes() == one_call(contents).tobytes()
        assert sum(calls) == size and min(calls) >= min(size, 64)
    assert calls == [64] * 30 + [81]


def test_empty_and_refused_blocks(corpus):
    encoder, modality, _ = _cases(corpus)["clip-image"]
    assert encoder.encode_batch(modality, []).shape == (0, encoder.output_dim)
    from repro.errors import EncodingError

    with pytest.raises(EncodingError):
        encoder.encode_batch(modality, [np.zeros(7)])


def _peak_beyond_output(encoder_set, objects):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        matrices = encoder_set.encode_corpus(objects)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak - sum(matrix.nbytes for matrix in matrices.values())


def test_encode_corpus_transient_does_not_grow_with_the_corpus():
    kb = generate_knowledge_base(DatasetSpec("scenes", size=8000, seed=7))
    encoder_set = build_encoder_set("clip-joint", kb)
    objects = list(kb)
    small = _peak_beyond_output(encoder_set, objects[:2000])
    large = _peak_beyond_output(encoder_set, objects)
    # 6 000 more objects add a list slot per object and modality (96 KB);
    # the one-call form added ≈ 18.5 MB.
    assert large <= small + 256 * 1024, (small, large)
    assert large <= 4 * SCRATCH_BYTES, large
