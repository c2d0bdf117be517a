"""Tests for the encoder-set registry."""

import pytest

from repro.data import DatasetSpec, Modality, generate_knowledge_base
from repro.encoders import (
    EncoderSet,
    available_encoder_sets,
    build_encoder_set,
    register_encoder_set,
)
from repro.errors import ConfigurationError


class TestRegistry:
    def test_builtins_registered(self):
        names = available_encoder_sets()
        assert {"clip-joint", "unimodal-basic", "unimodal-strong"} <= set(names)

    def test_unknown_name_lists_available(self, scenes_kb):
        with pytest.raises(ConfigurationError, match="clip-joint"):
            build_encoder_set("nonexistent", scenes_kb)

    def test_custom_registration(self, scenes_kb, uni_set, registered):
        registered(register_encoder_set, "test-custom", lambda kb, seed: uni_set)
        assert build_encoder_set("test-custom", scenes_kb) is uni_set

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_encoder_set("", lambda kb, seed: None)

    def test_clip_rejects_audio_kb(self, audio_kb):
        with pytest.raises(ConfigurationError, match="audio"):
            build_encoder_set("clip-joint", audio_kb)

    def test_unimodal_handles_audio_kb(self, audio_kb):
        encoder_set = build_encoder_set("unimodal-strong", audio_kb)
        assert Modality.AUDIO in encoder_set.modalities

    def test_seeds_change_projections(self, scenes_kb):
        import numpy as np

        a = build_encoder_set("unimodal-strong", scenes_kb, seed=1)
        b = build_encoder_set("unimodal-strong", scenes_kb, seed=2)
        obj = scenes_kb.get(0)
        va = a.encode_object(obj)[Modality.TEXT]
        vb = b.encode_object(obj)[Modality.TEXT]
        assert not np.allclose(va, vb)
