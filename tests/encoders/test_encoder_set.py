"""Tests for EncoderSet."""

import numpy as np
import pytest

from repro.data import Modality, RawQuery
from repro.encoders import EncoderSet, SequenceTextEncoder
from repro.errors import EncodingError


class TestAssignment:
    def test_empty_rejected(self):
        with pytest.raises(EncodingError):
            EncoderSet({})

    def test_wrong_modality_assignment_rejected(self, scenes_kb):
        text_encoder = SequenceTextEncoder(scenes_kb.space)
        with pytest.raises(EncodingError, match="does not support"):
            EncoderSet({Modality.IMAGE: text_encoder})

    def test_is_joint(self, clip_set, uni_set):
        assert clip_set.is_joint
        assert not uni_set.is_joint

    def test_dims(self, uni_set):
        dims = uni_set.dims()
        assert dims[Modality.TEXT] == 48
        assert dims[Modality.IMAGE] == 96

    def test_encoder_for_unknown_raises(self, uni_set):
        with pytest.raises(EncodingError):
            uni_set.encoder_for(Modality.AUDIO)


class TestObjectEncoding:
    def test_encode_object_covers_all_modalities(self, uni_set, scenes_kb):
        vectors = uni_set.encode_object(scenes_kb.get(0))
        assert set(vectors) == {Modality.TEXT, Modality.IMAGE}

    def test_encode_corpus_shapes(self, uni_set, scenes_kb):
        matrices = uni_set.encode_corpus(list(scenes_kb)[:10])
        assert matrices[Modality.TEXT].shape == (10, 48)
        assert matrices[Modality.IMAGE].shape == (10, 96)

    def test_encode_corpus_is_one_matrix_in_dims_order(self, uni_set, scenes_kb):
        objects = list(scenes_kb)[:10]
        corpus = uni_set.encode_corpus(objects)
        assert corpus.matrix.shape == (10, 144) and list(corpus) == list(uni_set.dims())
        np.testing.assert_array_equal(corpus.matrix[:, :48], corpus[Modality.TEXT])
        assert np.shares_memory(corpus.matrix, corpus[Modality.IMAGE])
        for modality in corpus:
            encoder = uni_set.encoder_for(modality)
            alone = encoder.encode_batch(modality, [obj.get(modality) for obj in objects])
            np.testing.assert_array_equal(corpus[modality], alone)
        gathered = corpus.take([3, 1])
        np.testing.assert_array_equal(gathered.matrix, corpus.matrix[[3, 1]])
        np.testing.assert_array_equal(gathered[Modality.IMAGE], corpus[Modality.IMAGE][[3, 1]])
        with pytest.raises(EncodingError, match="out is"):
            encoder.encode_batch(modality, [objects[0].get(modality)], out=np.empty((2, 96)))

    def test_encode_corpus_empty_rejected(self, uni_set):
        with pytest.raises(EncodingError):
            uni_set.encode_corpus([])


class TestQueryEncoding:
    def test_partial_query_partial_vectors(self, uni_set):
        vectors = uni_set.encode_query(RawQuery.from_text("foggy clouds"))
        assert set(vectors) == {Modality.TEXT}

    def test_query_without_known_modalities_rejected(self, uni_set):
        query = RawQuery(content={Modality.AUDIO: np.zeros(128)})
        with pytest.raises(EncodingError, match="none of the configured"):
            uni_set.encode_query(query)

    def test_full_encoding_joint_fills_missing(self, clip_set):
        vectors = clip_set.encode_query_full(RawQuery.from_text("foggy clouds"))
        assert set(vectors) == {Modality.TEXT, Modality.IMAGE}
        np.testing.assert_array_equal(
            vectors[Modality.TEXT], vectors[Modality.IMAGE]
        )

    def test_full_encoding_unimodal_does_not_fill(self, uni_set):
        vectors = uni_set.encode_query_full(RawQuery.from_text("foggy clouds"))
        assert set(vectors) == {Modality.TEXT}

    def test_describe_mentions_kind(self, clip_set, uni_set):
        assert "joint" in clip_set.describe()
        assert "unimodal" in uni_set.describe()
