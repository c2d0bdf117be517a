"""Every encoder's floats, pinned by sha256.

``Encoder.encode`` over corpus items, re-rendered views and query texts
(concept-less ones included) for all five encoders, and
``EncoderSet.encode_object`` / ``encode_query_batch`` over the three
registered sets.  The digests were captured at 1b22f84, when every encoder
still had a per-item body (a matrix-vector product) beside its block body:
a query or an ingested object is now a block of one row, and its vector
must be the same floats as before.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data import DatasetSpec, Modality, RawQuery, generate_knowledge_base
from repro.encoders import (
    BagOfTokensEncoder,
    PatchPoolingImageEncoder,
    SequenceTextEncoder,
    SimulatedClipEncoder,
    SpectralAudioEncoder,
    build_encoder_set,
)

ALL = (Modality.TEXT, Modality.IMAGE, Modality.AUDIO)
OBJECTS = 24


@pytest.fixture(scope="module")
def kbs():
    """Text + image (every set) and text + image + audio (unimodal sets)."""
    return {
        "joint": generate_knowledge_base(DatasetSpec("scenes", size=OBJECTS, seed=11)),
        "unimodal": generate_knowledge_base(
            DatasetSpec("movies", size=OBJECTS, seed=13, modalities=ALL)
        ),
    }


def _texts(kb):
    names = kb.space.names
    return [obj.get(Modality.TEXT) for obj in kb] + [
        names[0],
        f"{names[1]} {names[2]}",
        f"a photo of some {names[3]} with {names[4]} please",
        f"{names[5].upper()}   {names[5]} {names[6]}",
        "more like this one",
        "qwerty zxcvb",
        "show me something similar",
    ]


def _views(kb):
    ids = list(range(0, OBJECTS, 3))
    return kb.render_views(ids, [100 + i for i in ids])


def _digest(labelled) -> str:
    """sha256 over ``(label, vector)`` pairs: label, shape, float64 bytes."""
    digest = hashlib.sha256()
    for label, vector in labelled:
        assert vector.dtype == np.float64
        digest.update(f"{label}{vector.shape}".encode())
        digest.update(np.ascontiguousarray(vector).tobytes())
    return digest.hexdigest()


def _contents(kb, modality):
    return [obj.get(modality) for obj in kb] + [view[modality] for view in _views(kb)]


ENCODE = {
    "bag-of-tokens": "0d2f8d85433d70eb36da959da279cc25a7b67d8ca51ccec51f866540a1aafc23",
    "sequence-lstm": "5972d440049b6187feec07bc3abda587a4e6a2997cb110f35c6415d8619b3e2a",
    "sim-clip-text": "624464a679df6e13a2b8aa55749aa33a8740b11c1d6b5f46d870ed8d571ca71a",
    "sim-clip-image": "03a266f37c43006d9f5d31c0e06f11ec6fcd76ef841459fe6f5a0a210c9e455b",
    "patch-resnet": "1c9cf5ad2c6eea31e583cd956badcd1b20abc5c8769ce7c655aa3bcf1694a431",
    "spectral-audio": "0114d5ac4843cd39a0b3d1a6e632f8f6da51263076db4a6eb9b0470a99209345",
}


def _encode_case(kbs, case):
    kb = kbs["unimodal"]
    renderers = kb.render_model
    if case == "bag-of-tokens":
        return BagOfTokensEncoder(kb.space, seed=3), Modality.TEXT, _texts(kb)
    if case == "sequence-lstm":
        return SequenceTextEncoder(kb.space, seed=3), Modality.TEXT, _texts(kb)
    if case == "sim-clip-text":
        return SimulatedClipEncoder(renderers.image, seed=3), Modality.TEXT, _texts(kb)
    if case == "sim-clip-image":
        clip = SimulatedClipEncoder(renderers.image, seed=3)
        return clip, Modality.IMAGE, _contents(kb, Modality.IMAGE)
    if case == "patch-resnet":
        encoder = PatchPoolingImageEncoder(renderers.image, seed=3)
        return encoder, Modality.IMAGE, _contents(kb, Modality.IMAGE)
    encoder = SpectralAudioEncoder(renderers.audio, seed=3)
    return encoder, Modality.AUDIO, _contents(kb, Modality.AUDIO)


@pytest.mark.parametrize("case", sorted(ENCODE))
def test_encode_is_pinned(kbs, case):
    encoder, modality, contents = _encode_case(kbs, case)
    vectors = [encoder.encode(modality, content) for content in contents]
    assert all(vector.shape == (encoder.output_dim,) for vector in vectors)
    assert _digest((modality.value, vector) for vector in vectors) == ENCODE[case]


SETS = {
    "clip-joint": (
        "joint",
        "90423b52941347d2e806dd5edd4223a60cb6fc7daf8be3d0d337a64ae0adafbe",
        "008c7ad476c72c4664f94adc163b291fd915ab822ea2fae30ccedc11dbf7d311",
    ),
    "unimodal-basic": (
        "unimodal",
        "1c5a3b2a917da107a52f052d694d6dbd89b011f2664baae9b39a285a595869cc",
        "d9aa3188c510eb58871c23679d9811cfef9ea8d5b0d20e6164cc0c2219c00556",
    ),
    "unimodal-strong": (
        "unimodal",
        "778bac83e4c4b477e8bf2446c4da07be5e8d85b4e2d36d0dd334e944ba92f472",
        "b76c417f4ba88aeefbe8a45d3372d6d4d55ca19c6da3c28f179bba460eb20771",
    ),
}


def _queries(kb):
    """Text-only queries, then each view as text + image, image alone and
    (where the knowledge base has it) text + audio."""
    queries = [RawQuery.from_text(text) for text in _texts(kb)[OBJECTS:]]
    for view in _views(kb):
        queries.append(RawQuery.from_text_and_image(view[Modality.TEXT], view[Modality.IMAGE]))
        queries.append(RawQuery(content={Modality.IMAGE: view[Modality.IMAGE]}))
        if Modality.AUDIO in view:
            queries.append(
                RawQuery(content={Modality.TEXT: view[Modality.TEXT],
                                  Modality.AUDIO: view[Modality.AUDIO]})
            )
    return queries


def _flatten(vector_maps):
    for vectors in vector_maps:
        for modality, vector in vectors.items():
            yield modality.value, vector


@pytest.mark.parametrize("name", sorted(SETS))
def test_encoder_set_entries_are_pinned(kbs, name):
    kb_name, objects_digest, queries_digest = SETS[name]
    kb = kbs[kb_name]
    encoder_set = build_encoder_set(name, kb, seed=3)
    objects = [encoder_set.encode_object(obj) for obj in kb]
    assert _digest(_flatten(objects)) == objects_digest
    queries = encoder_set.encode_query_batch(_queries(kb))
    assert _digest(_flatten(queries)) == queries_digest
