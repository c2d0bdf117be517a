"""A set-up encodes the knowledge base once, and every framework — and
every shard replica — indexes rows of that one encoded corpus: MUST builds
over its matrix and MR over its per-modality views where they lie, and the
replicas of a shard share one gather of its rows."""

import tracemalloc

import numpy as np
import pytest

from repro.core import MQASystem
from repro.core.indexing import IndexConstruction
from repro.data import Modality
from repro.distance import WeightedMultiVectorKernel
from repro.encoders import EncoderSet
from repro.index import FlatIndex, HnswIndex
from repro.retrieval.base import RetrievalFramework

from tests.core.conftest import fast_config

FRAMEWORKS = ("must", "mr", "je")
DEPLOYMENTS = ((None, 1), (2, 1), (2, 2))


@pytest.fixture
def encode_calls(monkeypatch):
    """Entries into ``EncoderSet.encode_object``, and the object count of
    each ``encode_corpus`` call (``encode_object`` is a corpus of one)."""
    calls = {"encode_corpus": [], "encode_object": 0}
    encode_corpus, encode_object = EncoderSet.encode_corpus, EncoderSet.encode_object

    def counted_corpus(self, objects):
        calls["encode_corpus"].append(len(objects))
        return encode_corpus(self, objects)

    def counted_object(self, obj):
        calls["encode_object"] += 1
        return encode_object(self, obj)

    monkeypatch.setattr(EncoderSet, "encode_corpus", counted_corpus)
    monkeypatch.setattr(EncoderSet, "encode_object", counted_object)
    return calls


def _indexed_rows(framework) -> np.ndarray:
    """The rows a bare framework indexed, modalities side by side."""
    if framework.name == "mr":
        return np.hstack([index.vectors for index in framework._indexes.values()])
    return framework._index.vectors


def _build(framework, shards, replicas):
    return _build_index(framework, "flat", shards=shards, replicas=replicas)


def _build_index(framework, index, **overrides):
    return MQASystem.from_config(fast_config(framework=framework, index=index, **overrides))


@pytest.mark.parametrize("shards, replicas", DEPLOYMENTS)
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_one_encode_per_setup(encode_calls, framework, shards, replicas):
    system = _build(framework, shards, replicas)
    size = len(system.coordinator.kb)
    assert encode_calls == {"encode_corpus": [size], "encode_object": 0}
    # The matrices served the learner and the build; nothing keeps them.
    assert system.coordinator.representation.corpus is None

    # The system is live: an ingested object is encoded on its own and is
    # the nearest thing to its own content.
    new_id = system.ingest(["foggy", "dusk"])
    ingests = encode_calls["encode_object"]
    assert ingests >= 1 and encode_calls["encode_corpus"] == [size] + [1] * ingests
    obj = system.coordinator.kb.get(new_id)
    answer = system.ask(obj.get(Modality.TEXT), image=obj.get(Modality.IMAGE))
    assert answer.items[0].object_id == new_id


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_shard_rows_are_the_unsharded_rows(framework):
    whole = _indexed_rows(_build(framework, None, 1).coordinator.execution.framework)
    router = _build(framework, 2, 2).coordinator.execution.framework
    held = 0
    for group in router.groups:
        for replica in group.replicas:
            np.testing.assert_array_equal(
                _indexed_rows(replica.framework), whole[replica.global_ids]
            )
        held += len(group.replicas[0].global_ids)
    assert held == len(whole)


@pytest.fixture
def set_up_reads(monkeypatch):
    """In call order: every ``encode_corpus`` result, the corpus every
    ``setup`` reads (``RetrievalFramework._corpus``; a shard router's own
    read comes first) and the matrix every flat-index build is handed."""
    reads = {"encoded": [], "setups": [], "builds": []}
    encode, resolve, build = EncoderSet.encode_corpus, RetrievalFramework._corpus, FlatIndex.build

    def encode_corpus(self, objects):
        reads["encoded"].append(encode(self, objects))
        return reads["encoded"][-1]

    def corpus(kb, encoder_set, corpus):
        reads["setups"].append(resolve(kb, encoder_set, corpus))
        return reads["setups"][-1]

    def flat_build(self, vectors, kernel):
        reads["builds"].append(vectors)
        build(self, vectors, kernel)

    monkeypatch.setattr(EncoderSet, "encode_corpus", encode_corpus)
    monkeypatch.setattr(RetrievalFramework, "_corpus", staticmethod(corpus))
    monkeypatch.setattr(FlatIndex, "build", flat_build)
    return reads


@pytest.mark.parametrize("shards, replicas", DEPLOYMENTS)
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_builds_share_the_encoded_memory(set_up_reads, framework, shards, replicas):
    """Every replica of a shard reads one gather of the encoded corpus (an
    unsharded framework the encode itself); MUST builds over its matrix and
    MR over its views, so each build shares that memory — JE indexes the
    fused means, a matrix of its own."""
    _build(framework, shards, replicas)
    (encoded,) = set_up_reads["encoded"]
    setups, builds = set_up_reads["setups"], set_up_reads["builds"]
    assert setups[0] is encoded
    if shards is not None:
        setups = setups[1:]
        assert len(setups) == shards * replicas
        for shard in range(shards):
            first, *others = setups[shard * replicas:(shard + 1) * replicas]
            assert all(other is first for other in others)
            assert not np.shares_memory(first.matrix, encoded.matrix)
    per_setup = len(encoded) if framework == "mr" else 1
    assert len(builds) == len(setups) * per_setup
    if framework == "je":
        return
    for i, corpus in enumerate(setups):
        matrices = builds[i * per_setup:(i + 1) * per_setup]
        expected = list(corpus.values()) if framework == "mr" else [corpus.matrix]
        for matrix, rows in zip(matrices, expected):
            assert matrix.shape == rows.shape
            assert np.shares_memory(matrix, rows)
    if replicas > 1:
        for shard in range(shards):
            first = builds[shard * replicas * per_setup]
            second = builds[(shard * replicas + 1) * per_setup]
            assert np.shares_memory(first, second)


def test_index_construction_allocates_no_second_corpus(monkeypatch):
    """Traced from the start of MUST + HNSW index construction, nothing
    corpus-sized is allocated before the build, and when the build's
    embedding exists it is the stage's one live ``n × Σd`` array."""
    seen = {}
    run, build, embed = IndexConstruction.run, HnswIndex.build, WeightedMultiVectorKernel.embed

    def traced_run(self, *args, **kwargs):
        tracemalloc.start()
        try:
            return run(self, *args, **kwargs)
        finally:
            tracemalloc.stop()

    def traced_build(self, vectors, kernel):
        seen["corpus_bytes"] = vectors.nbytes
        seen["peak_before_build"] = tracemalloc.get_traced_memory()[1]
        build(self, vectors, kernel)

    def traced_embed(self, vectors):
        embedded = embed(self, vectors)
        if "at_embedding" not in seen and "corpus_bytes" in seen:
            seen["at_embedding"] = tracemalloc.take_snapshot()
            seen["embedding_bytes"] = embedded.points.nbytes
        return embedded

    monkeypatch.setattr(IndexConstruction, "run", traced_run)
    monkeypatch.setattr(HnswIndex, "build", traced_build)
    monkeypatch.setattr(WeightedMultiVectorKernel, "embed", traced_embed)
    _build_index("must", "hnsw")
    corpus_bytes = seen["corpus_bytes"]
    assert seen["embedding_bytes"] == corpus_bytes
    assert seen["peak_before_build"] < corpus_bytes // 2, seen
    sized = [t.size for t in seen["at_embedding"].traces if t.size >= corpus_bytes]
    assert sized == [corpus_bytes], sized
