"""Tests for index save/load and incremental insertion."""

import json

import numpy as np
import pytest

from repro.data import Modality
from repro.distance import MultiVectorSchema, SingleVectorKernel, WeightedMultiVectorKernel
from repro.errors import IndexError_
from repro.index import (
    FlatIndex,
    FrozenGraphIndex,
    HnswIndex,
    HnswParams,
    MustGraphIndex,
    MustGraphParams,
    NsgIndex,
    NsgParams,
    StarlingIndex,
    StarlingParams,
    VamanaIndex,
    VamanaParams,
    load_index,
    save_index,
)
from repro.index.vamana import VamanaParams as InnerParams
from tests.index.test_add_seam import adjacency_digest

FAST_VAMANA = VamanaParams(max_degree=8, candidate_pool=16, build_budget=24)


@pytest.fixture(scope="module")
def built_vamana(corpus, kernel_factory):
    index = VamanaIndex(FAST_VAMANA)
    index.build(corpus, kernel_factory())
    return index


class TestPersistence:
    def test_roundtrip_search_identical(self, built_vamana, queries, tmp_path_factory):
        directory = tmp_path_factory.mktemp("idx")
        save_index(built_vamana, directory)
        loaded = load_index(directory)
        for query in queries[:5]:
            original = built_vamana.search(query, k=5, budget=32)
            restored = loaded.search(query, k=5, budget=32)
            assert original.ids == restored.ids

    def test_loaded_index_takes_the_built_index_path(
        self, built_vamana, queries, tmp_path_factory
    ):
        """A restored index answers batches through the very
        ``search_batch`` the index it was saved from uses: same rows, same
        keyword surface, same override-kernel check."""
        from repro.errors import SearchError
        from repro.index.pipeline_builder import PipelineGraphIndex

        loaded = load_index(save_index(built_vamana, tmp_path_factory.mktemp("idx")))
        assert type(loaded).search_batch is PipelineGraphIndex.search_batch
        admit = [None, lambda i: i % 2 == 0] * 5
        schema = MultiVectorSchema({Modality.TEXT: 16, Modality.IMAGE: 16})
        pruning = WeightedMultiVectorKernel(schema, prune=True)
        for kwargs in ({}, {"admit": admit}, {"kernel": pruning}):
            original = built_vamana.search_batch(queries, k=5, budget=32, **kwargs)
            restored = loaded.search_batch(queries, k=5, budget=32, **kwargs)
            assert len(restored) == len(queries)
            for left, right in zip(original, restored):
                assert left.ids == right.ids
                assert left.distances == right.distances
                assert left.stats == right.stats
        with pytest.raises(SearchError, match="override kernel dim 8"):
            loaded.search(queries[0], k=5, kernel=SingleVectorKernel(8))

    def test_kernel_restored(self, built_vamana, tmp_path_factory):
        directory = tmp_path_factory.mktemp("idx")
        save_index(built_vamana, directory)
        loaded = load_index(directory)
        assert loaded.kernel.dim == built_vamana.kernel.dim

    def test_multivector_kernel_roundtrip(self, tmp_path_factory):
        schema = MultiVectorSchema({Modality.TEXT: 16, Modality.IMAGE: 16})
        kernel = WeightedMultiVectorKernel(schema, [1.4, 0.6])
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((120, 32))
        index = VamanaIndex(FAST_VAMANA)
        index.build(matrix, kernel)
        directory = tmp_path_factory.mktemp("idx")
        save_index(index, directory)
        loaded = load_index(directory)
        assert isinstance(loaded.kernel, WeightedMultiVectorKernel)
        np.testing.assert_allclose(loaded.kernel.weights, [1.4, 0.6])
        query = matrix[7]
        assert loaded.search(query, k=1, budget=16).ids[0] == 7

    def test_hnsw_full_hierarchy_roundtrip(self, corpus, kernel_factory, queries, tmp_path_factory):
        index = HnswIndex(HnswParams(m=6, ef_construction=24))
        index.build(corpus[:150], kernel_factory())
        directory = tmp_path_factory.mktemp("idx")
        save_index(index, directory)
        loaded = load_index(directory)
        assert isinstance(loaded, HnswIndex)
        assert loaded.size == 150
        # Identical layer structure implies identical searches.
        for query in queries[:5]:
            assert (
                loaded.search(query, k=5, budget=32).ids
                == index.search(query, k=5, budget=32).ids
            )

    def test_restored_hnsw_can_grow(self, corpus, kernel_factory, tmp_path_factory):
        index = HnswIndex(HnswParams(m=6, ef_construction=24))
        index.build(corpus[:100], kernel_factory())
        directory = tmp_path_factory.mktemp("idx")
        save_index(index, directory)
        loaded = load_index(directory)
        rng = np.random.default_rng(9)
        vector = rng.standard_normal(32)
        vector /= np.linalg.norm(vector)
        new_id = loaded.add(vector)
        assert loaded.search(vector, k=1, budget=32).ids[0] == new_id

    def test_every_layer_is_written_once(self, corpus, kernel_factory, tmp_path):
        """Layer 0 is the CSR arrays; ``index.json`` keeps only the sparse
        layers above it (it used to repeat layer 0 as indented JSON)."""
        index = HnswIndex(HnswParams(m=6, ef_construction=24))
        index.build(corpus, kernel_factory())
        doc = json.loads((save_index(index, tmp_path) / "index.json").read_text())
        assert doc["format"] == 2 and "layers" not in doc["hnsw"]
        upper = doc["hnsw"]["upper_layers"]
        assert [len(layer) for layer in upper] == [len(l) for l in index._layers[1:]]
        assert doc["entry_points"] == [index._entry]
        with np.load(tmp_path / "index.npz") as arrays:
            assert arrays["offsets"].size == index.size + 1
            assert arrays["targets"].size == index.base_graph().edge_count
        loaded = load_index(tmp_path)
        assert loaded._layers == index._layers
        assert (loaded._entry, loaded._max_level) == (index._entry, index._max_level)
        loaded.check_invariants()

    @pytest.mark.parametrize("retired", [{"chunk_size": 0}, {"prune": True}], ids=["single", "multivector"])
    def test_a_kernel_doc_with_retired_keys_still_loads(
        self, built_vamana, queries, tmp_path, retired
    ):
        """Kernel docs once held ``chunk_size`` (single-vector) and ``prune``
        (multi-vector); ``read_fields`` ignores keys it does not declare, so
        such an ``index.json`` loads and searches to the saved index's ids."""
        index = built_vamana
        if "prune" in retired:
            schema = MultiVectorSchema({Modality.TEXT: 16, Modality.IMAGE: 16})
            index = VamanaIndex(FAST_VAMANA)
            index.build(built_vamana.vectors, WeightedMultiVectorKernel(schema, [1.4, 0.6]))
        meta_path = save_index(index, tmp_path) / "index.json"
        doc = json.loads(meta_path.read_text())
        assert not retired.keys() & doc["kernel"].keys()
        doc["kernel"].update(retired)
        meta_path.write_text(json.dumps(doc))
        loaded = load_index(tmp_path)
        assert type(loaded.kernel) is type(index.kernel) and not loaded.kernel.prune
        for query in queries:
            assert loaded.search(query, k=5, budget=32).ids == index.search(query, k=5, budget=32).ids

    @pytest.mark.parametrize("stale", ["unnumbered", 1, 3])
    def test_another_format_is_refused_whole(self, built_vamana, tmp_path, stale):
        """A directory written before the format was numbered (or by a later
        one) is refused, not half-loaded."""
        meta_path = save_index(built_vamana, tmp_path) / "index.json"
        doc = json.loads(meta_path.read_text())
        if stale == "unnumbered":
            del doc["format"]
        else:
            doc["format"] = stale
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(IndexError_, match="format"):
            load_index(tmp_path)

    def test_load_missing_raises(self, tmp_path_factory):
        with pytest.raises(IndexError_, match="no saved index"):
            load_index(tmp_path_factory.mktemp("empty"))

    def test_frozen_cannot_build(self, built_vamana, tmp_path_factory):
        directory = tmp_path_factory.mktemp("idx")
        save_index(built_vamana, directory)
        loaded = load_index(directory)
        with pytest.raises(IndexError_):
            loaded.build(np.zeros((2, 32)), SingleVectorKernel(32))


GROWN_AFTER_RELOAD = {
    "vamana": lambda: VamanaIndex(FAST_VAMANA),
    "nav-must": lambda: MustGraphIndex(
        MustGraphParams(max_degree=8, candidate_pool=16, build_budget=24)
    ),
    "nsg": lambda: NsgIndex(NsgParams(max_degree=8, knn=16)),
    "hnsw": lambda: HnswIndex(HnswParams(m=6, ef_construction=24)),
}


@pytest.mark.parametrize("name", sorted(GROWN_AFTER_RELOAD))
def test_reloaded_index_grows_like_the_original(
    name, corpus, queries, kernel_factory, tmp_path
):
    """The values ``add`` inserts with travel with the saved index: after
    the same 60 inserts original and copy hold the same graph.  A restored
    Vamana / nav-must used to fall back to 1.2 / 32 / 48."""
    original = GROWN_AFTER_RELOAD[name]()
    original.build(corpus[:240], kernel_factory())
    restored = load_index(save_index(original, tmp_path))
    assert adjacency_digest(restored) == adjacency_digest(original)
    for row in corpus[240:]:
        assert restored.add(row) == original.add(row)
    assert adjacency_digest(restored) == adjacency_digest(original)
    for query in queries:
        assert (
            restored.search(query, k=5, budget=32).ids
            == original.search(query, k=5, budget=32).ids
        )


class TestInsertion:
    def test_flat_add(self, kernel_factory):
        index = FlatIndex()
        rng = np.random.default_rng(0)
        index.build(rng.standard_normal((10, 32)), kernel_factory())
        new_vector = rng.standard_normal(32)
        new_id = index.add(new_vector)
        assert new_id == 10
        assert index.search(new_vector, k=1).ids == [10]

    def test_hnsw_add_findable(self, corpus, kernel_factory):
        index = HnswIndex(HnswParams(m=6, ef_construction=24))
        index.build(corpus[:100], kernel_factory())
        rng = np.random.default_rng(5)
        for expected_id in range(100, 110):
            vector = rng.standard_normal(32)
            vector /= np.linalg.norm(vector)
            assert index.add(vector) == expected_id
            assert index.search(vector, k=1, budget=32).ids[0] == expected_id

    def test_pipeline_add_findable(self, built_vamana, corpus):
        rng = np.random.default_rng(6)
        before = built_vamana.size
        vector = rng.standard_normal(32)
        vector /= np.linalg.norm(vector)
        new_id = built_vamana.add(vector)
        assert new_id == before
        assert built_vamana.search(vector, k=1, budget=48).ids[0] == new_id
        # graph invariants survive insertion
        graph = built_vamana.graph
        assert len(graph.neighbors(new_id)) <= graph.max_degree
        assert new_id in graph.reachable_from(graph.entry_points)

    def test_starling_add_assigns_block(self, corpus, kernel_factory):
        index = StarlingIndex(
            StarlingParams(block_size=8, cache_blocks=4, inner=FAST_VAMANA)
        )
        index.build(corpus[:100], kernel_factory())
        blocks_before = index.device.n_blocks
        rng = np.random.default_rng(7)
        new_id = index.add(rng.standard_normal(32))
        assert index.device.block_of(new_id) == blocks_before

    def test_frozen_add(self, built_vamana, tmp_path_factory):
        directory = tmp_path_factory.mktemp("idx")
        save_index(built_vamana, directory)
        loaded = load_index(directory)
        rng = np.random.default_rng(8)
        vector = rng.standard_normal(32)
        vector /= np.linalg.norm(vector)
        new_id = loaded.add(vector)
        assert loaded.search(vector, k=1, budget=48).ids[0] == new_id
