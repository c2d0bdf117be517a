"""Regression tests for amortized ingestion, on every index that grows.

``add`` used to ``np.vstack`` the whole matrix on every insert — O(n²)
total copying for a stream of n inserts — everywhere but HNSW.  Rows now
live in one capacity-doubling buffer owned by ``VectorIndex``; these tests
pin the amortized behaviour for each index, that search still reads the
right rows through the view, and that the caller's matrix is left alone.
"""

import math

import numpy as np
import pytest

from repro.errors import GraphConstructionError, SearchError
from repro.index import (
    FlatIndex,
    IvfIndex,
    IvfParams,
    MustGraphIndex,
    MustGraphParams,
    NsgIndex,
    NsgParams,
    StarlingIndex,
    StarlingParams,
    VamanaIndex,
    VamanaParams,
)
from repro.index.hnsw import HnswIndex, HnswParams
from repro.utils import derive_rng

FAST = dict(max_degree=8, candidate_pool=16, build_budget=24)

# name -> (factory, what a wrong-dimension vector raises)
GROWING = {
    "flat": (FlatIndex, SearchError),
    "ivf": (lambda: IvfIndex(IvfParams(n_lists=8)), GraphConstructionError),
    "hnsw": (
        lambda: HnswIndex(HnswParams(m=6, ef_construction=24)),
        GraphConstructionError,
    ),
    "nsg": (lambda: NsgIndex(NsgParams(max_degree=8, knn=16)), GraphConstructionError),
    "vamana": (lambda: VamanaIndex(VamanaParams(**FAST)), GraphConstructionError),
    "nav-must": (
        lambda: MustGraphIndex(MustGraphParams(**FAST)),
        GraphConstructionError,
    ),
    "starling": (
        lambda: StarlingIndex(StarlingParams(inner=VamanaParams(**FAST))),
        GraphConstructionError,
    ),
}


@pytest.fixture(params=sorted(GROWING))
def make_index(request):
    return GROWING[request.param][0]


def _built_index(make_index, corpus, kernel_factory, size=64):
    index = make_index()
    index.build(corpus[:size], kernel_factory())
    return index


def _row_buffer(index):
    """The index that owns the rows: Starling's inner graph, else itself."""
    return getattr(index, "_inner", index)


class TestGrowthBuffer:
    def test_buffer_grows_logarithmically(self, make_index, corpus, kernel_factory):
        index = _built_index(make_index, corpus, kernel_factory, size=64)
        added = 200
        for row in corpus[64 : 64 + added]:
            index.add(row)
        # Doubling from 64 to >=264 needs ceil(log2(264/64)) = 3 grows; a
        # vstack-per-add implementation would reallocate `added` times.
        owner = _row_buffer(index)
        assert owner._buffer_grows <= math.ceil(math.log2((64 + added) / 64)) + 1
        assert owner._buffer.shape[0] >= 64 + added

    def test_vectors_view_tracks_inserts(self, make_index, corpus, kernel_factory):
        index = _built_index(make_index, corpus, kernel_factory, size=64)
        for row in corpus[64:100]:
            index.add(row)
        assert index.vectors.shape[0] == 100
        np.testing.assert_allclose(index.vectors[:64], corpus[:64])
        np.testing.assert_allclose(index.vectors[64:100], corpus[64:100])

    def test_built_matrix_is_never_written(self, make_index, corpus, kernel_factory):
        """The first append copies: a buffer with spare rows handed to
        ``build`` as a view keeps every one of them."""
        backing = np.vstack([corpus[:64], np.full((136, 32), np.nan)])
        snapshot = backing.copy()
        index = make_index()
        index.build(backing[:64], kernel_factory())
        for row in corpus[64:164]:
            index.add(row)
        assert backing.tobytes() == snapshot.tobytes()

    @pytest.mark.parametrize("name", sorted(GROWING))
    def test_wrong_dimension_is_rejected(self, name, corpus, kernel_factory):
        factory, error = GROWING[name]
        index = _built_index(factory, corpus, kernel_factory, size=64)
        with pytest.raises(error, match="vector dim 8 != kernel dim 32"):
            index.add(np.zeros(8))
        assert index.size == 64

    def test_matches_vstack_semantics(self, make_index, corpus, kernel_factory):
        """Same ids, rows and results as rebuilding from scratch."""
        grown = _built_index(make_index, corpus, kernel_factory, size=64)
        for row in corpus[64:128]:
            grown.add(row)
        rng = derive_rng(0, "hnsw-growth-query")
        query = rng.standard_normal(32)
        query /= np.linalg.norm(query)
        reference = np.vstack([corpus[:64], corpus[64:128]])
        np.testing.assert_allclose(grown.vectors, reference)
        result = grown.search(query, k=5, budget=64)
        assert len(result.ids) == 5
        assert all(0 <= node < 128 for node in result.ids)

    def test_added_vectors_are_searchable(self, corpus, kernel_factory):
        index = _built_index(GROWING["hnsw"][0], corpus, kernel_factory, size=64)
        ids = [index.add(row) for row in corpus[64:120]]
        assert ids == list(range(64, 120))
        for node in (70, 100, 119):
            result = index.search(corpus[node], k=1, budget=48)
            assert result.ids[0] == node

    def test_interleaved_add_and_search(self, corpus, kernel_factory):
        index = _built_index(GROWING["hnsw"][0], corpus, kernel_factory, size=64)
        for offset, row in enumerate(corpus[64:96]):
            node = index.add(row)
            result = index.search(row, k=1, budget=48)
            assert result.ids[0] == node
            assert index.vectors.shape[0] == 65 + offset
