"""Tests for greedy graph search."""

import numpy as np
import pytest

from repro.data import Modality
from repro.distance import MultiVectorSchema, SingleVectorKernel, WeightedMultiVectorKernel
from repro.errors import SearchError
from repro.index import NavigationGraph, greedy_search


@pytest.fixture(scope="module")
def ring_graph():
    """A ring over 50 vertices: always connected, forces multi-hop walks."""
    graph = NavigationGraph(50, max_degree=2)
    for vertex in range(50):
        graph.set_neighbors(vertex, [(vertex + 1) % 50, (vertex - 1) % 50])
    return graph


@pytest.fixture(scope="module")
def line_vectors():
    """Vertices embedded along a line so the ring graph is navigable."""
    return np.linspace(0.0, 1.0, 50)[:, None] * np.ones((50, 4))


class TestGreedySearch:
    def test_finds_nearest_on_ring(self, ring_graph, line_vectors):
        kernel = SingleVectorKernel(4)
        query = line_vectors[33] + 0.001
        result = greedy_search(
            ring_graph, line_vectors, kernel, query, k=1, budget=8, entry_points=[0]
        )
        assert result.ids[0] == 33
        assert result.stats.hops > 5  # had to walk the ring

    def test_results_sorted(self, ring_graph, line_vectors):
        kernel = SingleVectorKernel(4)
        result = greedy_search(
            ring_graph, line_vectors, kernel, line_vectors[10], k=5, budget=16
        )
        assert result.distances == sorted(result.distances)

    def test_budget_clamped_to_k(self, ring_graph, line_vectors):
        kernel = SingleVectorKernel(4)
        result = greedy_search(
            ring_graph, line_vectors, kernel, line_vectors[5], k=10, budget=1
        )
        assert len(result) == 10

    def test_pruned_and_batch_agree(self, ring_graph, line_vectors):
        kernel = SingleVectorKernel(4)
        query = line_vectors[20] + 0.002
        batch = greedy_search(
            ring_graph, line_vectors, kernel, query, k=5, budget=16
        )
        schema = MultiVectorSchema({Modality.TEXT: 2, Modality.IMAGE: 2})
        pruned = greedy_search(
            ring_graph, line_vectors, WeightedMultiVectorKernel(schema, prune=True),
            query, k=5, budget=16,
        )
        assert batch.ids == pruned.ids

    def test_multivector_pruned_matches_batch(self):
        schema = MultiVectorSchema({Modality.TEXT: 4, Modality.IMAGE: 4})
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((80, 8))
        graph = NavigationGraph(80, max_degree=6)
        for vertex in range(80):
            graph.set_neighbors(
                vertex, rng.choice(80, size=6, replace=False).tolist()
            )
        graph.connect_unreachable()
        query = rng.standard_normal(8)
        batch_kernel = WeightedMultiVectorKernel(schema, [1.3, 0.7])
        pruned_kernel = WeightedMultiVectorKernel(schema, [1.3, 0.7], prune=True)
        batch = greedy_search(graph, vectors, batch_kernel, query, k=5, budget=24)
        pruned = greedy_search(graph, vectors, pruned_kernel, query, k=5, budget=24)
        assert batch.ids == pruned.ids
        assert pruned_kernel.stats.pruned > 0

    def test_visit_hook_sees_all_touched_vertices(self, ring_graph, line_vectors):
        kernel = SingleVectorKernel(4)
        touched = []
        result = greedy_search(
            ring_graph,
            line_vectors,
            kernel,
            line_vectors[25],
            k=3,
            budget=8,
            entry_points=[0],
            visit_hook=touched.append,
        )
        assert set(result.ids) <= set(touched)
        assert len(touched) == len(set(touched))  # each vertex charged once

    def test_bad_k_rejected(self, ring_graph, line_vectors):
        with pytest.raises(SearchError):
            greedy_search(ring_graph, line_vectors, SingleVectorKernel(4), line_vectors[0], k=0)

    def test_empty_entry_points_rejected(self, ring_graph, line_vectors):
        with pytest.raises(SearchError):
            greedy_search(
                ring_graph, line_vectors, SingleVectorKernel(4), line_vectors[0],
                k=1, entry_points=[],
            )

    def test_duplicate_entry_points_handled(self, ring_graph, line_vectors):
        kernel = SingleVectorKernel(4)
        result = greedy_search(
            ring_graph, line_vectors, kernel, line_vectors[7], k=3, budget=8,
            entry_points=[0, 0, 1],
        )
        assert len(result) == 3
