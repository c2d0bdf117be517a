"""Index-test fixtures: small corpora and prebuilt indexes shared per module."""

from __future__ import annotations

import heapq
import sys

import numpy as np
import pytest

from repro.distance import SingleVectorKernel, WeightedMultiVectorKernel
from repro.evaluation import exact_knn
from repro.index import FlatIndex


@pytest.fixture(scope="package")
def corpus(unit_vectors):
    """300 unit vectors (subset of the session corpus) in 32 dims."""
    return unit_vectors[:300]


@pytest.fixture(scope="package")
def queries(unit_queries):
    return unit_queries[:10]


@pytest.fixture(scope="package")
def kernel_factory():
    return lambda: SingleVectorKernel(32)


@pytest.fixture(scope="package")
def ground_truth(corpus, queries, kernel_factory):
    """True top-10 ids for each query."""
    return exact_knn(corpus, kernel_factory(), queries, k=10)


def mean_recall(index, queries, ground_truth, k=10, budget=48):
    """Helper: recall@k of an index against precomputed ground truth."""
    total = 0.0
    for query, truth in zip(queries, ground_truth):
        result = index.search(query, k=k, budget=budget)
        total += len(set(result.ids) & set(truth)) / k
    return total / len(queries)


def assert_one_int_per_vertex(graph, layers):
    """Helper: every id stored in a row of ``layers`` (mappings ``{vertex:
    row}``: a navigation graph, HNSW's upper layers) *is* ``graph``'s int
    object for that vertex, so an edge costs a pointer."""
    stored = [vertex for layer in layers for row in layer.values() for vertex in row]
    assert all(vertex is own for vertex, own in zip(stored, graph.vertex_ids(stored)))


def bytes_per_edge(layers):
    """Helper: what the rows of ``layers`` hold per edge, counting each row
    list and each distinct int object stored by :func:`sys.getsizeof`."""
    rows = [row for layer in layers for row in layer.values()]
    ints = {id(vertex): vertex for row in rows for vertex in row}
    held = sum(map(sys.getsizeof, rows)) + sum(map(sys.getsizeof, ints.values()))
    return held / sum(map(len, rows))


class RecordingKernel(WeightedMultiVectorKernel):
    """A weighted kernel that keeps every row a search hands it, in order:
    a one-query search's scoring sequence, whatever the index."""

    def __init__(self, schema, weights=None) -> None:
        super().__init__(schema, weights)
        self.rows = []

    def batch(self, query, matrix):
        self.rows.extend(np.atleast_2d(matrix))
        return super().batch(query, matrix)

    def batch_paired(self, queries, matrix, owners):
        self.rows.extend(np.atleast_2d(matrix))
        return super().batch_paired(queries, matrix, owners)


def bounded_replay(kernel, query, rows, budget, bounded=True):
    """Helper, experiment E5's replay: score ``rows`` in order through
    ``kernel.single`` against the ``budget``-th best distance so far (with
    ``bounded=False``, whole, then compared with it), asserting at every
    early exit that the returned value and the exact distance both exceed
    the bound.  Returns the kept ``(distance, position)`` pairs, nearest
    first."""
    beam = []  # max-heap of (-distance, position)
    for position, row in enumerate(rows):
        bound = -beam[0][0] if len(beam) >= budget else np.inf
        exits = kernel.stats.pruned
        distance = kernel.single(query, row, bound=bound if bounded else np.inf)
        if kernel.stats.pruned > exits:
            assert distance > bound
            assert kernel.with_weights(kernel.weights).single(query, row) > bound
        if distance < bound:
            heapq.heappush(beam, (-distance, position))
            if len(beam) > budget:
                heapq.heappop(beam)
    return sorted((-d, position) for d, position in beam)


def assert_pruning_is_exact(index, queries, schema, weights, k, budget):
    """Helper: each query's one-query search under ``weights`` is recorded
    and replayed through the bounded ``single``; the replay keeps exactly
    the rows an unbounded replay keeps, and the search itself returns the
    same ids as under a plain kernel of the same weights.  Returns the
    bounded and the unbounded replays' counters."""
    pruning = WeightedMultiVectorKernel(schema, weights)
    exact = WeightedMultiVectorKernel(schema, weights)
    for query in queries:
        recorder = RecordingKernel(schema, weights)
        found = index.search(query, k=k, budget=budget, kernel=recorder)
        plain = index.search(
            query, k=k, budget=budget, kernel=WeightedMultiVectorKernel(schema, weights)
        )
        assert found.ids == plain.ids
        kept = bounded_replay(pruning, query, recorder.rows, budget)
        assert kept == bounded_replay(exact, query, recorder.rows, budget, bounded=False)
    return pruning.stats, exact.stats
