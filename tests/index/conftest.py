"""Index-test fixtures: small corpora and prebuilt indexes shared per module."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.distance import SingleVectorKernel
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
