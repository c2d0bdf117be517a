"""The build -> add seam, pinned to the byte.

``build`` finds a row's candidates exactly, ``add`` searches for them, and
both link through one step.  Whatever rewrites the traversal or the storage
under that seam must leave the graphs alone: each case bulk-builds 400 rows,
streams 300 more through ``add``, and compares a sha256 over the whole
adjacency with the digest the same script produced at commit ``776305f``.
The corpus, the level streams and the random initial neighbours are all
seeded, and every kernel entry is bit-stable, so the digests do not move
between runs (CI runs this file with ``-p no:randomly`` and
``PYTHONHASHSEED=0`` all the same).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.data import Modality
from repro.distance import (
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
)
from repro.evaluation import exact_knn
from repro.index import (
    HnswIndex,
    MustGraphIndex,
    NsgIndex,
    StarlingIndex,
    StarlingParams,
    TieredParams,
    VamanaIndex,
)

DIM, BUILT, ADDED, K, BUDGET = 32, 400, 300, 10, 64


def _single():
    return SingleVectorKernel(DIM)


def _must():
    schema = MultiVectorSchema({Modality.TEXT: 16, Modality.IMAGE: 16})
    return WeightedMultiVectorKernel(schema, [1.4, 0.6])


# Starling lays a Vamana graph out in blocks, tiered or not: one digest.
VAMANA = "a1c2e891e9af6582f0fa44df2844280bd5b41cbe7bcc3775c097a5a05c9d83e8"

# name -> (index factory, kernel factory, adjacency digest at 776305f)
CASES = {
    "hnsw-single": (
        HnswIndex,
        _single,
        "a614bfa91666874390bb272737dffa9ec422f1a810beef58c605c971f4a6384e",
    ),
    "hnsw-must": (
        HnswIndex,
        _must,
        "e8fb8f46230593054b4c6edcfe72ff9596ac72534e141140321e98bd1c311db3",
    ),
    "vamana": (VamanaIndex, _single, VAMANA),
    "nav-must": (
        MustGraphIndex,
        _must,
        "3ac4734f184e7f705921f6ec47851affd7bd1b14303484c23a053b8b57dff93b",
    ),
    "nsg": (
        NsgIndex,
        _single,
        "cc41a8afcfe0ba3668bbac20017d82d6d9ad8287d8deb7d35f7ba9c52c8d815a",
    ),
    "starling": (StarlingIndex, _single, VAMANA),
    "starling-tiered": (
        lambda: StarlingIndex(StarlingParams(tiered=TieredParams())),
        _single,
        VAMANA,
    ),
}


def _unit_rows(seed: int, n: int) -> np.ndarray:
    rows = np.random.default_rng(seed).standard_normal((n, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def adjacency_digest(index) -> str:
    """sha256 over every layer's sorted ``(node, row)`` pairs, the entry
    points and the max level (0 for the single-layer graphs)."""
    if isinstance(index, HnswIndex):
        layers = [sorted(layer.items()) for layer in index._layers]
        entries, max_level = [index._entry], index._max_level
    else:
        graph = index.graph
        layers = [[(v, graph.neighbors(v)) for v in range(graph.n_vertices)]]
        entries, max_level = list(graph.entry_points), 0
    return hashlib.sha256(json.dumps([layers, entries, max_level]).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_then_add_reproduces_the_pinned_graph(name):
    make_index, make_kernel, pinned = CASES[name]
    corpus = _unit_rows(0, BUILT + ADDED)
    index, kernel = make_index(), make_kernel()
    index.build(corpus[:BUILT], kernel)
    assert [index.add(row) for row in corpus[BUILT:]] == list(range(BUILT, BUILT + ADDED))
    assert adjacency_digest(index) == pinned
    if hasattr(index, "check_invariants"):
        index.check_invariants()

    queries = _unit_rows(1, 100)
    truth = exact_knn(corpus, kernel, queries, k=K)
    found = index.search_batch(queries, k=K, budget=BUDGET)
    recall = np.mean([len(set(r.ids) & set(t)) / K for r, t in zip(found, truth)])
    assert recall >= 0.99, f"{name}: recall@{K} {recall:.4f}"
