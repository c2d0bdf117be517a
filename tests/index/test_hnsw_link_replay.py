"""``build`` links a layer in one call; the graph is the one-at-a-time graph.

``HnswIndex.build`` hands ``_link`` a layer's whole reverse-edge history and
``_link`` folds it row by row, a window of arrivals per gather.  ``add`` calls
the same routine with one arrival per neighbour.  Here a second index gets
the same selected rows but is made to link them the ``add`` way — one node at
a time, in node order, ``{neighbour: [node]}`` per call — and every layer
must come out equal, rows in stored order, with the same number of
re-selected rows: the windows change how often vectors are gathered, never
which events happen.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.index import build_index
from repro.index.hnsw import HnswIndex, HnswParams
from repro.retrieval import MustRetrieval
from tests.index.test_hnsw_bulk_build import KERNELS, _distinct_corpus, _duplicated_corpus

CORPORA = {"distinct": _distinct_corpus, "duplicated": _duplicated_corpus}


def _recorded(index: HnswIndex, node_by_node: bool) -> list:
    """Record what ``index._link`` returns per layer; with ``node_by_node``
    every call is first taken apart into the calls ``add`` would make."""
    fold, totals = index._link, []

    def link(layer, incoming, m, embedded=None):
        if not node_by_node:
            totals.append(fold(layer, incoming, m, embedded))
            return totals[-1]
        rows = index._layers[layer]
        forward = {node: list(row) for node, row in rows.items()}
        assert {t: sorted(s) for t, s in incoming.items()} == incoming
        stats = {"reselected_rows": 0, "targets": 0, "windows": 0}
        for node in sorted(forward):
            one = fold(layer, {neighbor: [node] for neighbor in forward[node]}, m, embedded)
            # One event per row: each re-selected row is a target and a window.
            assert one["reselected_rows"] == one["targets"] == one["windows"]
            stats["reselected_rows"] += one["reselected_rows"]
        totals.append(stats)
        return stats

    index._link = link
    return totals


def _assert_same_graph(params: HnswParams, vectors: np.ndarray, kernel) -> HnswIndex:
    bulk, replayed = HnswIndex(params), HnswIndex(params)
    bulk_stats = _recorded(bulk, node_by_node=False)
    replay_stats = _recorded(replayed, node_by_node=True)
    bulk.build(vectors, kernel)
    replayed.build(vectors, kernel)
    assert len(bulk._layers) == len(replayed._layers) == len(bulk_stats)
    for layer, (got, want) in enumerate(zip(bulk._layers, replayed._layers)):
        assert list(got.items()) == list(want.items()), f"layer {layer}"
    assert (bulk._entry, bulk._max_level) == (replayed._entry, replayed._max_level)
    assert [s["reselected_rows"] for s in bulk_stats] == [
        s["reselected_rows"] for s in replay_stats
    ]
    # The saving, on layer 0 (linked last): a re-selected row gathers once
    # per window, not once per event.
    assert all(s["targets"] <= s["windows"] <= s["reselected_rows"] for s in bulk_stats)
    assert bulk_stats[-1]["windows"] < bulk_stats[-1]["reselected_rows"] / 4
    bulk.check_invariants()
    return bulk


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("corpus_name", sorted(CORPORA))
def test_build_equals_linking_node_by_node(kernel_name, corpus_name):
    params = HnswParams(m=6, ef_construction=40, seed=3)
    _assert_same_graph(params, CORPORA[corpus_name](), KERNELS[kernel_name]())


def test_build_equals_linking_node_by_node_at_benchmark_scale():
    """scenes/2000 under MUST at the default parameters: the benchmark's build."""
    kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=2000, seed=7))
    must = MustRetrieval()
    must.setup(
        kb,
        build_encoder_set("clip-joint", kb, seed=3),
        lambda: build_index("flat", {}),
        weights={"text": 0.8, "image": 1.2},
    )
    flat = must._index
    index = _assert_same_graph(HnswParams(), flat.vectors, flat.kernel)
    assert index.size == 2000
